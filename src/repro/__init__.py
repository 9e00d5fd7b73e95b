"""repro — reproduction of Papadimitriou & Yannakakis,
"On the Complexity of Database Queries" (PODS 1997 / JCSS 1999).

The public API re-exports the main entry points of each subsystem; see
README.md for a tour and DESIGN.md for the paper-to-module map.
"""

from .errors import (
    ArityError,
    BackendError,
    CancelledRequestError,
    ConnectionLostError,
    DeadlineExceededError,
    FleetDrainedError,
    InconsistentConstraintsError,
    NotAcyclicError,
    ParseError,
    QueryError,
    ReductionError,
    ReproError,
    RequestTimeoutError,
    RetryExhaustedError,
    SchemaError,
    ServerBusyError,
    SqlCompilationError,
    WorkerUnavailableError,
)
from .relational import Database, Relation
from .query import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    DatalogProgram,
    FirstOrderQuery,
    Inequality,
    PositiveQuery,
    Rule,
    parse_program,
    parse_query,
)
from .evaluation import (
    CountingYannakakisEvaluator,
    DatalogEvaluator,
    FirstOrderEvaluator,
    NaiveEvaluator,
    PositiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
)
from .engine import QueryEngine, QueryPlan
from .backends import SqlBackend, SqliteBackend
from .operations import Operation
from .parallel import ParallelYannakakisEvaluator, ShardedRelation, WorkerPool
from .resilience import CancelToken, FaultPlan, RetryPolicy
from .service import QueryService
from .protocol import AsyncQueryClient, QueryClient, QueryServer
from .fleet import FleetRouter, FleetSupervisor

__version__ = "1.0.0"

__all__ = [
    "ArityError",
    "AsyncQueryClient",
    "Atom",
    "BackendError",
    "CancelToken",
    "CancelledRequestError",
    "Comparison",
    "ConjunctiveQuery",
    "ConnectionLostError",
    "CountingYannakakisEvaluator",
    "Database",
    "DatalogEvaluator",
    "DatalogProgram",
    "DeadlineExceededError",
    "FaultPlan",
    "FleetDrainedError",
    "FleetRouter",
    "FleetSupervisor",
    "FirstOrderEvaluator",
    "FirstOrderQuery",
    "InconsistentConstraintsError",
    "Inequality",
    "NaiveEvaluator",
    "NotAcyclicError",
    "Operation",
    "ParseError",
    "ParallelYannakakisEvaluator",
    "PositiveEvaluator",
    "PositiveQuery",
    "QueryClient",
    "QueryEngine",
    "QueryError",
    "QueryPlan",
    "QueryServer",
    "QueryService",
    "RequestTimeoutError",
    "RetryExhaustedError",
    "RetryPolicy",
    "ServerBusyError",
    "ReductionError",
    "Relation",
    "ReproError",
    "Rule",
    "SchemaError",
    "ShardedRelation",
    "SqlBackend",
    "SqlCompilationError",
    "SqliteBackend",
    "TreewidthEvaluator",
    "WorkerPool",
    "WorkerUnavailableError",
    "YannakakisEvaluator",
    "parse_program",
    "parse_query",
    "__version__",
]
