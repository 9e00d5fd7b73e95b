"""repro — reproduction of Papadimitriou & Yannakakis,
"On the Complexity of Database Queries" (PODS 1997 / JCSS 1999).

The public API re-exports the main entry points of each subsystem; see
``docs/`` for one page per subsystem (``docs/engine.md`` for the engine's
routes, ``docs/performance.md`` for what each change measured).

Every package ``__init__`` re-exports lazily (:func:`_lazy_exports`), so
importing a module loads only what that module imports: the server runs
two routes and loads neither the library evaluators nor the SQL oracle.
"""

import sys
from importlib import import_module


def _lazy_exports(package, exports):
    """Re-export ``package``'s public names on first access (PEP 562).

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.  Returns the package's module
    ``__getattr__`` and its ``__all__``.  A name equal to its own
    submodule's name is bound now: once that submodule had been imported,
    the package attribute would be the module, and ``__getattr__`` would
    never run for it.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    for name, submodule in exports.items():
        if name == submodule:
            __getattr__(name)
    return __getattr__, list(exports)


__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "ArityError": "errors",
        "BackendError": "errors",
        "CancelledRequestError": "errors",
        "ConnectionLostError": "errors",
        "DeadlineExceededError": "errors",
        "FleetDrainedError": "errors",
        "InconsistentConstraintsError": "errors",
        "NotAcyclicError": "errors",
        "ParseError": "errors",
        "QueryError": "errors",
        "ReductionError": "errors",
        "ReproError": "errors",
        "RequestTimeoutError": "errors",
        "RetryExhaustedError": "errors",
        "SchemaError": "errors",
        "ServerBusyError": "errors",
        "SqlCompilationError": "errors",
        "WorkerUnavailableError": "errors",
        "Database": "relational",
        "Relation": "relational",
        "Atom": "query",
        "Comparison": "query",
        "ConjunctiveQuery": "query",
        "DatalogProgram": "query",
        "FirstOrderQuery": "query",
        "Inequality": "query",
        "PositiveQuery": "query",
        "Rule": "query",
        "parse_program": "query",
        "parse_query": "query",
        "CountingYannakakisEvaluator": "evaluation",
        "DatalogEvaluator": "evaluation",
        "FirstOrderEvaluator": "evaluation",
        "NaiveEvaluator": "evaluation",
        "PositiveEvaluator": "evaluation",
        "TreewidthEvaluator": "evaluation",
        "YannakakisEvaluator": "evaluation",
        "QueryEngine": "engine",
        "QueryPlan": "engine",
        "SqliteBackend": "backends",
        "Operation": "operations",
        "ParallelYannakakisEvaluator": "parallel",
        "ShardedRelation": "parallel",
        "WorkerPool": "parallel",
        "CancelToken": "resilience",
        "FaultPlan": "resilience",
        "RetryPolicy": "resilience",
        "QueryService": "service",
        "AsyncQueryClient": "protocol",
        "QueryClient": "protocol",
        "QueryServer": "protocol",
        "FleetRouter": "fleet",
        "FleetSupervisor": "fleet",
    },
)
__all__.append("__version__")

__version__ = "1.0.0"
