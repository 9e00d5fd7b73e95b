"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class.  Subclasses
partition the failure modes along the package structure: schema/arity
problems in the relational layer, malformed queries, structural requirements
(acyclicity, consistency) and parser errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class SchemaError(ReproError):
    """A relation or database was used inconsistently with its schema.

    Examples: inserting a tuple of the wrong arity, joining relations whose
    shared attribute names disagree on declared meaning, or looking up a
    relation name that the database does not define.
    """


class ArityError(SchemaError):
    """A tuple or term list does not match the arity of its relation."""


class QueryError(ReproError):
    """A query object is malformed.

    Examples: a head variable that does not occur in the body (unsafe
    query), an inequality atom over variables that appear in no relational
    atom, or a comparison constraint set that mentions undeclared terms.
    """


class NotAcyclicError(ReproError):
    """An algorithm that requires an acyclic hypergraph received a cyclic one.

    Raised by the Yannakakis evaluator, the Theorem 2 evaluator and the
    join-tree constructor when GYO reduction does not empty the hypergraph.
    """


class InconsistentConstraintsError(ReproError):
    """A set of order constraints (< / <=) admits no satisfying assignment.

    Detected by the Klug-style strongly-connected-component test: some
    strong component of the constraint graph contains a strict arc.
    """


class ParseError(ReproError):
    """The textual query parser rejected its input.

    Carries the character ``position`` of the offending token (``-1`` when
    unknown) and, once the parser has annotated it, the 1-based ``line``
    and ``column`` — the coordinates the wire codec surfaces to remote
    clients.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position
        self.line: int = -1
        self.column: int = -1


class RequestRejectedError(ReproError):
    """A service request was rejected before execution.

    The typed error result the service facade and the wire protocol share:
    instead of a raw traceback, callers get a stable machine-readable
    ``code`` (``"parse_error"``, ``"bad_request"``, ...) plus a structured
    ``detail`` mapping (e.g. the parse position).  The protocol codec
    serializes these fields verbatim into an error response.
    """

    code = "rejected"

    def __init__(self, message: str, code: str | None = None, **detail: object) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.detail = dict(detail)


class InvalidOperationError(QueryError, RequestRejectedError):
    """A generic :class:`~repro.operations.Operation` is malformed.

    Raised when an :class:`~repro.operations.Operation` is constructed
    with an unknown kind, an option the kind does not take, or a malformed
    option value (e.g. an empty or repeated ``group_by``).  Deriving from both :class:`QueryError` (the local
    contract — ``except QueryError`` keeps working) and
    :class:`RequestRejectedError` gives the same failure one stable wire
    code, ``invalid_operation``, whether it is raised engine-locally or
    surfaced through the protocol codec.
    """

    code = "invalid_operation"

    def __init__(self, message: str, **detail: object) -> None:
        RequestRejectedError.__init__(self, message, **detail)


class ServiceOverloadedError(RequestRejectedError):
    """Admission backpressure: a client exceeded its pending-request budget.

    Raised by :class:`~repro.service.QueryService` when a per-client
    pending bound is configured and one client floods past it; the wire
    protocol maps it to a structured ``backpressure`` error response
    instead of dropping the connection.
    """

    code = "backpressure"


class ServerBusyError(RequestRejectedError):
    """The server's connection limit is reached; try again later.

    Raised (and sent as a final frame) by
    :class:`~repro.protocol.QueryServer` when ``max_connections`` is
    configured and a new connection arrives past the limit.  The code is
    in the default client retry set — the condition is transient.
    """

    code = "server_busy"


class DeadlineExceededError(RequestRejectedError):
    """A request's deadline expired before its evaluation finished.

    Raised at the next cooperative check-point of the evaluators (level
    boundaries, shard-map steps) once the request's
    :class:`~repro.resilience.CancelToken` deadline passes, and by the
    service-side waiter when the engine has not answered in time.  Maps
    to the wire code ``deadline_exceeded``; carries the original budget
    in ``detail["deadline"]``.
    """

    code = "deadline_exceeded"


class CancelledRequestError(RequestRejectedError):
    """A request was cancelled before completion.

    Raised when a client disconnects mid-request, sends an explicit
    ``cancel`` message, or every waiter of a coalesced request abandons
    it.  Maps to the wire code ``cancelled``; carries the teardown
    ``detail["reason"]``.
    """

    code = "cancelled"


class ConnectionLostError(ReproError, ConnectionError):
    """The server connection died with requests still pending.

    The protocol clients raise this (instead of leaving futures pending
    forever) when the transport closes abruptly.  ``last_server_error``
    carries the final structured error the server managed to send before
    the close — usually the *reason* the connection died (e.g. a
    ``frame_too_large`` rejection) — or ``None`` for a silent drop.

    Subclasses :class:`ConnectionError` so existing transport-level
    ``except`` clauses keep working.
    """

    def __init__(
        self, message: str, last_server_error: BaseException | None = None
    ) -> None:
        super().__init__(message)
        self.last_server_error = last_server_error


class RequestTimeoutError(ReproError, TimeoutError):
    """A blocking client's socket timeout expired mid-request.

    Raised by :class:`~repro.protocol.QueryClient` instead of hanging on
    a silent server.  Subclasses :class:`TimeoutError` (itself an
    :class:`OSError`), so transport-level handlers keep working; the
    connection is poisoned afterwards — the reply may still arrive and
    desynchronize the stream.
    """

    def __init__(self, message: str, timeout: float | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class WorkerUnavailableError(ReproError, ConnectionError):
    """A fleet worker could not serve a routed request.

    Raised internally by :class:`~repro.fleet.FleetRouter` when the
    worker a request was routed to is dead, draining, or unreachable;
    the router's failover machinery treats it as retryable and re-routes
    the (idempotent) request to a healthy replica.  Carries the worker's
    fleet ``worker`` id so chaos tests can assert *which* replica failed.

    Subclasses :class:`ConnectionError` so it lands in the transport
    branch of :meth:`~repro.resilience.RetryPolicy.retryable`.
    """

    def __init__(self, message: str, worker: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker


class FleetDrainedError(ReproError):
    """Every worker of the fleet is unavailable; the request cannot run.

    Raised by :class:`~repro.fleet.FleetRouter` when failover exhausts
    its retry budget without finding a live worker — the fleet-level
    analogue of :class:`RetryExhaustedError`.  Carries the number of
    routing ``attempts`` and the ``last_error`` that failed the final
    one (also its ``__cause__``).
    """

    def __init__(
        self, message: str, attempts: int = 0, last_error: BaseException | None = None
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class RetryExhaustedError(ReproError):
    """A client retry budget ran out without a successful attempt.

    Carries the number of ``attempts`` made and the ``last_error`` that
    failed the final attempt (also its ``__cause__``).
    """

    def __init__(
        self, message: str, attempts: int, last_error: BaseException | None = None
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class BackendError(ReproError):
    """A SQL backend could not serve a request.

    Base class of every deliberate failure in :mod:`repro.backends` (the
    differential oracle; the engine never calls a backend).
    """


class SqlCompilationError(BackendError):
    """The query lies outside the SQL pushdown fragment.

    The compiler covers conjunctive bodies with equality/inequality
    predicates over value codes; order comparisons (``<`` / ``<=``),
    zero-arity atoms, and unhashable constants are outside it.  Only
    callers of :mod:`repro.backends` see it; the engine compiles no SQL.
    """


class ReductionError(ReproError):
    """A parametric reduction was applied to an instance outside its domain."""
