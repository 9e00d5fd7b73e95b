"""The async query-service front-end: many callers, one shared engine.

Vardi's combined-complexity point — when queries arrive as inputs, the
query side dominates — is the regime a multi-tenant service lives in:
many distinct query *shapes*, endlessly repeated parameterizations.  The
engine already amortizes that shape work (plan cache, warm kernel
indexes), but only for callers who share one engine.
:class:`QueryService` is the sharing layer:

* an ``asyncio`` facade built around one generic ``run`` / ``run_batch``
  pair over :class:`~repro.operations.Operation` values — the per-kind
  methods (``execute`` / ``decide`` / ``explain`` / ``count`` /
  ``grouped_count`` / ``exists`` / ``forall``) come from
  :class:`~repro.operations.OperationFacade` — multiplexing every
  concurrent client onto one thread-safe
  :class:`~repro.engine.QueryEngine`;
* a **bounded request queue** between admission and execution — when all
  dispatchers are busy and the queue is full, new work awaits (natural
  asyncio backpressure) instead of piling up unboundedly;
* **single-flight coalescing** — a request identical to one already in
  flight (same kind, same options, same query, same database) does not
  execute again;
  it awaits the in-flight result, which is safe to share because results
  are immutable relations;
* **batching on backlog** — a request's group goes onto the queue the
  moment it is created and stays *open* until the pump starts it: a
  request that finds a dispatch slot free runs at once, and same-shape
  requests of the same client that arrive while the group is still
  queued join it and run through the engine's N-wide batch lifting
  (``run_batch`` over generic operations) — a flood of single queries
  becomes a handful of lifted executions, and nobody waits for a timer;
* **per-client fairness** — requests tagged with a ``client`` (the
  network front-end of :mod:`repro.protocol` tags every connection) land
  in per-client lanes of a :class:`~repro.service.fairness.FairQueue`
  drained round-robin, so one flooding client cannot starve the rest;
  with ``max_pending_per_client`` set, a client that floods past its
  admitted-but-unfinished budget is *rejected* with a typed
  :class:`~repro.errors.ServiceOverloadedError` instead of wedging the
  queue;
* **typed rejections** — facade methods accept query *text* as well as
  :class:`~repro.query.conjunctive.ConjunctiveQuery` objects, parsing
  each distinct text once (a bounded memo); malformed text is mapped to
  :class:`~repro.errors.RequestRejectedError` (code ``parse_error``, with
  the parser's position/line/column in ``detail``) on every attempt
  instead of leaking a raw parser traceback.

A pump on the loop thread starts queued groups while fewer than
``dispatchers`` run.  A group the engine knows to be short — a warm shape
whose recent p95 run, times the group's size, fits in the interpreter's
switch interval — runs right there, under a time slice of one switch
interval: under the interpreter lock a worker thread would have run it
start to end anyway, so the hop would buy the loop nothing.  A run that
outlives its slice stops at its next cancellation check-point and the
group goes to the pool instead.  Every other group — a shape's first
sight, a long shape, an explicit batch — runs on the service's dispatch
:class:`~repro.parallel.pool.WorkerPool`, whose worker hands its results
back with one ``call_soon_threadsafe``.  So no request holds the loop for
longer than one switch interval plus one stretch between two check-points.

A service instance is bound to the first event loop that uses it; all
internal state (in-flight map, open groups, counters) is touched
only from that loop's thread, which is what makes the front-end itself
lock-free — the engine below it carries the thread-safety contracts
(one locked shape table, convergent kernel cache fills;
see ``docs/service.md``).
"""

from __future__ import annotations

import asyncio
import sys
from collections import OrderedDict
from concurrent.futures import Future
from functools import lru_cache, partial
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..engine.analysis import plan_cache_key
from ..engine.engine import QueryEngine
from ..errors import (
    CancelledRequestError,
    DeadlineExceededError,
    ParseError,
    RequestRejectedError,
    ServiceOverloadedError,
)
from ..operations import (
    EXPLAIN,
    Operation,
    OperationFacade,
)
from ..parallel.pool import WorkerPool, default_worker_count
from ..query.conjunctive import ConjunctiveQuery
from ..query.parser import parse_query
from ..relational.database import Database
from ..resilience.token import CancelToken, SliceSpent, swap_token
from ..telemetry import CLIENT_COUNTERS, SERVICE_COUNTERS, LatencyReservoir, counters
from .fairness import ANONYMOUS, FairQueue

#: Queries cross the facade as objects or as rule-notation text.
QueryLike = Union[str, ConjunctiveQuery]

#: Bound of the request queue (groups, each ≥ 1 request).
DEFAULT_MAX_PENDING = 256

#: Largest size an open group may grow to; a full group takes no more.
DEFAULT_BATCH_LIMIT = 64

#: Most client tags the per-client stats rollup tracks (LRU eviction).
MAX_TRACKED_CLIENTS = 64

#: Most distinct query texts whose parse the service keeps (LRU eviction).
PARSE_MEMO_SIZE = 1024

#: One client's rollup: its counters and its recent request latencies.
_ClientRecord = Tuple[Dict[str, Any], LatencyReservoir]


def _outcome_of(error: BaseException) -> str:
    """The outcome a request that ended in *error* counts under."""
    if isinstance(error, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(error, CancelledRequestError):
        return "cancelled"
    return "failed"


class _Group:
    """One queue item: same-shape, same-client requests dispatched together."""

    __slots__ = (
        "kind",
        "options",
        "database",
        "queries",
        "futures",
        "shape",
        "client",
        "token",
        "abandoned",
    )

    def __init__(
        self,
        kind: str,
        database: Database,
        queries: List[ConjunctiveQuery],
        futures: List["asyncio.Future[Any]"],
        client: str,
        token: CancelToken,
        options: Tuple[Tuple[str, Any], ...],
        shape: Optional[Tuple] = None,
    ) -> None:
        self.kind = kind
        #: Canonical option tuple shared by every member (part of the
        #: shape key — members with different options never mix).
        self.options = options
        self.database = database
        self.queries = queries
        self.futures = futures
        #: Key under which the group is open to joiners in
        #: ``QueryService._collecting``; ``None`` for groups that never
        #: take joiners (explicit batches, ``explain``).
        self.shape = shape
        self.client = client
        #: Cancellation/deadline token activated around the engine call
        #: (the pump slices it for an inline run); teardown cancels it.
        self.token = token
        #: Member futures whose every waiter has left.  The group's
        #: execution is cancelled only once this reaches ``len(futures)``
        #: — the last-waiter rule for coalesced/batched requests.
        self.abandoned = 0


class _Flight:
    """One single-flight entry: the shared future plus its waiter census.

    ``waiters`` counts the callers currently awaiting the future (the
    originator plus coalesced joiners).  A waiter that leaves early —
    client disconnect, explicit cancel, deadline expiry — decrements it;
    when the last one goes, the flight's group is told, and only a fully
    abandoned group cancels the underlying execution.  ``abandoned``
    marks a flight already reported to its group, so a joiner arriving
    after a full abandonment (but before teardown settles the future)
    reclaims it instead of double-counting.
    """

    __slots__ = ("future", "database", "group", "waiters", "abandoned")

    def __init__(self, future: "asyncio.Future[Any]", database: Database) -> None:
        self.future = future
        self.database = database
        self.group: Optional[_Group] = None
        self.waiters = 0
        self.abandoned = False


class QueryService(OperationFacade):
    """Async multiplexer of concurrent callers onto one shared engine.

    Parameters
    ----------
    engine:
        The shared engine.  ``None`` constructs one (forwarding
        ``engine_kwargs``) that the service owns and closes.
    max_pending:
        Bound of the request queue (admission backpressure).
    batch_limit:
        A queued group takes no more joiners once it holds this many
        requests; the next same-shape request starts a new group.
    dispatchers:
        Most groups running at once (defaults to the worker pool's
        budget) — the cap on concurrently executing engine calls.
    max_pending_per_client:
        Admitted-but-unfinished budget per client tag.  ``None`` (the
        default) keeps PR 4's awaiting backpressure for everyone; a bound
        makes the service *reject* a flooding client's excess requests
        with :class:`~repro.errors.ServiceOverloadedError` — the
        structured-error behavior the network front-end needs — while
        polite clients stay unaffected.
    """

    def __init__(
        self,
        engine: Optional[QueryEngine] = None,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        dispatchers: Optional[int] = None,
        max_pending_per_client: Optional[int] = None,
        **engine_kwargs: Any,
    ) -> None:
        if engine is not None and engine_kwargs:
            raise ValueError(
                "pass engine_kwargs only when the service constructs the "
                f"engine; got both an engine and {sorted(engine_kwargs)}"
            )
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        if dispatchers is not None and dispatchers < 1:
            # Zero dispatchers would accept requests that nothing ever
            # serves — fail loudly like the neighbouring guards.
            raise ValueError(f"dispatchers must be >= 1, got {dispatchers}")
        if max_pending_per_client is not None and max_pending_per_client < 1:
            raise ValueError(
                f"max_pending_per_client must be >= 1, got {max_pending_per_client}"
            )
        self._engine = engine if engine is not None else QueryEngine(**engine_kwargs)
        self._owns_engine = engine is None
        # Never a budget of one: a one-worker pool runs ``submit`` inline,
        # which would put evaluation on the event loop's thread.
        self._pool = WorkerPool(max(2, default_worker_count()))
        self._max_pending = max_pending
        self._batch_limit = batch_limit
        self._dispatcher_count = dispatchers or self._pool.max_workers
        self._max_pending_per_client = max_pending_per_client
        #: Query text → parsed query; a ``ParseError`` is never cached.
        self._parse = lru_cache(maxsize=PARSE_MEMO_SIZE)(parse_query)
        self._counters = counters(SERVICE_COUNTERS)
        #: client tag → rollup (bounded LRU — connections churn, stats
        #: must not grow without limit).
        self._clients: "OrderedDict[str, _ClientRecord]" = OrderedDict()
        #: client tag → admitted-but-unfinished request count.
        self._client_pending: Dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["FairQueue[_Group]"] = None
        #: Groups submitted to the pool and not yet settled.
        self._running = 0
        self._pump_scheduled = False
        #: Put tasks of groups waiting for room in a full queue.
        self._background: Set["asyncio.Task[None]"] = set()
        #: key → flight.  The flight's database reference is load-
        #: bearing: keys embed ``id(database)``, and holding the object
        #: for the entry's lifetime guarantees that id cannot be reused
        #: by a different database while a lookup could still hit it.
        self._inflight: Dict[Tuple, _Flight] = {}
        #: shape → the group still open to same-shape joiners: created,
        #: not yet full, not yet started by the pump, not torn down.
        self._collecting: Dict[Tuple, _Group] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def run(
        self,
        operation: Operation,
        database: Database,
        *,
        client: str = ANONYMOUS,
        deadline: Optional[float] = None,
    ) -> Any:
        """Run one :class:`~repro.operations.Operation` through the shared
        engine — the generic path every typed facade wraps.

        Single-flight coalescing and batching key on the full
        operation (kind *and* options), so two callers issuing the same
        operation share one execution, while operations that differ only
        in options never mix.  *deadline* bounds the request in seconds
        from admission: past it the call raises
        :class:`~repro.errors.DeadlineExceededError` and the underlying
        execution is cooperatively cancelled (unless other waiters still
        ride it).
        """
        operation.validate()
        return await self._submit(
            operation.kind,
            operation.query,
            database,
            client,
            deadline,
            operation.options,
        )

    async def run_batch(
        self,
        operations: Sequence[Operation],
        database: Database,
        *,
        client: str = ANONYMOUS,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Run an explicit batch of operations (never joined by others).

        Operations sharing ``(kind, options)`` dispatch as one group
        through the engine's N-wide batch lifting; a mixed batch splits
        into per-``group_key`` groups submitted concurrently, and results
        come back in input order regardless.
        """
        if not operations:
            return []
        for operation in operations:
            operation.validate()
        slots: Dict[Tuple[str, Tuple], List[int]] = {}
        for index, operation in enumerate(operations):
            slots.setdefault(operation.group_key, []).append(index)
        if len(slots) == 1:
            ((kind, options), _members) = next(iter(slots.items()))
            return await self._submit_group(
                kind,
                [operation.query for operation in operations],
                database,
                client,
                deadline,
                options,
            )
        # Mixed batch: one group per (kind, options), gathered together,
        # answers re-assembled into input order.
        groups = [
            self._submit_group(
                kind,
                [operations[index].query for index in members],
                database,
                client,
                deadline,
                options,
            )
            for (kind, options), members in slots.items()
        ]
        settled = await asyncio.gather(*groups)
        results: List[Any] = [None] * len(operations)
        for members, answers in zip(slots.values(), settled):
            for index, answer in zip(members, answers):
                results[index] = answer
        return results

    async def stats(self) -> Dict[str, Any]:
        """The service's counters, one rollup per tracked client and the
        engine's document: the wire ``stats`` result minus ``transport``."""
        self._ensure_open()
        return {
            "service": dict(self._counters),
            "clients": [
                {
                    **counts,
                    "p50_seconds": latencies.quantile(0.5),
                    "p95_seconds": latencies.quantile(0.95),
                }
                for counts, latencies in self._clients.values()
            ],
            "engine": self._engine.stats(),
        }

    @property
    def engine(self) -> QueryEngine:
        """The shared engine (one plan cache for every client)."""
        return self._engine

    # ------------------------------------------------------------------
    # Admission: single-flight, then an open group or a new queued one
    # ------------------------------------------------------------------

    def _coerce_query(self, query: QueryLike, client: str) -> ConjunctiveQuery:
        """Query text → object; failures become typed rejections.

        A raw :class:`ParseError` traceback must not cross the facade —
        remote callers need a stable code plus the parser's coordinates,
        and the rejection is counted per client.
        """
        if isinstance(query, ConjunctiveQuery):
            return query
        if isinstance(query, str):
            try:
                return self._parse(query)
            except ParseError as error:
                self._reject(client)
                raise RequestRejectedError(
                    f"query text rejected: {error}",
                    code="parse_error",
                    position=error.position,
                    line=error.line,
                    column=error.column,
                ) from error
        self._reject(client)
        raise RequestRejectedError(
            "expected a ConjunctiveQuery or rule-notation query text, got "
            f"{type(query).__name__}",
            code="bad_request",
        )

    def _client_stats(self, client: str) -> _ClientRecord:
        """Get-or-create *client*'s rollup (bounded LRU on client tags)."""
        record = self._clients.get(client)
        if record is None:
            if len(self._clients) >= MAX_TRACKED_CLIENTS:
                self._clients.popitem(last=False)
            counts = {"client": client, **counters(CLIENT_COUNTERS)}
            record = self._clients[client] = (counts, LatencyReservoir(256))
        else:
            self._clients.move_to_end(client)
        return record

    def _count(self, client: str, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* of the service and of *client*."""
        self._counters[name] += n
        self._client_stats(client)[0][name] += n

    def _settle(self, client: str, outcome: str, started: float, n: int = 1) -> None:
        """*n* requests of *client* ended as *outcome*.

        Called once per request, by the caller that waited for it — so
        ``submitted + coalesced`` equals the four outcomes summed once the
        service is idle, at the service and in every client rollup.
        """
        assert self._loop is not None
        counts, latencies = self._client_stats(client)
        self._counters[outcome] += n
        counts[outcome] += n
        seconds = self._loop.time() - started
        for _ in range(n):
            latencies.add(seconds)

    def _reject(self, client: str) -> None:
        self._count(client, "rejected")

    def _check_capacity(self, client: str, count: int = 1) -> None:
        """Per-client admission budget: reject the flood, structurally.

        Only *admitted-but-unfinished* requests count — coalesced waiters
        ride an execution someone else already owns and cost nothing.
        """
        bound = self._max_pending_per_client
        if bound is None:
            return
        pending = self._client_pending.get(client, 0)
        if pending + count > bound:
            self._reject(client)
            raise ServiceOverloadedError(
                f"client {client or 'anonymous'!r} has {pending} pending "
                f"request(s); budget is {bound}",
                client=client,
                pending=pending,
                budget=bound,
            )

    def _track(
        self, future: "asyncio.Future[Any]", client: str, key: Optional[Tuple] = None
    ) -> None:
        """Count *future* against *client*'s budget until it resolves, and
        then retire its single-flight entry under *key*.

        The entry lives until the *execution* completes (not until the
        originating caller returns): a cancelled originator must not stop
        later identical requests from coalescing onto the still-running
        execution.  Entries are removed by future identity, so a dead
        flight's settle cannot clobber a fresh one's registration.
        """
        self._client_pending[client] = self._client_pending.get(client, 0) + 1

        def _release(done: "asyncio.Future[Any]") -> None:
            remaining = self._client_pending.get(client, 0) - 1
            if remaining > 0:
                self._client_pending[client] = remaining
            else:
                self._client_pending.pop(client, None)
            if key is not None:
                entry = self._inflight.get(key)
                if entry is not None and entry.future is done:
                    del self._inflight[key]
            # Mark the error retrieved: a batch torn down at its deadline,
            # or a flight whose every caller left, has no waiter to read it.
            if not done.cancelled():
                done.exception()

        future.add_done_callback(_release)

    async def _await_result(
        self,
        flight: _Flight,
        client: str,
        started: float,
        deadline: Optional[float] = None,
    ) -> Any:
        """Await a flight's (shielded) result as one counted waiter.

        The shield keeps the execution alive for other coalesced waiters
        when *this* caller leaves; the waiter census is what turns "this
        caller left" into "nobody is waiting — cancel the work".  With a
        *deadline*, the wait is also bounded wall-clock from admission:
        the caller gets its :class:`~repro.errors.DeadlineExceededError`
        on time even if the engine is between check-points.
        """
        assert self._loop is not None
        flight.waiters += 1
        if flight.abandoned:
            # Rejoining a fully abandoned (but not yet settled) flight:
            # take the abandonment back before it cancels the group.
            flight.abandoned = False
            if flight.group is not None:
                flight.group.abandoned -= 1
        outcome = "failed"
        try:
            if deadline is None:
                result = await asyncio.shield(flight.future)
            else:
                # A bare timer that cancels the shield wrapper is several
                # times cheaper per request than ``asyncio.wait_for``
                # (which adds an ``ensure_future`` wrapper and a waiter
                # future on 3.11) — it keeps the no-fault overhead of
                # deadline'd floods in the noise.  Only the wrapper is
                # cancelled; the shared flight future stays alive for
                # coalesced waiters either way.
                remaining = max(0.0, started + deadline - self._loop.time())
                guarded = asyncio.shield(flight.future)
                expired = False

                def _expire() -> None:
                    nonlocal expired
                    if not guarded.done():
                        expired = True
                        guarded.cancel()

                handle = self._loop.call_later(remaining, _expire)
                try:
                    result = await guarded
                except asyncio.CancelledError:
                    if expired:
                        raise asyncio.TimeoutError from None
                    raise
                finally:
                    handle.cancel()
            outcome = "completed"
        except asyncio.CancelledError:
            # The caller was cancelled (client disconnect, explicit
            # cancel): leave the flight; the last waiter out tears the
            # execution down.
            outcome = "cancelled"
            self._abandon(flight, "client disconnected or cancelled")
            raise
        except asyncio.TimeoutError:
            outcome = "deadline_exceeded"
            self._abandon(flight, "deadline exceeded")
            raise DeadlineExceededError(
                f"deadline of {deadline:g}s exceeded", deadline=deadline
            ) from None
        except BaseException as exc:
            outcome = _outcome_of(exc)
            flight.waiters -= 1
            raise
        finally:
            self._settle(client, outcome, started)
        flight.waiters -= 1
        return result

    def _abandon(self, flight: _Flight, reason: str) -> None:
        """One waiter left a flight early; cascade when it was the last."""
        flight.waiters -= 1
        if flight.waiters > 0 or flight.future.done() or flight.abandoned:
            return
        flight.abandoned = True
        group = flight.group
        if group is None:
            return
        group.abandoned += 1
        if group.abandoned >= len(group.futures):
            self._teardown_group(group, reason)

    def _teardown_group(self, group: _Group, reason: str) -> None:
        """Every waiter of every member is gone: stop the group's work.

        Cancels the group's token — a running execution aborts at its
        next evaluator check-point — and, when the group is still waiting
        in the admission queue, removes it outright: the FairQueue slot
        frees immediately and the dead futures settle with a typed error.
        """
        group.token.cancel(reason)
        # A purged group that stayed open would strand every later joiner.
        self._close(group)
        if self._queue is not None and self._queue.purge(
            lambda item: item is group
        ):
            error = CancelledRequestError(
                f"request cancelled: {reason}", reason=reason
            )
            for future in group.futures:
                if not future.done():
                    future.set_exception(error)

    async def _submit(
        self,
        kind: str,
        query: QueryLike,
        database: Database,
        client: str = ANONYMOUS,
        deadline: Optional[float] = None,
        options: Tuple[Tuple[str, Any], ...] = (),
    ) -> Any:
        self._start_if_needed()
        assert self._loop is not None
        started = self._loop.time()
        query = self._coerce_query(query, client)
        key = (kind, options, id(database), query)
        existing = self._inflight.get(key)
        if existing is not None and existing.group is not None:
            if existing.group.token.cancelled:
                # The flight's teardown already fired (every waiter left,
                # its token is cancelled) but the dying execution hasn't
                # settled yet.  Rejoining cannot resurrect a cancelled
                # token — the newcomer would inherit a cancellation it
                # never asked for — so treat the entry as gone and start
                # a fresh flight (``_track`` retires entries by future
                # identity).
                existing = None
        if existing is not None:
            # Single-flight: identical request already in flight — await
            # its (immutable, safely shared) result instead of executing.
            # Coalescing crosses client lanes on purpose: the waiter rides
            # an execution someone else owns, so it neither counts against
            # its budget nor occupies a queue slot.  A deadline'd waiter
            # coalesces too: its own wait is bounded either way, and the
            # execution is cancelled only when *every* waiter has left.
            self._count(client, "coalesced")
            return await self._await_result(existing, client, started, deadline)
        self._check_capacity(client)
        future: "asyncio.Future[Any]" = self._loop.create_future()
        flight = _Flight(future, database)
        self._inflight[key] = flight
        self._track(future, client, key)
        self._count(client, "submitted")
        try:
            waiting = self._route(
                kind, query, database, future, client, flight, options
            )
            if waiting is not None:
                await waiting
        except asyncio.CancelledError:
            # Caller cancelled during admission: the enqueue (if reached)
            # continues service-owned and the future resolves later for
            # any coalesced waiters — do not poison it.
            self._settle(client, "cancelled", started)
            raise
        except BaseException as exc:
            # Admission itself failed (e.g. the shape key could not be
            # computed for an unknown relation): the future must carry
            # the error, or every coalesced waiter hangs forever.
            self._settle(client, _outcome_of(exc), started)
            if not future.done():
                future.set_exception(exc)
            raise
        return await self._await_result(flight, client, started, deadline)

    async def _submit_group(
        self,
        kind: str,
        queries: List[QueryLike],
        database: Database,
        client: str = ANONYMOUS,
        deadline: Optional[float] = None,
        options: Tuple[Tuple[str, Any], ...] = (),
    ) -> List[Any]:
        if not queries:
            return []
        self._start_if_needed()
        assert self._loop is not None
        started = self._loop.time()
        coerced = [self._coerce_query(query, client) for query in queries]
        self._check_capacity(client, count=len(coerced))
        futures = [self._loop.create_future() for _ in coerced]
        for future in futures:
            self._track(future, client)
        self._count(client, "submitted", len(coerced))
        group = _Group(
            kind,
            database,
            coerced,
            list(futures),
            client,
            CancelToken(deadline),
            options,
        )
        outcome = "failed"
        try:
            waiting = self._put(group)
            if waiting is not None:
                await waiting
            if deadline is None:
                results = list(await asyncio.gather(*futures))
            else:
                remaining = max(0.0, started + deadline - self._loop.time())
                results = list(
                    await asyncio.wait_for(
                        asyncio.gather(
                            *(asyncio.shield(future) for future in futures)
                        ),
                        remaining,
                    )
                )
            outcome = "completed"
        except asyncio.CancelledError:
            # Explicit batches have exactly one waiter — tear down now.
            outcome = "cancelled"
            self._teardown_group(group, "client disconnected or cancelled")
            raise
        except asyncio.TimeoutError:
            outcome = "deadline_exceeded"
            self._teardown_group(group, "deadline exceeded")
            assert deadline is not None
            raise DeadlineExceededError(
                f"deadline of {deadline:g}s exceeded", deadline=deadline
            ) from None
        except BaseException as exc:
            outcome = _outcome_of(exc)
            raise
        finally:
            self._settle(client, outcome, started, len(futures))
        return results

    def _route(
        self,
        kind: str,
        query: ConjunctiveQuery,
        database: Database,
        future: "asyncio.Future[Any]",
        client: str,
        flight: _Flight,
        options: Tuple[Tuple[str, Any], ...],
    ) -> "Optional[asyncio.Future[None]]":
        """Join an open group or enqueue a new one; what :meth:`_put`
        returns for a new group, else ``None``."""
        # Every group carries a (deadline-free) token from birth: its run
        # activates it and teardown cancels it.
        # Deadlines stay waiter-side (``_await_result``'s bounded wait) —
        # a deadline'd request batches and coalesces like any other, and
        # its engine work stops via last-waiter abandonment, so deadlines
        # cost none of the sharing the service exists to provide.
        shape = None
        if kind != EXPLAIN:
            # Groups are client-pure (the client tag is part of the shape
            # key): a group sits in exactly one fairness lane, so a
            # flooding client's batches cannot ride a polite client's
            # admission slot.
            shape = (
                kind,
                options,
                client,
                id(database),
                plan_cache_key(query, database),
            )
            group = self._collecting.get(shape)
            # A cancelled token cannot be revived: a newcomer joining a
            # torn-down group would inherit a cancellation it never asked for.
            if group is not None and not group.token.cancelled:
                group.queries.append(query)
                group.futures.append(future)
                flight.group = group
                self._count(client, "batched")
                if len(group.queries) >= self._batch_limit:
                    self._close(group)
                return None
        group = _Group(
            kind, database, [query], [future], client, CancelToken(), options, shape
        )
        flight.group = group
        if shape is not None and self._batch_limit > 1:
            self._collecting[shape] = group
        return self._put(group)

    def _close(self, group: _Group) -> None:
        """*group* takes no more joiners: full, dequeued, or torn down."""
        if self._collecting.get(group.shape) is group:
            del self._collecting[group.shape]

    def _put(self, group: _Group) -> "Optional[asyncio.Future[None]]":
        """Enqueue *group*; what to await while the queue is full.

        With room the group goes in at once.  A full queue puts from a
        service-owned task: the caller awaits it (that is the
        backpressure), but cancelling the caller — a client timeout firing
        while the queue is full — must not lose a group other requests
        were batched into, so the put keeps running in the background.
        """
        assert self._queue is not None and self._loop is not None
        if not self._queue.full():
            self._queue.put_nowait(group, group.client)
            self._enqueued()
            return None
        put_task = self._loop.create_task(self._queue.put(group, group.client))
        self._background.add(put_task)
        put_task.add_done_callback(self._background.discard)
        put_task.add_done_callback(self._enqueued)
        return asyncio.shield(put_task)

    def _enqueued(self, _put_task: Any = None) -> None:
        """Record the queue depth and pump on the next loop iteration, so
        requests arriving in this one still join the group just queued."""
        assert self._queue is not None
        depth = self._queue.qsize()
        if depth > self._counters["max_queue_depth"]:
            self._counters["max_queue_depth"] = depth
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        """Pump on the next loop iteration, if anything is queued."""
        assert self._loop is not None and self._queue is not None
        if not self._pump_scheduled and not self._queue.empty():
            self._pump_scheduled = True
            self._loop.call_soon(self._pump)

    # ------------------------------------------------------------------
    # Dispatch: a loop-thread pump runs a warm, short group itself and
    # submits any other to the worker pool
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Start queued groups while fewer than ``dispatchers`` run.

        A group whose run is known to fit in the interpreter's switch
        interval runs here, on the loop's thread: a worker would hold the
        interpreter lock for all of it anyway, so the hop there and back
        would buy the loop nothing.  After one such group the pump yields
        the loop, so connections are served between two of them.
        """
        assert self._queue is not None
        self._pump_scheduled = False
        while self._running < self._dispatcher_count and not self._queue.empty():
            group = self._queue.get_nowait()
            # Dequeued: whatever joined while the group waited for a slot
            # is the batch; later arrivals start the next one.
            self._close(group)
            self._running += 1
            self._counters["groups"] += 1
            if len(group.queries) > self._counters["max_group"]:
                self._counters["max_group"] = len(group.queries)
            if self._is_short(group):
                self._counters["inline"] += 1
                self._run_inline(group)
                self._schedule_pump()
                return
            self._to_pool(group)

    def _is_short(self, group: _Group) -> bool:
        """Whether the engine knows *group*'s run to fit in one switch
        interval.  Only single requests' groups have one shape to ask
        about (explicit batches and ``explain`` have none)."""
        return group.shape is not None and self._engine.runs_within(
            group.shape[-1],  # the plan-cache key
            sys.getswitchinterval() / len(group.queries),
        )

    def _run_inline(self, group: _Group) -> None:
        """Run *group* on the loop's thread within one switch interval;
        a run that outlives it stops at its next check-point, having
        recorded nothing, and the group goes to the pool as it is."""
        group.token.set_slice(sys.getswitchinterval())
        try:
            results, error = self._run_group(group), None
        except Exception as exc:  # noqa: BLE001 — delivered to callers
            results, error = None, exc
        finally:
            # Closed before a resubmitted run can start on a worker.
            group.token.set_slice(None)
        if isinstance(error, SliceSpent):
            self._counters["resubmitted"] += 1
            self._to_pool(group)
        else:
            self._finish(group, results, error)

    def _to_pool(self, group: _Group) -> None:
        """Run *group* on the pool; a ``submit`` that raises (a closed
        pool) fails the group and frees its slot."""
        try:
            work = self._pool.submit(self._run_group, group)
        except BaseException as exc:  # noqa: BLE001 — delivered to callers
            self._finish(group, None, exc)
        else:
            work.add_done_callback(partial(self._hand_back, group))

    def _run_group(self, group: _Group) -> List[Any]:
        """Run *group* through the engine (on a worker thread, or inline
        on the loop's)."""
        # Pre-check before any engine work: a request abandoned or expired
        # while queued costs nothing past this line.
        group.token.check()
        # One generic dispatch for every kind: the engine's own operation
        # table decides what runs, so a new operation kind needs no change
        # here.
        kind, options, database = group.kind, group.options, group.database
        members = [Operation(kind, query, options) for query in group.queries]
        previous = swap_token(group.token)
        try:
            if len(members) == 1:
                return [self._engine.run(members[0], database)]
            return self._engine.run_batch(members, database)
        finally:
            swap_token(previous)

    def _hand_back(self, group: _Group, work: "Future[List[Any]]") -> None:
        """*work*'s done-callback, on the worker thread: one hop to the
        loop, which owns every future and counter :meth:`_finish` touches."""
        assert self._loop is not None
        try:
            results, error = work.result(), None
        except BaseException as exc:  # noqa: BLE001 — delivered to callers
            results, error = None, exc
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._finish, group, results, error)

    def _finish(
        self,
        group: _Group,
        results: Optional[List[Any]],
        error: Optional[BaseException],
    ) -> None:
        """Settle *group*'s futures with its *results* or its *error* and
        free its slot, inline and pooled groups alike; the pump runs again
        on the next loop iteration, never from in here."""
        assert self._queue is not None
        self._running -= 1
        self._queue.task_done()
        if error is not None:
            # A failure, or a teardown's typed cancel/deadline error: every
            # waiter still attached receives it and counts its own outcome.
            for future in group.futures:
                if not future.done():
                    future.set_exception(error)
        else:
            assert results is not None
            for future, result in zip(group.futures, results):
                if not future.done():
                    future.set_result(result)
        self._schedule_pump()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("QueryService is closed")

    def _start_if_needed(self) -> None:
        self._ensure_open()
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._queue = FairQueue(maxsize=self._max_pending)
        elif self._loop is not loop:
            raise RuntimeError(
                "QueryService is bound to the event loop that first used "
                "it; create one service per loop"
            )

    async def aclose(self) -> None:
        """Drain the queue, then release owned resources.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            # Once the puts still waiting for room land, the queue holds
            # all outstanding work and ``join`` sees it through.
            await asyncio.gather(*self._background, return_exceptions=True)
            assert self._queue is not None
            await self._queue.join()
        self._pool.close()
        if self._owns_engine:
            self._engine.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        if self._closed:
            state = "closed"
        else:
            state = "idle" if self._loop is None else "serving"
        return (
            f"QueryService({state}, max_pending={self._max_pending}, "
            f"dispatchers={self._dispatcher_count})"
        )
