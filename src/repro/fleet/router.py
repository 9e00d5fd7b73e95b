"""``FleetRouter``: cost-aware routing with failover across the fleet.

Every operation the wire protocol carries is idempotent (queries are
read-only; ``register_database`` installs the same document on replay),
which makes failover safe by construction: if the worker serving a
request dies mid-flight, the request can simply run again on a healthy
replica.  The router turns that property into availability:

* **placement** is least-pending with cost weighting: each in-flight
  request contributes its *estimated cost* to its worker's pending
  score, and a request's cost estimate is the p95 of its shape's recent
  latencies (a :class:`~repro.telemetry.LatencyReservoir` per shape,
  the same arithmetic the engine's ledger uses; unknown shapes count
  1.0).  A worker slogging through an expensive analytical query
  therefore stops attracting cheap point lookups even though its
  *count* of in-flight requests is low;
* **failover** wraps every call in the fleet's
  :class:`~repro.resilience.RetryPolicy`: transport failures discard
  the pooled connection, report the worker to the supervisor (which
  probes and respawns it), and re-route to another replica after the
  policy's backoff.  Structured server errors re-route only when their
  code is transient (``server_busy`` / ``backpressure`` /
  ``shutting_down``) — a parse error fails identically everywhere;
* a spent budget — or a fleet with zero ready workers for the whole
  budget — raises :class:`~repro.errors.FleetDrainedError` carrying the
  attempt count and last underlying failure.

The sync :class:`FleetRouter` is thread-safe (the chaos flood drives it
from many threads at once); :class:`AsyncFleetRouter` is a thin
``asyncio.to_thread`` facade for event-loop callers.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FleetDrainedError, WorkerUnavailableError
from ..operations import Operation, OperationFacade
from ..protocol.client import QueryClient
from ..protocol.messages import query_text
from ..resilience.policy import RetryPolicy
from ..telemetry import LatencyReservoir
from .supervisor import FleetSupervisor

#: Estimated cost of a shape the ledger has not seen yet.
DEFAULT_COST = 1.0

#: Failover budget when the caller does not supply a policy: generous on
#: attempts (a 2-worker fleet mid-respawn needs a few), tight on delay.
DEFAULT_FLEET_RETRY = RetryPolicy(
    max_attempts=8, base_delay=0.02, multiplier=2.0, max_delay=0.5
)


class FleetRouter(OperationFacade):
    """Route operations across a supervised fleet, failing over on death.

    Parameters
    ----------
    supervisor:
        The :class:`~repro.fleet.FleetSupervisor` whose
        :meth:`~repro.fleet.FleetSupervisor.endpoints` is the routing
        table.  The router never spawns processes itself.
    retry:
        Failover budget (``DEFAULT_FLEET_RETRY`` when omitted).
    request_timeout:
        Socket timeout of each pooled worker connection — the bound on
        how long a silently-dead worker can hold one request before the
        typed timeout triggers failover.
    pool_per_worker:
        Idle connections kept per worker endpoint.
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        *,
        retry: Optional[RetryPolicy] = None,
        request_timeout: Optional[float] = 30.0,
        pool_per_worker: int = 8,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._supervisor = supervisor
        self._retry = retry if retry is not None else DEFAULT_FLEET_RETRY
        self._request_timeout = request_timeout
        self._pool_per_worker = max(0, pool_per_worker)
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        #: (worker, port) → idle connections.  Keyed by port as well so a
        #: respawned worker (same index, new port) never inherits stale
        #: sockets; stale keys are swept on every version change.
        self._pools: Dict[Tuple[int, int], List[QueryClient]] = {}
        self._pools_version = -1
        #: worker → summed cost estimates of its in-flight requests.
        self._pending: Dict[int, float] = {}
        #: shape key → recent latencies (the routing cost ledger).
        self._ledger: Dict[str, LatencyReservoir] = {}
        self._routed: Dict[int, int] = {}
        self._failovers = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _cost_of(self, key: str) -> float:
        with self._lock:
            reservoir = self._ledger.get(key)
            if reservoir is None or len(reservoir) == 0:
                return DEFAULT_COST
            return max(reservoir.quantile(0.95), 1e-6)

    def _observe(self, key: str, seconds: float) -> None:
        with self._lock:
            reservoir = self._ledger.get(key)
            if reservoir is None:
                reservoir = self._ledger.setdefault(key, LatencyReservoir())
            reservoir.add(seconds)

    def _pick(self, avoid: Set[int]) -> Tuple[int, str, int]:
        """The ready worker with the least cost-weighted pending load."""
        endpoints = self._supervisor.endpoints()
        if not endpoints:
            raise WorkerUnavailableError("no ready workers in the fleet")
        candidates = [e for e in endpoints if e[0] not in avoid] or endpoints
        with self._lock:
            return min(
                candidates,
                key=lambda e: (self._pending.get(e[0], 0.0), self._routed.get(e[0], 0)),
            )

    # -- connection pool ------------------------------------------------

    def _sweep_pools(self) -> None:
        """Drop pools whose endpoint vanished (respawn, drain, death)."""
        version = self._supervisor.version
        with self._lock:
            if version == self._pools_version:
                return
            live = {(w, p) for w, _, p in self._supervisor.endpoints()}
            stale = [key for key in self._pools if key not in live]
            discarded = [client for key in stale for client in self._pools.pop(key)]
            self._pools_version = version
        for client in discarded:
            client.close()

    def _checkout(self, worker: int, host: str, port: int) -> QueryClient:
        with self._lock:
            pool = self._pools.get((worker, port))
            if pool:
                return pool.pop()
        return QueryClient(host, port, timeout=self._request_timeout)

    def _checkin(self, worker: int, port: int, client: QueryClient) -> None:
        with self._lock:
            if not self._closed:
                pool = self._pools.setdefault((worker, port), [])
                if len(pool) < self._pool_per_worker:
                    pool.append(client)
                    return
        client.close()

    # ------------------------------------------------------------------
    # The failover loop
    # ------------------------------------------------------------------

    def _invoke(self, call: Any, cost_key: str) -> Any:
        """Run ``call(client)`` on the best worker, failing over on death.

        The pending-cost accounting is strictly scoped: the cost is added
        before the call and removed in ``finally`` — a request that dies
        with its worker releases its slot on the spot, so the dead
        worker's score cannot poison placement for the retry.
        """
        if self._closed:
            raise RuntimeError("FleetRouter is closed")
        policy = self._retry
        delays = policy.backoff(self._rng)
        avoid: Set[int] = set()
        last: Optional[BaseException] = None
        cost = self._cost_of(cost_key)
        for attempt in count(1):
            self._sweep_pools()
            try:
                worker, host, port = self._pick(avoid)
            except WorkerUnavailableError as exc:
                last = exc
            else:
                with self._lock:
                    self._pending[worker] = self._pending.get(worker, 0.0) + cost
                    self._routed[worker] = self._routed.get(worker, 0) + 1
                client = None
                try:
                    client = self._checkout(worker, host, port)
                    before = time.monotonic()
                    result = call(client)
                    self._observe(cost_key, time.monotonic() - before)
                    self._checkin(worker, port, client)
                    return result
                except BaseException as exc:  # noqa: BLE001 — classified below
                    if client is not None:
                        client.close()
                    if isinstance(exc, (ConnectionError, OSError)):
                        # The worker, not the request: condemn and avoid.
                        self._supervisor.report_failure(worker)
                        avoid.add(worker)
                        last = WorkerUnavailableError(
                            f"worker {worker} failed: {exc}", worker=worker
                        )
                        last.__cause__ = exc
                    elif policy.retryable(exc):
                        last = exc  # transient structured code: re-route
                    else:
                        raise
                finally:
                    with self._lock:
                        remaining = self._pending.get(worker, 0.0) - cost
                        if remaining > 1e-9:
                            self._pending[worker] = remaining
                        else:
                            self._pending.pop(worker, None)
            with self._lock:
                self._failovers += 1
            delay = next(delays, None)
            if delay is None:
                raise FleetDrainedError(
                    f"fleet request failed after {attempt} attempt(s): {last}",
                    attempts=attempt,
                    last_error=last,
                ) from last
            time.sleep(delay)

    # ------------------------------------------------------------------
    # The facade: generic run/run_batch (per-kind: OperationFacade)
    # ------------------------------------------------------------------

    def run(
        self,
        operation: Operation,
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> Any:
        """Run one :class:`~repro.operations.Operation` somewhere healthy."""
        operation.validate()
        key = f"{operation.kind}:{query_text(operation.query)}"
        return self._invoke(
            lambda client: client.run(operation, database, deadline=deadline), key
        )

    def run_batch(
        self,
        operations: Sequence[Operation],
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Run a batch as one wire request (whole batch fails over together)."""
        operations = list(operations)
        for operation in operations:
            operation.validate()
        key = "batch:" + "|".join(
            f"{op.kind}:{query_text(op.query)}" for op in operations
        )
        return self._invoke(
            lambda client: client.run_batch(operations, database, deadline=deadline),
            key,
        )

    def register_database(self, name: str, database: Any) -> List[int]:
        """Install *database* fleet-wide (broadcast + replay on respawn)."""
        return self._supervisor.register_database(name, database)

    # ------------------------------------------------------------------

    def pending(self) -> Dict[int, float]:
        """Cost-weighted in-flight load per worker (empty when idle)."""
        with self._lock:
            return dict(self._pending)

    def stats(self) -> Dict[str, Any]:
        """Routing counters; per-worker maps are keyed by the worker index
        as a string, so the document survives a JSON round trip."""
        with self._lock:
            return {
                "routed": {str(w): n for w, n in self._routed.items()},
                "pending": {str(w): cost for w, cost in self._pending.items()},
                "failovers": self._failovers,
                "ledger_shapes": len(self._ledger),
                "pooled_connections": sum(len(p) for p in self._pools.values()),
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            discarded = [c for pool in self._pools.values() for c in pool]
            self._pools.clear()
        for client in discarded:
            client.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncFleetRouter(OperationFacade):
    """Asyncio facade over :class:`FleetRouter`.

    Each call runs the blocking router on a worker thread
    (``asyncio.to_thread``), so an event-loop application can fan many
    concurrent requests across the fleet — the sync router underneath is
    thread-safe and does the placement/failover work.
    """

    def __init__(self, router: FleetRouter) -> None:
        self._router = router

    async def run(
        self,
        operation: Operation,
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> Any:
        return await asyncio.to_thread(
            self._router.run, operation, database, deadline=deadline
        )

    async def run_batch(
        self,
        operations: Sequence[Operation],
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        return await asyncio.to_thread(
            self._router.run_batch, operations, database, deadline=deadline
        )

    async def register_database(self, name: str, database: Any) -> List[int]:
        return await asyncio.to_thread(
            self._router.register_database, name, database
        )

    async def aclose(self) -> None:
        await asyncio.to_thread(self._router.close)

    async def __aenter__(self) -> "AsyncFleetRouter":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


__all__ = ["AsyncFleetRouter", "DEFAULT_COST", "DEFAULT_FLEET_RETRY", "FleetRouter"]
