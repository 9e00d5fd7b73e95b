"""``FleetRouter``: least-pending routing with failover across the fleet.

Every operation the wire protocol carries is idempotent (queries are
read-only; ``register_database`` installs the same document on replay),
which makes failover safe by construction: if the worker serving a
request dies mid-flight, the request can simply run again on a healthy
replica.  The router turns that property into availability:

* **placement** picks the ready worker with the fewest in-flight
  requests, and on a tie the one routed fewer times so far.  A worker
  slogging through an expensive query keeps its slot until the answer
  is back, so new requests go to its peers meanwhile;
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

:class:`FleetRouter` is thread-safe (the chaos flood drives it from many
threads at once); event-loop callers run it on a thread with
``await asyncio.to_thread(router.run, operation, database)``.
"""

from __future__ import annotations

import random
import threading
import time
from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FleetDrainedError, WorkerUnavailableError
from ..operations import Operation, OperationFacade
from ..protocol.client import QueryClient
from ..resilience.policy import RetryPolicy
from .supervisor import FleetSupervisor

#: Socket timeout of each pooled worker connection: the bound on how long
#: a silently-dead worker can hold one request before the typed timeout
#: triggers failover.
REQUEST_TIMEOUT = 30.0
#: Idle connections kept per worker endpoint.
POOL_PER_WORKER = 8
#: Jitter source of the failover delays.
_JITTER = random.Random()

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
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._supervisor = supervisor
        self._retry = retry if retry is not None else DEFAULT_FLEET_RETRY
        self._lock = threading.Lock()
        #: (worker, port) → idle connections.  Keyed by port as well so a
        #: respawned worker (same index, new port) never inherits stale
        #: sockets; stale keys are swept on every version change.
        self._pools: Dict[Tuple[int, int], List[QueryClient]] = {}
        self._pools_version = -1
        #: worker → its in-flight requests.
        self._pending: Dict[int, int] = {}
        self._routed: Dict[int, int] = {}
        self._failovers = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _pick(self, avoid: Set[int]) -> Tuple[int, str, int]:
        """The ready worker with the fewest in-flight requests."""
        endpoints = self._supervisor.endpoints()
        if not endpoints:
            raise WorkerUnavailableError("no ready workers in the fleet")
        candidates = [e for e in endpoints if e[0] not in avoid] or endpoints
        with self._lock:
            return min(
                candidates,
                key=lambda e: (self._pending.get(e[0], 0), self._routed.get(e[0], 0)),
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
        return QueryClient(host, port, timeout=REQUEST_TIMEOUT)

    def _checkin(self, worker: int, port: int, client: QueryClient) -> None:
        with self._lock:
            if not self._closed:
                pool = self._pools.setdefault((worker, port), [])
                if len(pool) < POOL_PER_WORKER:
                    pool.append(client)
                    return
        client.close()

    # ------------------------------------------------------------------
    # The failover loop
    # ------------------------------------------------------------------

    def _invoke(self, call: Any) -> Any:
        """Run ``call(client)`` on the best worker, failing over on death.

        The in-flight accounting is strictly scoped: the slot is taken
        before the call and released in ``finally`` — a request that dies
        with its worker releases its slot on the spot, so the dead
        worker's count cannot poison placement for the retry.
        """
        if self._closed:
            raise RuntimeError("FleetRouter is closed")
        policy = self._retry
        delays = policy.backoff(_JITTER)
        avoid: Set[int] = set()
        last: Optional[BaseException] = None
        for attempt in count(1):
            self._sweep_pools()
            try:
                worker, host, port = self._pick(avoid)
            except WorkerUnavailableError as exc:
                last = exc
            else:
                with self._lock:
                    self._pending[worker] = self._pending.get(worker, 0) + 1
                    self._routed[worker] = self._routed.get(worker, 0) + 1
                client = None
                try:
                    client = self._checkout(worker, host, port)
                    result = call(client)
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
                        remaining = self._pending[worker] - 1
                        if remaining:
                            self._pending[worker] = remaining
                        else:
                            del self._pending[worker]
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
        return self._invoke(
            lambda client: client.run(operation, database, deadline=deadline)
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
        return self._invoke(
            lambda client: client.run_batch(operations, database, deadline=deadline)
        )

    def register_database(self, name: str, database: Any) -> List[int]:
        """Install *database* fleet-wide (broadcast + replay on respawn)."""
        return self._supervisor.register_database(name, database)

    # ------------------------------------------------------------------

    def pending(self) -> Dict[int, int]:
        """In-flight requests per worker (empty when idle)."""
        with self._lock:
            return dict(self._pending)

    def stats(self) -> Dict[str, Any]:
        """Routing counters; per-worker maps are keyed by the worker index
        as a string, so the document survives a JSON round trip."""
        with self._lock:
            return {
                "routed": {str(w): n for w, n in self._routed.items()},
                "pending": {str(w): n for w, n in self._pending.items()},
                "failovers": self._failovers,
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


__all__ = ["DEFAULT_FLEET_RETRY", "FleetRouter"]
