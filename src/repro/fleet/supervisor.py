"""``FleetSupervisor``: N worker server subprocesses, kept alive.

Each worker is the unmodified PR 5 server executable —
``python -m repro.protocol.server --port 0 --database NAME=PATH`` — so
everything the single-server stack already guarantees (structured
errors, fairness lanes, graceful SIGTERM drain) holds per worker; the
supervisor's job is purely *process* lifecycle:

* **spawn** each worker on a free port and read its
  ``QUERYSERVER READY host=... port=...`` handshake (with a deadline —
  a worker that never reports is killed and counted as a failed start);
* **probe** live workers every :data:`PROBE_INTERVAL` seconds with a
  wire ``ping`` on a short timeout; :data:`PROBE_FAILURES` consecutive
  misses condemn the worker even when its process is technically alive
  (a hung event loop looks exactly like this);
* **respawn** crashed workers with capped exponential backoff: crash *k*
  among the crashes of the last :data:`FLAP_WINDOW` seconds waits
  ``min(backoff_base * 2^(k-1), backoff_cap)`` — old crashes stop
  counting, and a worker that can never start settles at one attempt per
  ``backoff_cap`` seconds.  Each due respawn runs on a thread of its own,
  so one slow start holds up neither another slot's respawn nor the
  probes; a dead worker's last stderr line (the server's one-line
  ``QUERYSERVER ERROR: …`` when it cannot load a database) is its slot's
  ``last_error`` until the next READY;
* **replay registrations**: databases installed at runtime via
  :meth:`register_database` are re-sent to every respawned worker
  before it is marked routable, so the whole fleet always serves the
  same catalog.

The routing table is :meth:`endpoints` — the ready workers' addresses
plus a monotonically increasing :attr:`version` the router uses to
invalidate its connection pools cheaply.

Fault sites (chaos suite, see :mod:`repro.resilience.faults`):
``fleet.worker_kill`` SIGKILLs the worker about to be probed,
``fleet.slow_start`` delays a spawn, ``fleet.ready_timeout`` treats a
fresh worker as if it never reported ready.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..protocol.client import QueryClient
from ..protocol.messages import encode_database
from ..resilience.faults import FaultPlan

#: Seconds between liveness rounds of the monitor.
PROBE_INTERVAL = 0.25
#: Seconds a wire ``ping`` (or a registration replay) has to answer.
PROBE_TIMEOUT = 2.0
#: Consecutive missed probes that condemn a live-looking worker.
PROBE_FAILURES = 3
#: Seconds a fresh worker has to print its READY handshake.
READY_TIMEOUT = 60.0
#: Seconds a crash counts towards the respawn backoff.
FLAP_WINDOW = 30.0

#: Worker slot states.
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
BACKOFF = "backoff"
STOPPED = "stopped"


class _Worker:
    """One supervised slot: the subprocess plus its lifecycle state."""

    __slots__ = (
        "index",
        "process",
        "host",
        "port",
        "state",
        "restarts",
        "crash_times",
        "probe_failures",
        "backoff_until",
        "last_error",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.state = STOPPED
        self.restarts = 0
        self.crash_times: Deque[float] = deque()
        self.probe_failures = 0
        self.backoff_until = 0.0
        #: The last stderr line of the slot's last dead process; cleared
        #: on READY.
        self.last_error: Optional[str] = None


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with this ``repro`` importable.

    The supervisor may run from a source checkout (``PYTHONPATH=src``)
    or an installed package; either way the package directory's parent
    is prepended so the worker resolves the same code.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    return env


class FleetSupervisor:
    """Spawn, probe, and respawn a fleet of query-server workers.

    Parameters
    ----------
    databases:
        ``{name: path}`` of database JSON files every worker serves from
        birth (the ``--database`` flags of the server CLI).  Databases
        installed later via :meth:`register_database` are replayed onto
        respawns.
    workers:
        Fleet size (≥ 1).
    backoff_base / backoff_cap:
        Respawn backoff: crash *k* (of the crashes within
        :data:`FLAP_WINDOW` seconds) waits ``backoff_base * 2**(k-1)``
        seconds, capped at ``backoff_cap``.
    fault_plan:
        Chaos injection at the ``fleet.*`` sites; the plan is *also*
        exported to each worker's ``REPRO_FAULTS`` only when the caller
        already set that variable — worker-side sites travel by
        environment exactly as in the resilience suite.
    """

    def __init__(
        self,
        databases: Mapping[str, str],
        *,
        workers: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not databases:
            raise ValueError("a fleet needs at least one database to serve")
        self._databases = dict(databases)
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._faults = fault_plan if fault_plan is not None else FaultPlan()

        self._lock = threading.RLock()
        self._workers = [_Worker(index) for index in range(workers)]
        self._registered: Dict[str, Dict[str, Any]] = {}
        self._version = 0
        self._started = False
        self._closed = False
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        #: Respawn threads the monitor started (pruned as they finish).
        self._spawns: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        """Spawn every worker, wait for all handshakes, start monitoring."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise RuntimeError("FleetSupervisor is closed")
            self._started = True
        for worker in self._workers:
            self._spawn(worker)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def close(self) -> None:
        """Stop monitoring and drain every worker (SIGTERM, then SIGKILL).

        No process starts once the supervisor is closed; a worker still
        starting is killed, which ends its respawn thread's wait for READY.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            starting = [w for w in self._workers if w.state == STARTING]
        self._stop.set()
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=30)
        for worker in starting:
            self._kill(worker)
        for thread in self._spawns:
            thread.join(timeout=30)
        for worker in self._workers:
            self._terminate(worker, grace=10.0)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing surface
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped on every membership change (router cache invalidation)."""
        with self._lock:
            return self._version

    def endpoints(self) -> List[Tuple[int, str, int]]:
        """``(worker, host, port)`` of every currently-ready worker."""
        with self._lock:
            return [
                (worker.index, worker.host, worker.port)
                for worker in self._workers
                if worker.state == READY
                and worker.host is not None
                and worker.port is not None
            ]

    def report_failure(self, worker_index: int) -> None:
        """A router saw a transport failure on *worker_index*.

        The worker is condemned immediately when its process is gone —
        the router's next :meth:`endpoints` call already excludes it —
        and the monitor is woken either way to probe and respawn without
        waiting out the probe interval.
        """
        with self._lock:
            if not 0 <= worker_index < len(self._workers):
                return
            worker = self._workers[worker_index]
            if worker.state == READY:
                process = worker.process
                if process is not None and process.poll() is not None:
                    self._on_crash(worker)
                else:
                    # Alive-but-failing: count it like a missed probe so
                    # repeated reports condemn a wedged worker.
                    worker.probe_failures += 1
                    if worker.probe_failures >= PROBE_FAILURES:
                        self._kill(worker)
                        self._on_crash(worker)
        self._wake.set()

    def register_database(self, name: str, database: Any) -> List[int]:
        """Install *database* under *name* on every live worker.

        Accepts a :class:`~repro.relational.database.Database` or an
        already-encoded document dict.  The document is recorded and
        replayed onto every future respawn, so the fleet's catalog stays
        uniform across crashes.  Returns the indices of the workers that
        acknowledged; workers that fail the broadcast are reported as
        failures (the replay-on-respawn path heals them).
        """
        document = database if isinstance(database, dict) else encode_database(database)
        with self._lock:
            self._registered[name] = document
            targets = [
                (worker.index, worker.host, worker.port)
                for worker in self._workers
                if worker.state == READY
            ]
        acknowledged: List[int] = []
        for index, host, port in targets:
            try:
                with QueryClient(host, port, timeout=PROBE_TIMEOUT) as client:
                    client.register_database(name, document)
                acknowledged.append(index)
            except (ConnectionError, OSError):
                self.report_failure(index)
        return acknowledged

    def stats(self) -> Dict[str, Any]:
        """Fleet-level counters plus one row per worker slot."""
        with self._lock:
            now = time.monotonic()
            rows = []
            for worker in self._workers:
                self._trim_crashes(worker, now)
                process = worker.process
                rows.append(
                    {
                        "worker": worker.index,
                        "state": worker.state,
                        "pid": process.pid if process is not None else None,
                        "port": worker.port,
                        "restarts": worker.restarts,
                        "recent_crashes": len(worker.crash_times),
                        "probe_failures": worker.probe_failures,
                        "last_error": worker.last_error,
                    }
                )
            return {
                "workers": rows,
                "ready": sum(1 for row in rows if row["state"] == READY),
                "version": self._version,
                "registered_databases": sorted(self._registered),
            }

    def rolling_restart(self) -> None:
        """Drain and replace workers one at a time (capacity ≥ N-1).

        Each worker is marked draining (the router stops picking it),
        SIGTERMed — the server's own graceful drain flushes in-flight
        requests — and respawned before the next worker is touched.
        """
        for worker in self._workers:
            with self._lock:
                if worker.state != READY:
                    continue
                worker.state = DRAINING
                self._version += 1
            self._terminate(worker, grace=30.0)
            self._spawn(worker)

    # ------------------------------------------------------------------
    # Spawning and the READY handshake
    # ------------------------------------------------------------------

    def _command(self) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro.protocol.server",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
        ]
        for name, path in sorted(self._databases.items()):
            command += ["--database", f"{name}={path}"]
        return command

    def _spawn(self, worker: _Worker) -> None:
        fault = self._faults.fire("fleet.slow_start")
        if fault is not None and fault.delay > 0:
            self._stop.wait(fault.delay)
        with self._lock:
            # Started under the lock, so ``close`` either sees the process
            # or this spawn sees the supervisor closed.
            if self._closed:
                return
            worker.state = STARTING
            worker.probe_failures = 0
            worker.host = None
            worker.port = None
            process = worker.process = subprocess.Popen(
                self._command(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=_worker_env(),
            )
        try:
            host, port = self._await_ready(worker, process)
        except (TimeoutError, RuntimeError):
            # Silent, exited before READY (e.g. an unloadable database
            # file: a config-level failure that backs off like any crash
            # until the config is fixed), or a wrong handshake.
            self._kill(worker)
            with self._lock:
                self._on_crash(worker)
            return
        self._replay_registered(worker, host, port)

    def _await_ready(
        self, worker: _Worker, process: subprocess.Popen
    ) -> Tuple[str, int]:
        line = self._read_line(process, READY_TIMEOUT)
        if line is None:
            raise TimeoutError("worker never printed READY")
        if self._faults.fire("fleet.ready_timeout") is not None:
            raise TimeoutError("injected fleet.ready_timeout")
        if not line.startswith("QUERYSERVER READY"):
            raise RuntimeError(f"unexpected handshake: {line!r}")
        host = line.rsplit("host=", 1)[1].split()[0]
        port = int(line.rsplit("port=", 1)[1])
        return host, port

    @staticmethod
    def _read_line(process: subprocess.Popen, timeout: float) -> Optional[str]:
        """One stdout line from *process*, or None on deadline/exit.

        Reads the raw pipe fd under ``select`` so a silent worker cannot
        block the supervisor past the deadline.
        """
        assert process.stdout is not None
        fd = process.stdout.fileno()
        deadline = time.monotonic() + timeout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            readable, _, _ = select.select([fd], [], [], min(remaining, 0.25))
            if not readable:
                if process.poll() is not None:
                    return None
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                return None  # EOF before a full line: the worker died
            buffer += chunk
        return buffer.split(b"\n", 1)[0].decode("utf-8", "replace")

    def _replay_registered(self, worker: _Worker, host: str, port: int) -> None:
        """Re-send runtime registrations, then mark the worker routable."""
        with self._lock:
            registered = list(self._registered.items())
        try:
            if registered:
                with QueryClient(host, port, timeout=PROBE_TIMEOUT) as client:
                    for name, document in registered:
                        client.register_database(name, document)
        except (ConnectionError, OSError):
            self._kill(worker)
            with self._lock:
                self._on_crash(worker)
            return
        with self._lock:
            worker.host = host
            worker.port = port
            worker.state = READY
            worker.probe_failures = 0
            worker.last_error = None
            self._version += 1

    # ------------------------------------------------------------------
    # Monitoring, crashes, and the respawn backoff
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(PROBE_INTERVAL)
            self._wake.clear()
            if self._stop.is_set():
                return
            probe: List[Tuple[_Worker, str, int]] = []
            with self._lock:
                now = time.monotonic()
                self._spawns = [t for t in self._spawns if t.is_alive()]
                for worker in self._workers:
                    if worker.state == READY:
                        if self._check_ready(worker):
                            probe.append((worker, worker.host, worker.port))
                    elif worker.state == BACKOFF and now >= worker.backoff_until:
                        self._respawn(worker)
            # Pings run OUTSIDE the lock: a slow probe must never stall
            # the router's endpoints() snapshot.
            for worker, host, port in probe:
                alive = self._ping(host, port)
                with self._lock:
                    if worker.state != READY:
                        continue  # crashed/drained while we probed
                    if alive:
                        worker.probe_failures = 0
                    else:
                        worker.probe_failures += 1
                        if worker.probe_failures >= PROBE_FAILURES:
                            self._kill(worker)
                            self._on_crash(worker)

    def _respawn(self, worker: _Worker) -> None:
        """Spawn *worker* on a thread of its own (called under the lock):
        a slow start holds up no other slot and no probe."""
        # Marked before the thread runs, so the next round leaves it be.
        worker.state = STARTING
        thread = threading.Thread(
            target=self._spawn,
            args=(worker,),
            name=f"fleet-spawn-{worker.index}",
            daemon=True,
        )
        self._spawns.append(thread)
        thread.start()

    def _check_ready(self, worker: _Worker) -> bool:
        """Process-level liveness (under the lock); True when a wire
        probe is still warranted."""
        process = worker.process
        if process is None or process.poll() is not None:
            self._on_crash(worker)
            return False
        if self._faults.fire("fleet.worker_kill") is not None:
            self._kill(worker)
            self._on_crash(worker)
            return False
        return worker.host is not None and worker.port is not None

    def _ping(self, host: str, port: int) -> bool:
        try:
            with QueryClient(host, port, timeout=PROBE_TIMEOUT) as client:
                return client.ping()
        except (ConnectionError, OSError):
            return False

    @staticmethod
    def _trim_crashes(worker: _Worker, now: float) -> None:
        while worker.crash_times and now - worker.crash_times[0] > FLAP_WINDOW:
            worker.crash_times.popleft()

    def _on_crash(self, worker: _Worker) -> None:
        """Record a crash and schedule the respawn (called under the lock)."""
        now = time.monotonic()
        self._trim_crashes(worker, now)
        worker.crash_times.append(now)
        worker.restarts += 1
        worker.probe_failures = 0
        worker.state = BACKOFF
        recent = len(worker.crash_times)
        delay = min(self._backoff_base * 2 ** (recent - 1), self._backoff_cap)
        worker.backoff_until = now + delay
        self._version += 1
        worker.last_error = self._drain_pipes(worker)

    @staticmethod
    def _drain_pipes(worker: _Worker) -> Optional[str]:
        """Close a dead worker's pipes so fds don't accumulate; the last
        line it wrote to stderr, if any."""
        process = worker.process
        if process is None:
            return None
        last = None
        if process.stderr is not None and not process.stderr.closed:
            try:
                lines = process.stderr.read().decode("utf-8", "replace").splitlines()
            except (OSError, ValueError):
                lines = []
            last = next((line.strip() for line in reversed(lines) if line.strip()), None)
        for stream in (process.stdout, process.stderr):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        return last

    def _kill(self, worker: _Worker) -> None:
        process = worker.process
        if process is not None and process.poll() is None:
            process.kill()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                pass

    def _terminate(self, worker: _Worker, grace: float) -> None:
        """SIGTERM (graceful drain) with a SIGKILL fallback."""
        process = worker.process
        with self._lock:
            worker.state = STOPPED
            self._version += 1
        if process is None or process.poll() is not None:
            self._drain_pipes(worker)
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
        self._drain_pipes(worker)


__all__ = ["FleetSupervisor"]
