"""A lazily started thread pool with an inline fast path.

Query evaluation runs on the thread that took the request: the engine owns
no pool.  This one has two users — :class:`~repro.service.QueryService`
hands it each dispatched group not known to be short through
:meth:`WorkerPool.submit`, so the event loop blocks on no long engine
call, and the off-route sharding
library (``docs/parallel.md``) fans shard tasks out through
:meth:`WorkerPool.map`.

Whether a call fans out is read off its inputs, not set by an option: a
budget of one worker, a task list of length ≤ 1 and a call issued from
inside one of the pool's own tasks all run inline on the calling thread,
and no worker thread exists until a call actually fans out.  The last of
the three makes the pool **re-entrancy safe**: nested fan-out on one
bounded executor would otherwise deadlock, every worker blocking on inner
tasks no free worker can ever pick up (e.g. the level scheduler's
per-parent tasks each issuing sharded semijoins).

Two resilience duties live here as well:

* **Worker-crash recovery** — a broken executor (an injected
  ``pool.worker_crash`` fault raises the :class:`BrokenExecutor` a dead
  worker would) is discarded and the affected tasks are retried **once**:
  a ``submit`` on a fresh executor, a ``map`` inline.  A crash degrades
  throughput instead of failing requests.  ``recoveries`` counts these
  events for stats.
* **Cancel-token propagation** — tasks run under the submitting thread's
  active :class:`~repro.resilience.CancelToken`, so evaluator check-points
  fire inside pool workers too.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..resilience.faults import FaultPlan
from ..resilience.token import current_token, swap_token


def default_worker_count() -> int:
    """Workers matched to the hardware: ``os.cpu_count()`` (at least 1)."""
    return os.cpu_count() or 1


def _completed_future(fn: Callable[..., Any], args: Tuple[Any, ...]) -> "Future[Any]":
    future: "Future[Any]" = Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # noqa: BLE001 — future carries it
        future.set_exception(exc)
    return future


class WorkerPool:
    """Threads behind ``map`` / ``submit``, inline when that cannot help.

    Parameters
    ----------
    max_workers:
        Worker budget.  Defaults to :func:`default_worker_count`; a budget
        of 1 runs every task inline.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted at the
        ``pool.worker_crash`` site before each fan-out.  Defaults to the
        plan in ``$REPRO_FAULTS`` so subprocess servers crash on cue; an
        empty plan is stored as ``None`` and costs nothing.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._max_workers = max_workers if max_workers else default_worker_count()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._local = threading.local()
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self._fault_plan = None if fault_plan.empty else fault_plan
        self._recoveries = 0

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def recoveries(self) -> int:
        """How many broken executors this pool has recovered from."""
        return self._recoveries

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """``[fn(t) for t in tasks]`` in order, fanned out when it can help."""
        items = list(tasks)
        if len(items) <= 1 or self._inline():
            return [fn(item) for item in items]
        try:
            self._inject_crash()
            return list(self._ensure_executor().map(self._as_task(fn), items))
        except BrokenExecutor:
            # Discard the poisoned executor and retry this call's tasks
            # inline, once: degraded throughput, not a failed request.
            self._recover()
            return [fn(item) for item in items]

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Schedule one task, returning its :class:`concurrent.futures.Future`.

        The single-task counterpart of :meth:`map` — what the service feeds
        its request queue into.  A task that runs inline comes back as an
        already-completed future, so callers treat both cases uniformly.
        """
        if self._inline():
            return _completed_future(fn, args)
        try:
            self._inject_crash()
            return self._ensure_executor().submit(self._as_task(fn), *args)
        except BrokenExecutor:
            # The one retry goes to a fresh executor, not the calling
            # thread: for the service that is the event loop.
            self._recover()
            return self._ensure_executor().submit(self._as_task(fn), *args)

    def _inline(self) -> bool:
        return self._max_workers <= 1 or getattr(self._local, "in_task", False)

    def _as_task(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* marked as running inside this pool, under the caller's token."""
        token = current_token()

        def run(*args: Any) -> Any:
            self._local.in_task = True
            previous = swap_token(token)
            try:
                return fn(*args)
            finally:
                swap_token(previous)
                self._local.in_task = False

        return run

    # ------------------------------------------------------------------

    def _inject_crash(self) -> None:
        """Honour a pending ``pool.worker_crash`` fault, if any."""
        if self._fault_plan is None:
            return
        if self._fault_plan.fire("pool.worker_crash") is not None:
            # A thread pool cannot lose a worker to a hard crash without
            # taking the whole process; raise the executor-level symptom
            # the recovery path keys on.
            raise BrokenExecutor("injected worker crash (pool.worker_crash)")

    def _recover(self) -> None:
        with self._executor_lock:
            executor = self._executor
            self._executor = None
            self._recoveries += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        # Double-checked under a lock: the service's dispatchers share one
        # pool, and an unsynchronized check-then-create would let two cold
        # callers build two executors, leaking the loser's worker threads
        # for the process lifetime.
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=self._max_workers,
                        thread_name_prefix="repro-worker",
                    )
        return executor

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        with self._executor_lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        started = "started" if self._executor is not None else "idle"
        return f"WorkerPool(max_workers={self._max_workers}, {started})"
