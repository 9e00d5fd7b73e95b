"""Per-shape execution counters: the engine's observability facade.

Production monitoring of a query service wants three things the plan cache
alone cannot answer: which query *shapes* are hot, what they cost
cumulatively, and whether the cache is actually absorbing the planning
work.  ``QueryEngine.stats()`` returns an :class:`EngineStats` snapshot
combining the plan cache's hit/miss/eviction counters with a per-shape
ledger: executions, cumulative and last wall-clock latency, and the last
observed result cardinality next to the planner's estimate (the
estimate-vs-actual drift that triggers re-planning).  Latencies are
observability only: nothing recorded here routes a query.

The ledger is bounded (LRU on shapes, like the plan cache) so a service
executing unboundedly many distinct shapes cannot grow it without limit,
and locked: the async service front-end (:mod:`repro.service`) records
executions from many worker threads into one shared ledger, so every
mutation and every snapshot runs under one internal lock.  ``snapshot``
therefore returns a *consistent* view — shape totals summed from it equal
the number of recorded executions at the moment it was taken.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Hashable, Iterable, Optional, Tuple

from .cache import CacheStats
from .plan import QueryPlan


def quantile(samples: Iterable[float], q: float) -> float:
    """The *q*-quantile of *samples* by linear interpolation (0 if empty).

    Shared by the ledger's per-shape tail latencies and the service
    front-end's per-client rollup — one definition, so a p95 printed by
    ``stats()`` means the same thing at every layer.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    q = min(1.0, max(0.0, q))
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class LatencyReservoir:
    """A bounded, locked ring of recent latency samples.

    Keeps the last *capacity* observations (old ones fall off), so the
    quantiles it reports track the *current* behavior of a shape or a
    client rather than averaging over the process lifetime.  Mutations and
    snapshots are locked — recorders run on worker threads while
    ``stats()`` snapshots from wherever the caller lives.
    """

    __slots__ = ("_samples", "_lock")

    def __init__(self, capacity: int = 128) -> None:
        self._samples: Deque[float] = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def quantile(self, q: float) -> float:
        with self._lock:
            return quantile(self._samples, q)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


@dataclass(frozen=True)
class ShapeStats:
    """Counters for one plan-cache shape (one prepared query)."""

    shape: str
    evaluator: str
    structural_class: str
    executions: int
    total_seconds: float
    last_seconds: float
    estimated_rows: float
    last_rows: Optional[int]
    replans: int = 0
    p95_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.executions if self.executions else 0.0


@dataclass(frozen=True)
class EngineStats:
    """One consistent snapshot of cache counters and the shape ledger."""

    cache: CacheStats
    shapes: Tuple[ShapeStats, ...]

    @property
    def executions(self) -> int:
        return sum(shape.executions for shape in self.shapes)

    @property
    def total_seconds(self) -> float:
        return sum(shape.total_seconds for shape in self.shapes)

    @property
    def replans(self) -> int:
        return sum(shape.replans for shape in self.shapes)

    def summary(self) -> str:
        """Multi-line rendering for logs and the examples."""
        cache = self.cache
        head = (
            f"EngineStats: {self.executions} execution(s), "
            f"{self.total_seconds * 1e3:.2f} ms total; plan cache "
            f"hits={cache.hits} misses={cache.misses} "
            f"evictions={cache.evictions} size={cache.size}/{cache.capacity}"
        )
        if self.replans:
            head += f"; {self.replans} adaptive re-plan(s)"
        lines = [head]
        for shape in sorted(self.shapes, key=lambda s: s.total_seconds, reverse=True):
            actual = "-" if shape.last_rows is None else str(shape.last_rows)
            replans = f" replans={shape.replans}" if shape.replans else ""
            lines.append(
                f"  {shape.shape}: n={shape.executions} "
                f"total={shape.total_seconds * 1e3:.2f}ms "
                f"mean={shape.mean_seconds * 1e3:.3f}ms "
                f"p95={shape.p95_seconds * 1e3:.3f}ms "
                f"last|Q(d)|={actual} est≈{shape.estimated_rows:.3g}{replans}"
            )
        return "\n".join(lines)


class ShapeLedger:
    """Bounded, locked per-shape accumulator keyed on plan-cache keys."""

    def __init__(self, capacity: int = 512) -> None:
        self._capacity = max(1, capacity)
        self._entries: "OrderedDict[Hashable, _ShapeRecord]" = OrderedDict()
        self._lock = threading.Lock()

    def _entry_for(self, key: Hashable, plan: QueryPlan) -> "_ShapeRecord":
        """Get-or-create *key*'s record (LRU refresh, eviction when full).

        Caller holds the lock.  One code path for every mutation, so the
        eviction and recency policy cannot drift between them.
        """
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
            entry = _ShapeRecord(plan)
            self._entries[key] = entry
        else:
            self._entries.move_to_end(key)
            entry.plan = plan
        return entry

    def record(
        self,
        key: Hashable,
        plan: QueryPlan,
        seconds: float,
        rows: Optional[int],
    ) -> None:
        with self._lock:
            entry = self._entry_for(key, plan)
            entry.executions += 1
            entry.total_seconds += seconds
            entry.last_seconds = seconds
            entry.latencies.append(seconds)
            if rows is not None:
                entry.last_rows = rows

    def note_replan(self, key: Hashable, plan: QueryPlan) -> None:
        """Count one adaptive re-plan of *key* (and adopt the new plan)."""
        with self._lock:
            self._entry_for(key, plan).replans += 1

    def snapshot(self) -> Tuple[ShapeStats, ...]:
        with self._lock:
            out = []
            for entry in self._entries.values():
                plan = entry.plan
                out.append(
                    ShapeStats(
                        shape=entry.label(),
                        evaluator=plan.evaluator,
                        structural_class=plan.structural_class,
                        executions=entry.executions,
                        total_seconds=entry.total_seconds,
                        last_seconds=entry.last_seconds,
                        estimated_rows=plan.estimated_rows,
                        last_rows=entry.last_rows,
                        replans=entry.replans,
                        p95_seconds=quantile(entry.latencies, 0.95),
                    )
                )
            return tuple(out)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _ShapeRecord:
    __slots__ = (
        "plan",
        "executions",
        "total_seconds",
        "last_seconds",
        "last_rows",
        "replans",
        "latencies",
    )

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.executions = 0
        self.total_seconds = 0.0
        self.last_seconds = 0.0
        self.last_rows: Optional[int] = None
        self.replans = 0
        # Bounded ring under the ledger's own lock — a plain deque, not a
        # LatencyReservoir, so one lock acquisition covers the whole record.
        self.latencies: Deque[float] = deque(maxlen=64)

    def label(self) -> str:
        plan = self.plan
        return (
            f"{plan.structural_class}/{plan.evaluator}"
            f"[{len(plan.join_order)} atom(s)]"
        )
