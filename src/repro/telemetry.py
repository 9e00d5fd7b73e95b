"""One stats document from engine to wire: counters as plain dicts.

Every ``stats()`` in the package — :class:`~repro.engine.QueryEngine`,
:class:`~repro.service.QueryService`, the fleet's router and supervisor —
returns a plain JSON-able document, and the wire ``stats`` op sends the
service's document as it is, plus a ``transport`` section.  There is no
snapshot class per layer: a counter set is a dict built from one tuple of
counter names below, and a snapshot is a copy of it.  ``docs/protocol.md``
tables every key with its unit.

Beside the dicts: :func:`quantile` (one definition of a tail latency at
every layer), :class:`LatencyReservoir` (a bounded, locked ring of recent
latencies: the service's per-client rollup, the fleet router's cost
ledger) and :class:`ShapeLedger`, the engine's per-shape ledger —
bounded (LRU on shapes, like the plan cache) and locked, because the
async service records into it from many worker threads.  The engine-wide
totals sit beside the LRU, so an evicted shape never lowers them.
Latencies are observability only: nothing here routes an engine query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Hashable, Iterable, List, Optional

#: How a request that entered the service ends: each counts under one.
OUTCOMES = ("completed", "failed", "cancelled", "deadline_exceeded")

#: One client's counters (an entry of ``QueryService.stats()["clients"]``).
CLIENT_COUNTERS = ("submitted", "coalesced", "batched", "rejected") + OUTCOMES

#: The service's counters (``QueryService.stats()["service"]``).
SERVICE_COUNTERS = CLIENT_COUNTERS + ("groups", "max_queue_depth", "max_group")

#: The plan cache's counters (``QueryEngine.stats()["cache"]``).
CACHE_COUNTERS = ("hits", "misses", "evictions")

#: The engine-wide execution totals (top level of ``QueryEngine.stats()``).
ENGINE_TOTALS = ("executions", "total_seconds", "replans")

#: One shape's counters (an entry of ``QueryEngine.stats()["shapes"]``).
SHAPE_COUNTERS = ENGINE_TOTALS + ("last_seconds",)


def counters(names: Iterable[str]) -> Dict[str, Any]:
    """A fresh counter set: every name at zero."""
    return dict.fromkeys(names, 0)


def quantile(samples: Iterable[float], q: float) -> float:
    """The *q*-quantile of *samples* by linear interpolation (0 if empty)."""
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

    Keeps the last *capacity* observations, so its quantiles track the
    *current* behaviour of a shape or a client rather than the process
    lifetime.  Recorders run on worker threads while readers snapshot
    from wherever they live, hence the lock.
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


class ShapeLedger:
    """Bounded, locked per-shape ledger keyed on plan-cache keys, beside
    the engine-wide totals no eviction lowers."""

    def __init__(self, capacity: int = 512) -> None:
        self._capacity = max(1, capacity)
        #: key → [plan, counters, recent latencies].
        self._shapes: "OrderedDict[Hashable, List[Any]]" = OrderedDict()
        self._totals = counters(ENGINE_TOTALS)
        self._lock = threading.Lock()

    def _entry(self, key: Hashable, plan: Any) -> List[Any]:
        """Get-or-create *key*'s entry (LRU refresh, eviction when full);
        the one path of every mutation.  Caller holds the lock."""
        entry = self._shapes.get(key)
        if entry is None:
            if len(self._shapes) >= self._capacity:
                self._shapes.popitem(last=False)
            shape = {**counters(SHAPE_COUNTERS), "last_rows": None}
            entry = self._shapes[key] = [plan, shape, deque(maxlen=64)]
        else:
            self._shapes.move_to_end(key)
            entry[0] = plan
        return entry

    def record(
        self, key: Hashable, plan: Any, seconds: float, rows: Optional[int]
    ) -> None:
        with self._lock:
            _, shape, latencies = self._entry(key, plan)
            for counts in (shape, self._totals):
                counts["executions"] += 1
                counts["total_seconds"] += seconds
            shape["last_seconds"] = seconds
            if rows is not None:
                shape["last_rows"] = rows
            latencies.append(seconds)

    def note_replan(self, key: Hashable, plan: Any) -> None:
        """Count one adaptive re-plan of *key* (and adopt the new plan)."""
        with self._lock:
            self._entry(key, plan)[1]["replans"] += 1
            self._totals["replans"] += 1

    def snapshot(self) -> Dict[str, Any]:
        """The totals and one row per tracked shape, under one lock."""
        with self._lock:
            rows = [
                {
                    "shape": f"{plan.structural_class}/{plan.evaluator}"
                    f"[{len(plan.join_order)} atom(s)]",
                    "evaluator": plan.evaluator,
                    "structural_class": plan.structural_class,
                    "estimated_rows": plan.estimated_rows,
                    **shape,
                    "mean_seconds": shape["total_seconds"]
                    / max(1, shape["executions"]),
                    "p95_seconds": quantile(latencies, 0.95),
                }
                for plan, shape, latencies in self._shapes.values()
            ]
            return {**self._totals, "shapes": rows}

    def clear(self) -> None:
        with self._lock:
            self._shapes.clear()
            self._totals = counters(ENGINE_TOTALS)
