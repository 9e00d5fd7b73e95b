"""The shape table: everything the engine learns about a query shape.

The work that depends on the query alone — structure analysis and
planning — is paid once per *shape* and kept here, keyed on
:func:`~repro.engine.analysis.plan_cache_key` (variable names
canonicalized, constant values erased, so every binding of one prepared
statement maps to one entry).  Each entry holds the shape's current plan,
its execution counters and its recent latencies; beside the entries sit
the lookup counters (hits / misses / evictions) and the engine-wide
totals, so an evicted shape never lowers a total.  One LRU bound covers
it all: a plan is evicted together with its row.

The table also applies the adaptive re-planning rule: ``record`` compares
an observed cardinality with the entry's current plan and hands that plan
back when the two drift :data:`DEFAULT_REPLAN_DRIFT`× apart; the engine
re-plans with the observation as corrected statistics, and ``replace``
adopts the corrected plan only if the entry still holds the stale one —
so concurrent recorders of one drift count one re-plan.

Thread safety: one ``QueryEngine`` (and hence one table) is shared by
every worker thread of the async service (:mod:`repro.service`), so every
read-modify-write runs under the table's one lock.  The lock is never
held while planning: two threads missing one shape may both plan it, and
``publish`` keeps the first plan (both adopt it), so a late cold plan
never clobbers a correction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Hashable, Optional

from ..telemetry import (
    CACHE_COUNTERS,
    ENGINE_TOTALS,
    SHAPE_COUNTERS,
    counters,
    quantile,
)
from .plan import QueryPlan

#: Estimate-vs-actual cardinality ratio at which a shape is re-planned with
#: the observed row count as corrected statistics.
DEFAULT_REPLAN_DRIFT = 10.0

#: Most re-plans one shape entry may accumulate.  A stable workload
#: corrects once and settles; a workload whose parameterizations genuinely
#: oscillate ≥ drift× (hub vs leaf constants under one shape) would
#: otherwise re-plan on *every* execution, turning the table into a
#: per-request planner on exactly the parameterized hot path it exists
#: for.  The cap bounds that waste; a data-scale change re-keys the shape
#: (schema signature) and starts a fresh entry with a fresh budget.
DEFAULT_REPLAN_LIMIT = 5

#: Recent latencies kept per shape (its ``p95_seconds``).
_LATENCY_WINDOW = 64


class Shape:
    """One entry: the shape's current plan, counters and recent latencies.

    Only the table mutates an entry, under its lock; the engine reads
    ``plan`` (replaced whole, never changed in place) and, for
    ``explain``, the counters.
    """

    __slots__ = ("plan", "counts", "latencies")

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.counts: Dict[str, Any] = {**counters(SHAPE_COUNTERS), "last_rows": None}
        self.latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)

    def row(self) -> Dict[str, Any]:
        """This shape's row of ``QueryEngine.stats()["shapes"]``."""
        plan = self.plan
        return {
            "shape": f"{plan.structural_class}/{plan.evaluator}"
            f"[{len(plan.join_order)} atom(s)]",
            "evaluator": plan.evaluator,
            "structural_class": plan.structural_class,
            "estimated_rows": plan.estimated_rows,
            **self.counts,
            "mean_seconds": self.counts["total_seconds"]
            / max(1, self.counts["executions"]),
            "p95_seconds": quantile(self.latencies, 0.95),
        }


def _drifted(plan: QueryPlan, rows: int) -> bool:
    """Whether *rows* is ≥ drift× off *plan*'s estimate (either way) and
    the plan still has re-plan budget."""
    if plan.replans >= DEFAULT_REPLAN_LIMIT:
        return False
    actual = max(float(rows), 1.0)
    expected = max(plan.estimated_rows, 1.0)
    return max(actual / expected, expected / actual) >= DEFAULT_REPLAN_DRIFT


class ShapeTable:
    """A bounded (LRU), locked map from plan-cache keys to :class:`Shape`
    entries, with the lookup counters and the engine totals beside it."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Shape]" = OrderedDict()
        self._lock = threading.Lock()
        self._counts = counters(CACHE_COUNTERS)
        self._totals = counters(ENGINE_TOTALS)

    def get(self, key: Hashable) -> Optional[Shape]:
        """*key*'s entry, refreshing its recency; None on a miss.  Counts
        one hit or one miss."""
        with self._lock:
            shape = self._entries.get(key)
            if shape is None:
                self._counts["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._counts["hits"] += 1
            return shape

    def publish(self, key: Hashable, plan: QueryPlan) -> Shape:
        """Enter a cold *plan* for *key* unless an entry is already there
        (the first plan published wins); return the entry.  Evicts the
        least recently used entry when full."""
        with self._lock:
            shape = self._entries.get(key)
            if shape is None:
                if len(self._entries) >= self._capacity:
                    self._entries.popitem(last=False)
                    self._counts["evictions"] += 1
                shape = self._entries[key] = Shape(plan)
            return shape

    def record(
        self, key: Hashable, seconds: float, rows: Optional[int]
    ) -> Optional[QueryPlan]:
        """Count one execution of *key* (*rows* is None for decision-only
        runs); return the entry's plan when *rows* drifted far enough from
        its estimate to re-plan, else None."""
        with self._lock:
            self._totals["executions"] += 1
            self._totals["total_seconds"] += seconds
            shape = self._entries.get(key)
            if shape is None:  # evicted while it ran: the totals still count
                return None
            counts = shape.counts
            counts["executions"] += 1
            counts["total_seconds"] += seconds
            counts["last_seconds"] = seconds
            shape.latencies.append(seconds)
            if rows is None:
                return None
            counts["last_rows"] = rows
            plan = shape.plan
        return plan if _drifted(plan, rows) else None

    def replace(self, key: Hashable, stale: QueryPlan, plan: QueryPlan) -> bool:
        """Adopt the re-plan *plan* if *key*'s entry still holds *stale*,
        counting one re-plan; False when another thread got there first
        or the entry is gone."""
        with self._lock:
            shape = self._entries.get(key)
            if shape is None or shape.plan is not stale:
                return False
            shape.plan = plan
            shape.counts["replans"] += 1
            self._totals["replans"] += 1
            return True

    def clear(self) -> None:
        """Drop every entry and reset every counter."""
        with self._lock:
            self._entries.clear()
            self._counts = counters(CACHE_COUNTERS)
            self._totals = counters(ENGINE_TOTALS)

    def stats(self, shapes: bool = True) -> Dict[str, Any]:
        """The totals, one row per entry (unless *shapes* is false) and the
        lookup counters, under one lock: the ``engine`` section of the
        wire ``stats`` document."""
        with self._lock:
            rows = [shape.row() for shape in self._entries.values()] if shapes else []
            return {
                **self._totals,
                "shapes": rows,
                "cache": {
                    **self._counts,
                    "size": len(self._entries),
                    "capacity": self._capacity,
                },
            }
