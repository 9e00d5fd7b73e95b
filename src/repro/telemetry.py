"""One stats document from engine to wire: counters as plain dicts.

Every ``stats()`` in the package — :class:`~repro.engine.QueryEngine`,
:class:`~repro.service.QueryService`, the fleet's router and supervisor —
returns a plain JSON-able document, and the wire ``stats`` op sends the
service's document as it is, plus a ``transport`` section.  There is no
snapshot class per layer: a counter set is a dict built from one tuple of
counter names below, and a snapshot is a copy of it.  ``docs/protocol.md``
tables every key with its unit.

Beside the dicts: :func:`quantile` (one definition of a tail latency at
every layer) and :class:`LatencyReservoir` (a bounded, locked ring of
recent latencies: the service's per-client rollup, the fleet router's
cost ledger).  The engine's per-shape rows and totals live in its shape
table (:mod:`repro.engine.cache`), built from the counter names below.
Latencies never choose a plan: the one thing a shape's recent p95 decides
is which thread of the service runs a warm group (``docs/service.md``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, Sequence

#: How a request that entered the service ends: each counts under one.
OUTCOMES = ("completed", "failed", "cancelled", "deadline_exceeded")

#: One client's counters (an entry of ``QueryService.stats()["clients"]``).
CLIENT_COUNTERS = ("submitted", "coalesced", "batched", "rejected") + OUTCOMES

#: The service's counters (``QueryService.stats()["service"]``).
SERVICE_COUNTERS = CLIENT_COUNTERS + (
    "groups",
    "max_queue_depth",
    "max_group",
    "inline",
    "resubmitted",
)

#: The shape table's lookup counters (``QueryEngine.stats()["cache"]``).
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
    return sorted_quantile(sorted(samples), q)


def sorted_quantile(ordered: Sequence[float], q: float) -> float:
    """:func:`quantile` of samples already in ascending order."""
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
