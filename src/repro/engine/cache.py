"""An LRU cache for query plans.

Parameterized workloads — the same query shape executed under many constant
bindings, the bread and butter of a production query service — pay the
analyzer and cost model once: the cache key (:func:`plan_cache_key`)
canonicalizes variable names and erases constant values, so every binding
of one prepared statement maps to the same entry.  Eviction is
least-recently-used with a fixed capacity; hit / miss / eviction counters
are exposed for tests, ``QueryEngine.explain`` and ``QueryEngine.stats``.

Thread safety: one ``QueryEngine`` (and hence one plan cache) is shared by
every concurrent caller of the async service front-end
(:mod:`repro.service`), so all structural mutation — the recency reordering
inside ``get``, insertion/eviction inside ``put``, counter updates — runs
under one internal lock.  The lock is never held while planning: two
threads missing the same shape may both plan it.  Cold misses publish
through ``put_if_absent`` (first plan wins, both threads adopt it), while
adaptive re-planning publishes through ``put`` (the corrected plan must
replace the drifted one).  First-wins matters since plans started carrying
correction state: a stale cold plan racing a corrected one must never
clobber it, or the re-plan budget would silently reset.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from ..telemetry import CACHE_COUNTERS, counters


class PlanCache:
    """A bounded, thread-safe mapping from plan-cache keys to plans (LRU)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._counts = counters(CACHE_COUNTERS)

    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached plan for *key*, refreshing its recency; None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counts["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._counts["hits"] += 1
            return entry

    def put(self, key: Hashable, plan: Any) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = plan
                return
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                self._counts["evictions"] += 1
            self._entries[key] = plan

    def put_if_absent(self, key: Hashable, plan: Any) -> Any:
        """Insert *key* unless present; return the winning (cached) plan.

        The cold-miss publication path: when two threads planned one
        shape concurrently, the first insert wins and both adopt it — and
        a plan already in the cache (possibly carrying re-plan
        corrections) is never overwritten by a late stale one.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                self._counts["evictions"] += 1
            self._entries[key] = plan
            return plan

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached plan for *key* without touching recency or counters.

        Internal bookkeeping reads (drift checks before a re-plan) use this
        so observability counters keep meaning "caller lookups".
        """
        with self._lock:
            return self._entries.get(key)

    def invalidate(self, key: Hashable) -> bool:
        """Drop *key*'s entry (re-planning); True when something was removed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._counts = counters(CACHE_COUNTERS)

    def stats(self) -> Dict[str, Any]:
        """Counters since construction (or the last ``clear``), with the
        current size and the capacity."""
        with self._lock:
            return {
                **self._counts,
                "size": len(self._entries),
                "capacity": self._capacity,
            }
