"""Async query-service front-end over one shared :class:`QueryEngine`.

The production-service layer the ROADMAP's north star asks for: concurrent
callers multiplex onto one engine — one plan cache, one stats ledger, one
set of warm kernel indexes — through an ``asyncio``
facade with a bounded request queue, single-flight coalescing of identical
in-flight queries, and batching of same-shape requests that queue up
behind busy dispatchers into the engine's N-wide batch lifting.  See
``docs/service.md``.
"""

from .fairness import ANONYMOUS, FairQueue
from .service import (
    DEFAULT_BATCH_LIMIT,
    DEFAULT_MAX_PENDING,
    MAX_TRACKED_CLIENTS,
    QueryService,
)

__all__ = [
    "ANONYMOUS",
    "DEFAULT_BATCH_LIMIT",
    "DEFAULT_MAX_PENDING",
    "FairQueue",
    "MAX_TRACKED_CLIENTS",
    "QueryService",
]
