"""Async query-service front-end over one shared :class:`QueryEngine`.

The production-service layer the ROADMAP's north star asks for: concurrent
callers multiplex onto one engine — one shape table (plans and their
stats), one set of warm kernel indexes — through an ``asyncio``
facade with a bounded request queue, single-flight coalescing of identical
in-flight queries, and batching of same-shape requests that queue up
while every dispatch slot is busy into the engine's N-wide batch lifting.  See
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
