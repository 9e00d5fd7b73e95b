"""Async query-service front-end over one shared :class:`QueryEngine`.

The production-service layer the ROADMAP's north star asks for: concurrent
callers multiplex onto one engine — one shape table (plans and their
stats), one set of warm kernel indexes — through an ``asyncio``
facade with a bounded request queue, single-flight coalescing of identical
in-flight queries, and batching of same-shape requests that queue up
while every dispatch slot is busy into the engine's N-wide batch lifting.  See
``docs/service.md``.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "ANONYMOUS": "fairness",
        "FairQueue": "fairness",
        "DEFAULT_BATCH_LIMIT": "service",
        "DEFAULT_MAX_PENDING": "service",
        "MAX_TRACKED_CLIENTS": "service",
        "QueryService": "service",
    },
)
