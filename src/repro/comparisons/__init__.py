"""Comparison constraints: consistency, equality collapse, Theorem 3 setting."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "CollapseResult": "collapse",
        "collapse_equalities": "collapse",
        "is_acyclic_with_comparisons": "collapse",
        "check_consistency": "consistency",
        "is_consistent": "consistency",
        "strongly_connected_components": "consistency",
        "Arc": "constraints",
        "ConstraintGraph": "constraints",
    },
)
