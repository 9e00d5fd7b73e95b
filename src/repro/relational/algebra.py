"""Relational division, the one derived operator beyond ``Relation``'s own.

The :class:`~repro.relational.relation.Relation` methods cover the binary
operators; :func:`divide` is what the first-order evaluator uses for
universally quantified subformulas.
"""

from __future__ import annotations

from ..errors import SchemaError
from .relation import Relation


def divide(dividend: Relation, divisor: Relation) -> Relation:
    """Relational division ``dividend ÷ divisor``.

    Returns the largest relation T over the dividend's non-divisor attributes
    such that T × divisor ⊆ dividend.  Implements the textbook double-
    difference formulation; used for universally quantified first-order
    subformulas and exercised by the algebra-law test-suite.
    """
    divisor_attrs = set(divisor.attributes)
    if not divisor_attrs <= set(dividend.attributes):
        raise SchemaError(
            f"divisor attributes {sorted(divisor_attrs)} not contained in "
            f"dividend attributes {list(dividend.attributes)}"
        )
    quotient_attrs = tuple(
        a for a in dividend.attributes if a not in divisor_attrs
    )
    if not quotient_attrs:
        # Nullary quotient: TRUE iff every divisor row appears in dividend.
        ok = divisor.rows <= dividend.project(divisor.attributes).rows
        return Relation.unit() if ok else Relation.empty()
    candidates = dividend.project(quotient_attrs)
    if divisor.is_empty():
        return candidates
    required = candidates.natural_join(divisor)
    missing = required.difference(
        dividend.project(required.attributes)
    ).project(quotient_attrs)
    return candidates.difference(missing)
