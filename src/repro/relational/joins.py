"""Join algorithm implementations: hash join and sort-merge join.

:meth:`Relation.natural_join` uses a hash join internally; this module
exposes both a hash join and the sort-merge join the paper mentions in the
Theorem 2 cost analysis ("the joins of Step 2 can be performed, for example,
by sorting the two relations on the join attributes and merging"), which
the tests and the semijoin ablation keep as the reference for the hash join.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Tuple

from .attributes import positions_of
from .relation import Relation, Row

JoinAlgorithm = Callable[[Relation, Relation], Relation]


def shared_attributes(left: Relation, right: Relation) -> Tuple[str, ...]:
    """Attributes common to both relations, in *left*'s column order."""
    right_set = set(right.attributes)
    return tuple(a for a in left.attributes if a in right_set)


def hash_join(left: Relation, right: Relation) -> Relation:
    """Natural join via hashing the smaller side on the shared attributes.

    Expected time O(|left| + |right| + |output|).  Whichever side is
    smaller becomes the build side; rows are always emitted directly in
    left-major column order (left's attributes, then right's extras), so no
    post-join projection is ever needed.
    """
    if len(right) <= len(left):
        # Relation.natural_join builds its hash table on the right operand.
        return left.natural_join(right)

    # Left is smaller: build on it directly and probe with right's rows,
    # still emitting ``left_row + right_extras``.
    shared = shared_attributes(left, right)
    if not shared:
        return left.natural_join(right)  # Cartesian product
    left_set = set(left.attributes)
    right_set = set(right.attributes)
    if left_set <= right_set and right_set <= left_set:
        return left.intersection(right)

    left_pos = positions_of(left.attributes, shared)
    right_pos = positions_of(right.attributes, shared)
    extra = tuple(a for a in right.attributes if a not in left_set)
    extra_pos = positions_of(right.attributes, extra)

    buckets = left._index(left_pos)
    if len(extra_pos) == 1:
        (ep,) = extra_pos
        suffix_of = lambda row: (row[ep],)  # noqa: E731
    elif not extra_pos:
        suffix_of = lambda row: ()  # noqa: E731
    else:
        suffix_of = itemgetter(*extra_pos)

    out: List[Row] = []
    append = out.append
    for row, key in zip(right._row_order(), right._keys(right_pos)):
        bucket = buckets.get(key)
        if bucket:
            suffix = suffix_of(row)
            for left_row in bucket:
                append(left_row + suffix)
    return Relation._from_order(left.attributes + extra, tuple(out))


def sort_merge_join(left: Relation, right: Relation) -> Relation:
    """Natural join by sorting both sides on the shared attributes and merging.

    Time O(N log N + |output|) where N is the total input size — the bound
    used in the paper's accounting for Algorithm 1.  Heterogeneous values
    are ordered by a decoration: numbers (bool/int/float, whose cross-type
    equality and hashing Python guarantees) sort by value under a common
    tag, everything else by ``(type name, repr)``.  Each row is decorated
    exactly once before the merge, and the merge loop compares only the
    precomputed decorations; within a run of equal decorations, rows are
    matched on their *actual* key values, so repr collisions cannot produce
    spurious matches, and ``True``/``1``/``1.0`` join exactly as they do
    under :func:`hash_join`.  (Exotic cross-type equality outside the
    numeric tower — a custom class equal to a str, say — can still land in
    different runs; hash_join is the reference for such values.)
    """
    shared = shared_attributes(left, right)
    if not shared:
        return left.natural_join(right)  # Cartesian product

    left_pos = positions_of(left.attributes, shared)
    right_pos = positions_of(right.attributes, shared)
    extra = tuple(a for a in right.attributes if a not in set(left.attributes))
    extra_pos = positions_of(right.attributes, extra)

    def decorate(key: Row) -> Tuple:
        # "#num" sorts before all type names, and numeric values compare
        # across bool/int/float — so equal numbers share a decoration run.
        return tuple(
            ("#num", v)
            if isinstance(v, (bool, int, float))
            else (type(v).__name__, repr(v))
            for v in key
        )

    # Decorate once: (decorated key, raw key, payload) triples, sorted on
    # the decoration.  Right payloads are the pre-extracted extra columns.
    left_items: List[Tuple[Tuple, Row, Row]] = sorted(
        (
            (decorate(key), key, row)
            for row in left
            for key in (tuple(row[p] for p in left_pos),)
        ),
        key=itemgetter(0),
    )
    right_items: List[Tuple[Tuple, Row, Row]] = sorted(
        (
            (decorate(key), key, tuple(row[p] for p in extra_pos))
            for row in right
            for key in (tuple(row[p] for p in right_pos),)
        ),
        key=itemgetter(0),
    )

    out: List[Row] = []
    i = j = 0
    n_left, n_right = len(left_items), len(right_items)
    while i < n_left and j < n_right:
        left_dec = left_items[i][0]
        right_dec = right_items[j][0]
        if left_dec < right_dec:
            i += 1
        elif left_dec > right_dec:
            j += 1
        else:
            # Collect the equal-decoration runs on both sides.
            i_end = i
            while i_end < n_left and left_items[i_end][0] == left_dec:
                i_end += 1
            j_end = j
            while j_end < n_right and right_items[j_end][0] == left_dec:
                j_end += 1
            # Within the runs, match on the raw keys (repr-collision-safe).
            by_key: Dict[Row, List[Row]] = {}
            for li in range(i, i_end):
                by_key.setdefault(left_items[li][1], []).append(left_items[li][2])
            for rj in range(j, j_end):
                rows_for_key = by_key.get(right_items[rj][1])
                if rows_for_key:
                    suffix = right_items[rj][2]
                    for left_row in rows_for_key:
                        out.append(left_row + suffix)
            i, j = i_end, j_end

    return Relation._from_frozen(left.attributes + extra, frozenset(out))
