"""Counting answers to acyclic conjunctive queries without the join.

Yannakakis extends from evaluation to counting: annotate every tuple of
every candidate relation with a multiplicity (initially 1), run the
upward half of the reducer (root-side state is all the count reads, so
the top-down pass is skipped), then fold the tree bottom-up multiplying
each parent tuple's
annotation by the *sum* of the annotations of the child tuples it joins
with (upward-dangling child tuples sum under keys no parent tuple looks
up, so they cost a little work but never distort a count).  After the
fold, the root annotations sum to the number of
edge-consistent ways to pick one tuple per node — and by the join tree's
running-intersection property those choices are in bijection with the
satisfying assignments.  Total cost: the reducer passes plus one linear
fold — never the (possibly exponentially larger) join.

That bijection counts *assignments*, so it equals ``len(execute(Q).rows)``
(distinct head tuples) only when distinct assignments cannot collide on
the head.  Two shapes guarantee that:

* **full queries** (no existential variables): every body variable appears
  in the head, so distinct assignments give distinct head tuples — the
  annotated fold applies as-is (``count-full``);
* **head-covered queries** (head variables inside one atom): rooted at
  that atom, one upward pass leaves its relation globally consistent, so
  its distinct head projections *are* the answers — read their number off
  the reduced relation's cached key set, no fold needed (``count-covered``).

Everything else — acyclic with an uncovered projection (high quantified
star size), cyclic cores, constraint atoms — is #P-hard in general
(Chen–Mengel's trichotomy); the engine falls back to evaluation plus a
cardinality read for those.  Classification lives in
:func:`repro.engine.analysis.counting_mode`.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Variable
from ..relational.database import Database
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import candidate_relations
from .yannakakis import YannakakisEvaluator


class CountResult(NamedTuple):
    """A count and the counting mode that produced it."""

    total: int
    mode: str


def _head_variable_names(query: ConjunctiveQuery) -> Tuple[str, ...]:
    """Distinct head variable names, first-occurrence order."""
    seen: List[str] = []
    for term in query.head_terms:
        if isinstance(term, Variable) and term.name not in seen:
            seen.append(term.name)
    return tuple(seen)


class CountingYannakakisEvaluator:
    """Multiplicity-annotated Yannakakis counting for acyclic queries."""

    def __init__(self) -> None:
        self._reducer = YannakakisEvaluator()

    # ------------------------------------------------------------------

    def count(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        mode: Optional[str] = None,
    ) -> CountResult:
        """``|Q(d)|`` for the fast counting modes.

        *mode* is the precomputed :func:`~repro.engine.analysis.counting_mode`
        (recomputed here when absent); raises :class:`QueryError` on the
        hard modes — the caller owns the evaluate-then-count fallback.
        """
        from ..engine.analysis import (  # local import: engine imports us
            ACYCLIC,
            COUNT_BOOLEAN,
            COUNT_COVERED,
            COUNT_FULL,
            FAST_COUNTING_MODES,
            counting_mode,
            covering_atom,
        )

        if mode is None:
            structural = ACYCLIC if query.is_acyclic() else "cyclic"
            if query.inequalities or query.comparisons:
                structural = "constrained"
            mode = counting_mode(query, structural)
        if mode not in FAST_COUNTING_MODES:
            raise QueryError(
                f"counting mode {mode!r} is not served by the annotated "
                "pass; evaluate and count the materialized answers instead"
            )

        if mode == COUNT_BOOLEAN:
            nonempty = self._reducer.decide(query, database, join_tree)
            return CountResult(int(nonempty), mode)

        prepared = self._reducer._prepare(query, database, join_tree)
        if prepared is None:
            return CountResult(0, mode)
        relations, tree = prepared

        # Both fast modes read only root-side state, so the upward half of
        # the reducer suffices (the covered mode re-roots at the covering
        # atom first): half the semijoin passes of a full reduction, which
        # is what keeps count(Q) within decide(Q)'s wall-time envelope.
        if mode == COUNT_COVERED:
            node = covering_atom(query)
            assert node is not None
            if node != tree.root:
                tree = tree.rooted_at(node)
            reduced = self._reducer.bottom_up_reduction(relations, tree)
            return self._count_covered(query, reduced[node])

        reduced = self._reducer.bottom_up_reduction(relations, tree)
        if reduced[tree.root].is_empty():
            return CountResult(0, mode)
        annotations = self._annotate(reduced, tree)
        return CountResult(sum(annotations.values()), COUNT_FULL)

    def grouped_count(
        self,
        query: ConjunctiveQuery,
        database: Database,
        group_by: Sequence[str],
        join_tree: Optional[JoinTree] = None,
        mode: Optional[str] = None,
    ) -> Optional[Relation]:
        """Per-group answer counts over the *group_by* head variables.

        Returns a relation over ``group_by + (count column,)`` — one row
        per occupied group — or ``None`` when no fast path applies (the
        caller then materializes and uses :func:`grouped_count_reference`).
        """
        from ..engine.analysis import (
            COUNT_COVERED,
            COUNT_FULL,
            counting_mode,
            covering_atom,
        )

        group = tuple(group_by)
        head_names = _head_variable_names(query)
        unknown = [name for name in group if name not in head_names]
        if unknown:
            raise QueryError(
                f"group_by names {unknown} are not head variables of {query!r}"
            )
        if mode is None:
            structural = "acyclic" if query.is_acyclic() else "cyclic"
            if query.inequalities or query.comparisons:
                structural = "constrained"
            mode = counting_mode(query, structural)
        if mode not in (COUNT_COVERED, COUNT_FULL):
            return None

        prepared = self._reducer._prepare(query, database, join_tree)
        if prepared is None:
            return _group_relation(group, {})
        relations, tree = prepared

        if mode == COUNT_COVERED:
            node = covering_atom(query)
            assert node is not None
            if node != tree.root:
                tree = tree.rooted_at(node)
            reduced = self._reducer.bottom_up_reduction(relations, tree)
            distinct = self._distinct_head(query, reduced[node])
            counts: Dict[Tuple, int] = {}
            positions = tuple(head_names.index(name) for name in group)
            for row in distinct:
                key = tuple(row[p] for p in positions)
                counts[key] = counts.get(key, 0) + 1
            return _group_relation(group, counts)

        # count-full: group the fold's root annotations.  The root must
        # cover the grouping variables; re-root at a covering atom when
        # one exists, otherwise give up (caller materializes).
        root = None
        group_set = set(group)
        for index, atom in enumerate(query.atoms):
            if group_set <= {v.name for v in atom.variables()}:
                root = index
                break
        if root is None:
            return None
        if root != tree.root:
            tree = tree.rooted_at(root)
        reduced = self._reducer.bottom_up_reduction(relations, tree)
        if reduced[tree.root].is_empty():
            return _group_relation(group, {})
        annotations = self._annotate(reduced, tree)
        root_rel = reduced[tree.root]
        positions = tuple(root_rel.attributes.index(name) for name in group)
        counts = {}
        for row, annotation in annotations.items():
            key = tuple(row[p] for p in positions)
            counts[key] = counts.get(key, 0) + annotation
        return _group_relation(group, counts)

    # ------------------------------------------------------------------

    def _count_covered(self, query: ConjunctiveQuery, reduced: Relation) -> CountResult:
        """Distinct head keys of the covering atom's reduced relation: its
        cardinality when the head is all of its columns, else the size of
        its (cached) key set on the head's columns."""
        from ..engine.analysis import COUNT_COVERED

        head_names = _head_variable_names(query)
        if len(head_names) == reduced.arity:
            return CountResult(reduced.cardinality, COUNT_COVERED)
        positions = tuple(reduced.attributes.index(name) for name in head_names)
        return CountResult(len(reduced._key_set(positions)), COUNT_COVERED)

    def _distinct_head(
        self, query: ConjunctiveQuery, reduced: Relation
    ) -> Tuple[Tuple, ...]:
        """Distinct head-variable assignments from a covering relation."""
        head_names = _head_variable_names(query)
        positions = tuple(reduced.attributes.index(name) for name in head_names)
        seen = set()
        for row in reduced.rows:
            seen.add(tuple(row[p] for p in positions))
        return tuple(seen)

    def _annotate(
        self, reduced: Dict[int, Relation], tree: JoinTree
    ) -> Dict[Tuple, int]:
        """Root annotations of the bottom-up multiplicity fold.

        ``result[row]`` = the number of edge-consistent ways to extend the
        root tuple *row* with one tuple per node of the tree.  Interior
        nodes never materialize per-row annotations: each folds its
        children's *upward sums* (annotation totals per shared join key)
        in one pass over its rows, emitting its own upward sums as it
        goes, and leaves read bucket sizes straight off the index on
        their join columns.  For every relation the pass has filtered that
        index is built here, on every call: the reducer's semijoins read
        key lists and key sets and leave no index behind (a lead — folding
        over ``_keys`` would save the build — not taken here).
        """
        upward: Dict[int, Dict[Any, int]] = {}
        children_of: Dict[Optional[int], List[int]] = {}
        order = tree.bottom_up_order()
        for node in order:
            children_of.setdefault(tree.parent(node), []).append(node)
        for node in order:
            rel = reduced[node]
            lookups = []
            for kid in children_of.get(node, ()):
                kid_attrs = set(reduced[kid].attributes)
                shared = tuple(a for a in rel.attributes if a in kid_attrs)
                key = Relation._key_getter(
                    tuple(rel.attributes.index(a) for a in shared)
                )
                lookups.append((key, upward.pop(kid)))
            parent = tree.parent(node)
            if parent is None:
                return {
                    row: self._fold_row(row, lookups) for row in rel.rows
                }
            check_cancelled()
            rel_attrs = set(rel.attributes)
            positions_up = tuple(
                rel.attributes.index(a)
                for a in reduced[parent].attributes
                if a in rel_attrs
            )
            buckets = rel._index(positions_up)
            if not lookups:
                upward[node] = {
                    key: len(rows) for key, rows in buckets.items()
                }
                continue
            sums_out: Dict[Any, int] = {}
            if len(lookups) == 1:
                (child_key, child_sums) = lookups[0]
                get = child_sums.get
                for key, rows in buckets.items():
                    total = 0
                    for row in rows:
                        total += get(child_key(row), 0)
                    if total:
                        sums_out[key] = total
            else:
                for key, rows in buckets.items():
                    total = 0
                    for row in rows:
                        total += self._fold_row(row, lookups)
                    if total:
                        sums_out[key] = total
            upward[node] = sums_out
        raise QueryError("join tree has no root")  # pragma: no cover

    @staticmethod
    def _fold_row(row: Tuple, lookups: List[Tuple[Any, Dict[Any, int]]]) -> int:
        """One tuple's annotation: the product of its children's sums."""
        total = 1
        for key, sums in lookups:
            total *= sums.get(key(row), 0)
            if not total:
                break
        return total


# ----------------------------------------------------------------------
# Module helpers shared by the engine's fallback paths and the tests
# ----------------------------------------------------------------------

#: Name of the synthetic count column in grouped-count relations.
COUNT_ATTRIBUTE = "count"


def _count_attribute(group: Tuple[str, ...]) -> str:
    # A head variable literally named "count" must not collide.
    name = COUNT_ATTRIBUTE
    while name in group:
        name = "_" + name
    return name


def _group_relation(group: Tuple[str, ...], counts: Dict[Tuple, int]) -> Relation:
    attributes = group + (_count_attribute(group),)
    rows = frozenset(key + (n,) for key, n in counts.items())
    return Relation._from_frozen(attributes, rows)


def grouped_count_reference(
    query: ConjunctiveQuery, answers: Relation, group_by: Sequence[str]
) -> Relation:
    """Naive group-by over a materialized answer relation.

    The oracle for the fast grouped paths, and the engine's fallback for
    the hard counting modes.  *answers* is ``execute``'s output (synthetic
    ``o0..`` columns); each *group_by* name is resolved to the first head
    position holding that variable.
    """
    group = tuple(group_by)
    positions = []
    for name in group:
        position = next(
            (
                i
                for i, term in enumerate(query.head_terms)
                if isinstance(term, Variable) and term.name == name
            ),
            None,
        )
        if position is None:
            raise QueryError(
                f"group_by name {name!r} is not a head variable of {query!r}"
            )
        positions.append(position)
    counts: Dict[Tuple, int] = {}
    for row in answers.rows:
        key = tuple(row[p] for p in positions)
        counts[key] = counts.get(key, 0) + 1
    return _group_relation(group, counts)


def head_domain_size(query: ConjunctiveQuery, database: Database) -> int:
    """``∏_v |domain(v)|`` over the distinct head variables.

    ``domain(v)`` is the intersection, over the atoms mentioning ``v``, of
    that column of the atom's candidate relation — the tightest
    per-variable bound the inputs support.  ``forall`` holds iff the
    answer count reaches this product: every candidate head tuple is an
    answer (vacuously true when some domain is empty).
    """
    candidates = candidate_relations(query.atoms, database)
    domains: Dict[str, Any] = {}
    head_names = set(_head_variable_names(query))
    for atom, candidate in zip(query.atoms, candidates):
        for variable in atom.variables():
            name = variable.name
            if name not in head_names:
                continue
            column = candidate.column(name)
            previous = domains.get(name)
            domains[name] = column if previous is None else previous & column
    total = 1
    for name in sorted(head_names):
        total *= len(domains.get(name, ()))
    return total


__all__ = [
    "COUNT_ATTRIBUTE",
    "CountResult",
    "CountingYannakakisEvaluator",
    "grouped_count_reference",
    "head_domain_size",
]
