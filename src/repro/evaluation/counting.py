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

from functools import partial, reduce
from itertools import repeat
from operator import mul
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Variable
from ..relational.attributes import positions_of
from ..relational.database import Database
from ..relational.joins import shared_attributes
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import candidate_relations
from .yannakakis import Survivors, YannakakisEvaluator


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
        if reduced is None:
            return CountResult(0, mode)
        if mode == COUNT_COVERED:
            return self._count_covered(query, reduced[tree.root])
        return CountResult(sum(self._annotate(reduced, tree)), COUNT_FULL)

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
        per occupied group — for a count-full query whose grouping
        variables sit inside one atom, and ``None`` for everything else,
        head-covered queries included: grouping an evaluated answer
        (:func:`grouped_count_reference`, what the caller then does) costs
        them the same.
        """
        from ..engine.analysis import COUNT_FULL, counting_mode

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
        if mode != COUNT_FULL:
            return None

        prepared = self._reducer._prepare(query, database, join_tree)
        if prepared is None:
            return _group_relation(group, {})
        relations, tree = prepared

        # Group the fold's root annotations.  The root must cover the
        # grouping variables; re-root at a covering atom when one exists,
        # otherwise give up (caller materializes).
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
        if reduced is None:
            return _group_relation(group, {})
        root_node = reduced[tree.root]
        positions = positions_of(root_node.relation.attributes, group)
        keys = root_node.keys(positions)
        counts: Dict[Tuple, int] = {}
        for key, annotation in zip(
            zip(keys) if len(positions) == 1 else keys,
            self._annotate(reduced, tree),
        ):
            counts[key] = counts.get(key, 0) + annotation
        return _group_relation(group, counts)

    # ------------------------------------------------------------------

    def _count_covered(
        self, query: ConjunctiveQuery, reduced: Survivors
    ) -> CountResult:
        """Distinct head keys of the covering atom's survivors: their
        number when the head is all of its columns, else the size of their
        key set on the head's columns.  Nothing is materialised."""
        from ..engine.analysis import COUNT_COVERED

        head_names = _head_variable_names(query)
        if len(head_names) == reduced.relation.arity:
            return CountResult(reduced.count(), COUNT_COVERED)
        positions = positions_of(reduced.relation.attributes, head_names)
        return CountResult(len(reduced.live_keys(positions)), COUNT_COVERED)

    def _annotate(self, reduced: Dict[int, Survivors], tree: JoinTree) -> Iterable[int]:
        """Root annotations of the bottom-up multiplicity fold, one per
        surviving root row, in row order.

        A row's annotation is the number of edge-consistent ways to extend
        it with one tuple per node of the tree: the product, over its
        children, of the child's *upward sum* (annotation total per shared
        join key) under the row's key.  Nothing is materialised and no
        index is built on anything the pass filtered: every node folds
        over the key lists of its unfiltered relation — the database
        relation's, warm across requests — selected by the pass's survivor
        mask, and a leaf (no children, so no pass ever filters it) reads
        bucket sizes off the warm index on its join columns.  A surviving
        row's keys are live in every child by construction, so the lookups
        cannot miss.
        """
        upward: Dict[int, Dict[Any, int]] = {}
        for node in tree.bottom_up_order():
            survivors = reduced[node]
            attributes = survivors.relation.attributes
            factors = []
            for kid in tree.children(node):
                shared = shared_attributes(survivors.relation, reduced[kid].relation)
                keys = survivors.keys(positions_of(attributes, shared))
                factors.append(map(upward.pop(kid).__getitem__, keys))
            if factors:
                annotations: Iterable[int] = reduce(partial(map, mul), factors)
            else:
                annotations = repeat(1, survivors.count())
            parent = tree.parent(node)
            if parent is None:
                return annotations
            check_cancelled()
            shared_up = shared_attributes(reduced[parent].relation, survivors.relation)
            positions_up = positions_of(attributes, shared_up)
            if not factors:
                index = survivors.relation._index(positions_up)
                upward[node] = {key: len(rows) for key, rows in index.items()}
                continue
            sums_out: Dict[Any, int] = {}
            for key, annotation in zip(survivors.keys(positions_up), annotations):
                sums_out[key] = sums_out.get(key, 0) + annotation
            upward[node] = sums_out
        raise QueryError("join tree has no root")  # pragma: no cover


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
    for row in answers:
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
