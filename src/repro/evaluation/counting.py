"""Counting answers to acyclic conjunctive queries without the join.

Yannakakis extends from evaluation to counting (Durand–Grandjean): annotate
every tuple of every candidate relation with a multiplicity (initially
1), run the upward half of the reducer (root-side state is all the count
reads, so the top-down pass is skipped), then fold the tree bottom-up
multiplying each parent tuple's annotation by the *sum* of the
annotations of the child tuples it joins with (upward-dangling child
tuples sum under keys no parent tuple looks up, so they cost a little
work but never distort a count).  After the fold, the root annotations
sum to the number of edge-consistent ways to pick one tuple per node —
and by the join tree's running-intersection property those choices are
in bijection with the satisfying assignments.  Total cost: the upward
pass plus one linear fold — never the (possibly exponentially larger)
join.

What runs is the shape's :class:`~.yannakakis.AcyclicProgram`, the one
``execute`` and ``decide`` run: its candidate relations, its head-rooted
tree and its edges leaves first, each keyed once when the shape was
planned.  The pass walks those edges and the fold reads each edge's key
positions, so a request re-roots nothing and keys nothing again.  Bucket
sizes, the covered count's and the fold leaves', come from the key census
(``Relation._counts``, one C-level pass), so no count builds a bucket index.

The fold counts *assignments*, so it equals ``len(execute(Q).rows)``
(distinct head tuples) only when distinct assignments cannot collide on
the head.  Two shapes guarantee that:

* **full queries** (no existential variables): every body variable appears
  in the head, so distinct assignments give distinct head tuples — the
  annotated fold applies as-is (``count-full``);
* **head-covered queries** (head variables inside one atom): the program
  roots its tree at the first such atom, so one upward pass leaves the
  root's relation globally consistent and its distinct head projections
  *are* the answers — read their number off the reduced relation's key
  set, no fold needed (``count-covered``).

Chen–Mengel's trichotomy: on a class of bounded-arity queries, counting
answers is in polynomial time exactly when both the treewidth and the
*quantified star size* (Durand–Mengel) are bounded, and otherwise as hard
as deciding or counting parameterized cliques.  The two modes above are
easy cases well inside the polynomial side, not its boundary.  Every other
acyclic query with an existential variable routes ``count-hard`` —
evaluate, then count — and that name is the engine's fallback, not a
hardness verdict: a free-connex query such as
``Q(x, y, w) :- E(x, y), E(y, z), F(y, w)`` has quantified star size 1 and
counts in linear time, but its head lies inside no one atom.  Cyclic and
constraint-bearing queries route ``count-general``.
Classification lives here, in :func:`counting_mode`; the engine's planner
calls it once per shape and carries the mode on the plan.
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
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import candidate_relations
from .yannakakis import (
    AcyclicProgram,
    Edge,
    Survivors,
    YannakakisEvaluator,
    upward_edges,
)


#: A join tree and its edges leaves first.
Rooted = Tuple[JoinTree, Sequence[Edge]]


class CountResult(NamedTuple):
    """A count and the counting mode that produced it."""

    total: int
    mode: str


# ----------------------------------------------------------------------
# Counting modes
# ----------------------------------------------------------------------

#: No head variables: count is decide (0/1).
COUNT_BOOLEAN = "count-boolean"
#: Head variables inside one atom: |π_H| of its reduced relation.
COUNT_COVERED = "count-covered"
#: No existential variables: the annotated multiplicity fold.
COUNT_FULL = "count-full"
#: Acyclic, head in no one atom, not full: evaluate, then count.
COUNT_HARD = "count-hard"
#: Cyclic or constraint-bearing: evaluate, then count.
COUNT_GENERAL = "count-general"

COUNTING_MODES = (
    COUNT_BOOLEAN,
    COUNT_COVERED,
    COUNT_FULL,
    COUNT_HARD,
    COUNT_GENERAL,
)

#: Modes the annotated counting evaluator serves directly (decide-like
#: cost); the rest fall back to full evaluation plus a cardinality read.
FAST_COUNTING_MODES = (COUNT_BOOLEAN, COUNT_COVERED, COUNT_FULL)


def covering_atom(query: ConjunctiveQuery) -> Optional[int]:
    """Index of the first atom whose variables cover the head, or None.

    When such an atom exists the query is *head-covered*: after a full
    reduction every surviving tuple of that atom's candidate relation
    participates in a global match, so the distinct head assignments are
    exactly ``π_H`` of that one relation — counting costs a key count, not
    a join.
    """
    head = {v for v in query.head_variables()}
    if not head:
        return None
    for index, atom in enumerate(query.atoms):
        if head <= atom.variable_set():
            return index
    return None


def counting_mode(query: ConjunctiveQuery, acyclic: Optional[bool] = None) -> str:
    """Classify *query* into the counting modes (above).

    *acyclic* says whether the query is acyclic and constraint-free — the
    engine's ``acyclic`` class, which its analysis answers once per shape;
    absent, the question is asked here.  Pure function of the query shape,
    so the engine computes the mode once per plan and caches it with it.
    Order matters: a boolean head is cheapest, a covered head beats the
    annotated pass, and only acyclic constraint-free queries reach the
    fast modes at all.
    """
    if not query.head_variables():
        return COUNT_BOOLEAN
    if acyclic is None:
        acyclic = not (query.inequalities or query.comparisons) and query.is_acyclic()
    if not acyclic:
        return COUNT_GENERAL
    if covering_atom(query) is not None:
        return COUNT_COVERED
    if not query.existential_variables():
        return COUNT_FULL
    return COUNT_HARD


class CountingYannakakisEvaluator:
    """Multiplicity-annotated Yannakakis counting for acyclic queries."""

    def __init__(self) -> None:
        self._reducer = YannakakisEvaluator()

    # ------------------------------------------------------------------

    def count(
        self,
        query: ConjunctiveQuery,
        database: Database,
        program: Optional[AcyclicProgram] = None,
        mode: Optional[str] = None,
    ) -> CountResult:
        """``|Q(d)|`` for the fast counting modes.

        *program* is the shape's acyclic program (built here when absent);
        *mode* is the shape's precomputed :func:`counting_mode` (computed
        here when absent).  Raises :class:`QueryError` on the
        hard modes — the caller owns the evaluate-then-count fallback.
        """
        if mode is None:
            mode = counting_mode(query)
        if mode not in FAST_COUNTING_MODES:
            raise QueryError(
                f"counting mode {mode!r} is not served by the annotated "
                "pass; evaluate and count the materialized answers instead"
            )
        if mode == COUNT_BOOLEAN:
            nonempty = self._reducer.decide(query, database, program=program)
            return CountResult(int(nonempty), mode)

        # Both fast modes read only root-side state, so the upward half of
        # the reducer suffices: half the semijoin passes of a full
        # reduction, which is what keeps count(Q) within decide(Q)'s
        # wall-time envelope.
        program = self._reducer._program(query, program)
        reduced = self._reduce(query, database, program, program.tree, program.edges)
        if reduced is None:
            return CountResult(0, mode)
        root = program.tree.root
        if mode == COUNT_COVERED:
            return self._count_covered(query, reduced[root])
        return CountResult(sum(self._annotate(reduced, root, program.edges)), mode)

    def grouped_count(
        self,
        query: ConjunctiveQuery,
        database: Database,
        group_by: Sequence[str],
        program: Optional[AcyclicProgram] = None,
        mode: Optional[str] = None,
        rooted: Optional[Rooted] = None,
    ) -> Optional[Relation]:
        """Per-group answer counts over the *group_by* head variables.

        Returns a relation over ``group_by + (count column,)`` — one row
        per occupied group — for a count-full query whose grouping
        variables sit inside one atom, and ``None`` for everything else,
        head-covered queries included: grouping an evaluated answer
        (:func:`grouped_count_reference`, what the caller then does) costs
        them the same.  *rooted* is :func:`group_tree` of *program* and
        the group when the caller keeps it (derived here when absent).
        """
        group = tuple(group_by)
        head_names = [v.name for v in query.head_variables()]
        unknown = [name for name in group if name not in head_names]
        if unknown:
            raise QueryError(
                f"group_by names {unknown} are not head variables of {query!r}"
            )
        if mode is None:
            mode = counting_mode(query)
        if mode != COUNT_FULL:
            return None

        # Group the fold's root annotations; no atom covering the group
        # means give up (the caller materializes).
        program = self._reducer._program(query, program)
        if rooted is None:
            rooted = group_tree(query, program, group)
            if rooted is None:
                return None
        tree, edges = rooted
        reduced = self._reduce(query, database, program, tree, edges)
        if reduced is None:
            return _group_relation(group, {})
        # The fold reads row-aligned keys: take the root's mask once.
        root_node = reduced[tree.root] = reduced[tree.root].masked()
        positions = positions_of(root_node.relation.attributes, group)
        keys = root_node.keys(positions)
        counts: Dict[Tuple, int] = {}
        for key, annotation in zip(
            zip(keys) if len(positions) == 1 else keys,
            self._annotate(reduced, tree.root, edges),
        ):
            counts[key] = counts.get(key, 0) + annotation
        return _group_relation(group, counts)

    # ------------------------------------------------------------------

    def _reduce(
        self,
        query: ConjunctiveQuery,
        database: Database,
        program: AcyclicProgram,
        tree: JoinTree,
        edges: Sequence[Edge],
    ) -> Optional[Dict[int, Survivors]]:
        """The program's candidate relations after the upward pass over
        *edges*; ``None`` when the query is globally empty."""
        relations = self._reducer._candidates(query, database, program)
        if relations is None:
            return None
        return self._reducer.bottom_up_reduction(relations, tree, edges)

    @staticmethod
    def _count_covered(query: ConjunctiveQuery, reduced: Survivors) -> CountResult:
        """Distinct head keys of the covering atom's survivors: their
        number when the head is all of its columns, else the size of their
        key set on the head's columns.  Nothing is materialised."""
        head_names = [v.name for v in query.head_variables()]
        if len(head_names) == reduced.relation.arity:
            return CountResult(reduced.count(), COUNT_COVERED)
        positions = positions_of(reduced.relation.attributes, head_names)
        return CountResult(len(reduced.live_keys(positions)), COUNT_COVERED)

    @staticmethod
    def _annotate(
        reduced: Dict[int, Survivors], root: int, edges: Sequence[Edge]
    ) -> Iterable[int]:
        """Root annotations of the bottom-up multiplicity fold, one per
        surviving row of node *root*, in row order.

        A row's annotation is the number of edge-consistent ways to extend
        it with one tuple per node of the tree: the product, over its
        children, of the child's *upward sum* (annotation total per shared
        join key) under the row's key.  The fold walks *edges* leaves
        first, reading each one's key positions; nothing is materialised
        and no bucket index is built: every node folds over the key lists
        of its unfiltered relation — the database relation's, warm across
        requests — selected by a survivor mask (a node the pass left as a
        key filter takes its mask here, one probe of its live keys per
        row: the fold needs keys row by row), and a leaf (no children, so
        no pass ever filters it) takes the key census on its join columns
        (``Relation._counts``, warm across requests) as its upward sums.
        A surviving row's keys are live in every child by construction, so
        the lookups cannot miss.
        """
        reduced = {node: survivors.masked() for node, survivors in reduced.items()}
        # Per node, one lazy factor per child edge walked so far.
        factors: Dict[int, List[Iterable[int]]] = {}
        for edge in edges:
            check_cancelled()
            child = reduced[edge.child]
            below = factors.pop(edge.child, None)
            if below is None:
                sums = child.relation._counts(edge.child_key)
            else:
                sums = {}
                annotations = reduce(partial(map, mul), below)
                for key, annotation in zip(child.keys(edge.child_key), annotations):
                    sums[key] = sums.get(key, 0) + annotation
            keys = reduced[edge.parent].keys(edge.parent_key)
            factors.setdefault(edge.parent, []).append(map(sums.__getitem__, keys))
        below = factors.get(root)
        if below is None:
            return repeat(1, reduced[root].count())
        return reduce(partial(map, mul), below)


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


def group_tree(
    query: ConjunctiveQuery, program: AcyclicProgram, group: Sequence[str]
) -> Optional[Rooted]:
    """*program*'s tree and edges rooted at an atom covering the *group*
    variables: its own when its root covers them, else re-rooted at the
    first atom that does and keyed afresh; ``None`` when no atom does.

    A function of the shape and the group alone, so the engine keeps it
    with the shape (a warm ``grouped_count`` re-roots nothing).
    """
    grouped = {Variable(name) for name in group}
    tree = program.tree
    if grouped <= query.atoms[tree.root].variable_set():
        return tree, program.edges
    root = next(
        (
            index
            for index, atom in enumerate(query.atoms)
            if grouped <= atom.variable_set()
        ),
        None,
    )
    if root is None:
        return None
    tree = tree.rooted_at(root)
    edges = upward_edges(
        tree, [[v.name for v in atom.variables()] for atom in query.atoms]
    )
    return tree, edges


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
    head_names = {v.name for v in query.head_variables()}
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
    "COUNTING_MODES",
    "COUNT_ATTRIBUTE",
    "COUNT_BOOLEAN",
    "COUNT_COVERED",
    "COUNT_FULL",
    "COUNT_GENERAL",
    "COUNT_HARD",
    "CountResult",
    "CountingYannakakisEvaluator",
    "FAST_COUNTING_MODES",
    "counting_mode",
    "covering_atom",
    "group_tree",
    "grouped_count_reference",
    "head_domain_size",
]
