"""Structural analysis of conjunctive queries for the adaptive planner.

The paper's dichotomy — evaluation is intractable in combined complexity in
general (Theorem 1: W[1]-complete for parameters q and v) but polynomial for
acyclic queries (§5) — is a *planning* decision: detect the structure, then
dispatch to the engine whose tractability guarantee applies.  This module is
the detection half.  It classifies a :class:`ConjunctiveQuery` into one of
the engine's structural classes:

``acyclic``
    GYO-reducible hypergraph, no constraint atoms — Yannakakis territory.
``acyclic-inequalities``
    Acyclic relational core plus ≠ atoms — the paper's Theorem 2 island
    (FPT in the number of inequalities).
``bounded-treewidth``
    Cyclic, but a heuristic tree decomposition of the primal graph has
    width ≤ the planner's threshold — the bounded-treewidth generalization
    of acyclicity from the literature that followed the paper.
``bounded-variables``
    Cyclic and wide, but with fewer distinct atom variable sets than atoms,
    so Theorem 1's parameter-v grouping shrinks the query before the
    generic algorithm runs.
``general``
    Everything else (including any query with < / ≤ atoms) — the n^O(q)
    backtracking baseline.

Only the acyclic class has a route of its own; the planner sends every
other class to the generated search, and ``explain`` prints the class and
its width.

The module also defines the two cache-key signatures: a *shape* signature
that canonicalizes variable names and erases constant values (so a
parameterized query hits the same plan for every constant binding), and a
*schema* signature summarizing the relations the query touches (so a plan
is re-derived when the data changes scale).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import NotAcyclicError
from ..hypergraph.join_tree import JoinTree
from ..hypergraph.treewidth import TreeDecomposition, tree_decomposition
from ..query.conjunctive import ConjunctiveQuery, HashedTuple
from ..query.terms import Constant, Variable
from ..relational.database import Database

ACYCLIC = "acyclic"
ACYCLIC_NEQ = "acyclic-inequalities"
BOUNDED_TREEWIDTH = "bounded-treewidth"
BOUNDED_VARIABLES = "bounded-variables"
GENERAL = "general"

STRUCTURAL_CLASSES = (
    ACYCLIC,
    ACYCLIC_NEQ,
    BOUNDED_TREEWIDTH,
    BOUNDED_VARIABLES,
    GENERAL,
)

#: Default width bound under which a cyclic query is still treated as
#: tractable via its tree decomposition (bag materialization is n^(w+1)).
DEFAULT_TREEWIDTH_THRESHOLD = 3

# ----------------------------------------------------------------------
# Counting modes
# ----------------------------------------------------------------------
#
# Counting the answers |Q(d)| can be harder than deciding emptiness.
# Chen–Mengel's trichotomy: on a class of bounded-arity queries, counting
# is in polynomial time exactly when both the treewidth and the *quantified
# star size* (Durand–Mengel) are bounded, and otherwise as hard as deciding
# or counting parameterized cliques.  The engine serves two easy cases
# inside the polynomial side without materializing the join — a head
# inside one atom, and a head that leaves no variable existential — and
# evaluates, then counts, everything else.  ``count-hard`` names that
# fallback, not a hardness verdict: a free-connex query such as
# ``Q(x, y, w) :- E(x, y), E(y, z), F(y, w)`` has quantified star size 1
# and counts in linear time, yet routes there because its head lies
# inside no one atom.

COUNT_BOOLEAN = "count-boolean"      #: no head variables — count is decide (0/1)
COUNT_COVERED = "count-covered"      #: head vars inside one atom — |π_H| of its reduced relation
COUNT_FULL = "count-full"            #: no existential vars — annotated multiplicity pass
COUNT_HARD = "count-hard"            #: acyclic, head in no one atom, not full — evaluate-then-count
COUNT_GENERAL = "count-general"      #: cyclic / constraint-bearing — evaluate-then-count

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


@dataclass(frozen=True)
class StructuralAnalysis:
    """Everything the planner needs to know about a query's structure."""

    structural_class: str
    acyclic: bool
    join_tree: Optional[JoinTree]
    decomposition: Optional[TreeDecomposition]
    width: Optional[int]
    num_atoms: int
    num_variables: int
    query_size: int
    num_inequalities: int
    num_comparisons: int
    distinct_variable_sets: int
    #: Per-atom variable names (position order) of the analyzed query.  The
    #: join tree and decomposition above name these variables; an α-renamed
    #: shape twin served by the same cached plan must not reuse them (see
    #: :func:`variable_layout`), since bags/edges are matched by name.
    variable_layout: Tuple[Tuple[str, ...], ...] = ()

    def summary(self) -> str:
        """One line for ``explain`` output."""
        shape = "acyclic (GYO)" if self.acyclic else (
            f"cyclic, decomposition width {self.width}"
        )
        constraints = ""
        if self.num_inequalities:
            constraints += f", {self.num_inequalities} inequality atom(s)"
        if self.num_comparisons:
            constraints += f", {self.num_comparisons} comparison atom(s)"
        return (
            f"{self.num_atoms} atom(s), {self.num_variables} variable(s), "
            f"q={self.query_size}; {shape}{constraints}"
        )


def variable_layout(query: ConjunctiveQuery) -> Tuple[Tuple[str, ...], ...]:
    """Per-atom variable names — the identity under which a cached plan's
    join tree / decomposition remain directly reusable.

    Two same-shape queries that differ only in their *constants* (the
    decision instances of one parameterized query) have equal layouts; an
    α-renamed twin does not, and must rebuild the named structures.
    Computed once per query object and kept on it."""
    layout = query._layout
    if layout is None:
        layout = query._layout = tuple(
            tuple(v.name for v in atom.variables()) for atom in query.atoms
        )
    return layout


def analyze(
    query: ConjunctiveQuery,
    treewidth_threshold: int = DEFAULT_TREEWIDTH_THRESHOLD,
) -> StructuralAnalysis:
    """Classify *query* into the engine's structural classes.

    Pure function of the query (no database): the same analysis is valid
    for every constant binding of the same shape, which is what makes the
    plan cache sound.
    """
    hypergraph = query.hypergraph()
    join_tree: Optional[JoinTree] = None
    decomposition: Optional[TreeDecomposition] = None
    width: Optional[int] = None
    try:
        join_tree = JoinTree.from_hypergraph(hypergraph)
        acyclic = True
    except NotAcyclicError:
        acyclic = False
        decomposition = tree_decomposition(hypergraph, heuristic="min_fill")
        width = decomposition.width

    distinct_variable_sets = len({a.variable_set() for a in query.atoms})

    if query.comparisons:
        structural_class = GENERAL
    elif query.inequalities:
        structural_class = ACYCLIC_NEQ if acyclic else GENERAL
    elif acyclic:
        structural_class = ACYCLIC
    elif width is not None and width <= treewidth_threshold:
        structural_class = BOUNDED_TREEWIDTH
    elif distinct_variable_sets < len(query.atoms):
        structural_class = BOUNDED_VARIABLES
    else:
        structural_class = GENERAL

    return StructuralAnalysis(
        structural_class=structural_class,
        acyclic=acyclic,
        join_tree=join_tree,
        decomposition=decomposition,
        width=width,
        num_atoms=query.num_atoms(),
        num_variables=query.num_variables(),
        query_size=query.query_size(),
        num_inequalities=len(query.inequalities),
        num_comparisons=len(query.comparisons),
        distinct_variable_sets=distinct_variable_sets,
        variable_layout=variable_layout(query),
    )


# ----------------------------------------------------------------------
# Counting classification
# ----------------------------------------------------------------------


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


def counting_mode(query: ConjunctiveQuery, structural_class: str) -> str:
    """Classify *query* into the engine's counting modes (above).

    Pure function of the query shape (like :func:`analyze`), so the mode
    is computed once per plan and cached with it.  Order matters: a
    boolean head is cheapest, a covered head beats the annotated pass,
    and only acyclic constraint-free queries reach the fast modes at all.
    """
    if not query.head_variables():
        return COUNT_BOOLEAN
    if structural_class != ACYCLIC:
        return COUNT_GENERAL
    if covering_atom(query) is not None:
        return COUNT_COVERED
    if not query.existential_variables():
        return COUNT_FULL
    return COUNT_HARD


# ----------------------------------------------------------------------
# Cache-key signatures
# ----------------------------------------------------------------------

_CONST = ("c",)


def shape_signature(query: ConjunctiveQuery) -> Tuple:
    """A canonical, binding-independent key for the query's shape.

    Variables are renamed to their first-occurrence index (head first, then
    body atoms in order) and constants collapse to a positional marker, so
    the decision instances ``Q[t/head]`` of one parameterized query share a
    single signature for every candidate tuple t.  Relation names are kept:
    they determine which cardinalities the cost model reads.  Computed once
    per query object and kept on it.
    """
    signature = query._shape
    if signature is None:
        signature = query._shape = _shape_of(query)
    return signature


def _shape_of(query: ConjunctiveQuery) -> Tuple:
    numbering: Dict[Variable, int] = {}

    def term_key(term) -> Tuple:
        if isinstance(term, Constant):
            return _CONST
        index = numbering.get(term)
        if index is None:
            index = len(numbering)
            numbering[term] = index
        return ("v", index)

    head = tuple(term_key(t) for t in query.head_terms)
    atoms = tuple(
        (atom.relation,) + tuple(term_key(t) for t in atom.terms)
        for atom in query.atoms
    )
    inequalities = frozenset(
        frozenset((term_key(i.left), term_key(i.right)))
        for i in query.inequalities
    )
    comparisons = frozenset(
        (term_key(c.left), term_key(c.right), c.strict)
        for c in query.comparisons
    )
    return (head, atoms, inequalities, comparisons)


def schema_signature(query: ConjunctiveQuery, database: Database) -> Tuple:
    """Summary of the relations the query reads, at order-of-magnitude grain.

    Includes each referenced relation's arity and the bit length of its
    cardinality: a cached plan survives small data changes but is re-derived
    when a relation roughly doubles or halves, which is when the cost
    model's verdict could flip.  The sorted relation names are computed once
    per query object and kept on it; only the lookups run per call.
    """
    names = query._names
    if names is None:
        names = query._names = tuple(sorted({atom.relation for atom in query.atoms}))
    parts = []
    for name in names:
        relation = database[name]
        parts.append((name, relation.arity, relation.cardinality.bit_length()))
    return tuple(parts)


def plan_cache_key(query: ConjunctiveQuery, database: Database) -> Tuple:
    """The full plan-cache key: query shape + schema summary.

    Built and hashed once per query object and database: the query keeps
    the key of the last database it was keyed against, so the service's
    group key and the engine's table lookups of one request share one key,
    and no lookup walks the nested shape signature again.  The database is
    held weakly — the memo keeps no replaced database alive — and, being
    immutable, cannot change under its key.
    """
    kept = query._key
    if kept is not None and kept[0]() is database:
        return kept[1]
    key = HashedTuple((shape_signature(query), schema_signature(query, database)))
    query._key = (weakref.ref(database), key)
    return key
