"""Structural analysis of conjunctive queries for the adaptive planner.

The paper's dichotomy — evaluation is intractable in combined complexity in
general (Theorem 1: W[1]-complete for parameters q and v) but polynomial for
acyclic queries (§5) — is a *planning* decision: detect the structure, then
dispatch to the engine whose tractability guarantee applies.  This module is
the detection half, and it asks the one question the engine's routes depend
on — is the query acyclic and constraint-free?

``acyclic``
    GYO-reducible hypergraph, no constraint atoms — Yannakakis territory.
``general``
    Everything else (cyclic, or carrying ≠ / < / ≤ atoms) — the n^O(q)
    backtracking baseline.

The paper's other islands (bounded treewidth, Theorem 2's ≠ atoms over an
acyclic core, Theorem 1's parameter v) have library evaluators but no
route: none of them beat the search on a measured leaf, so the planner
does not look for them.

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
from ..query.conjunctive import ConjunctiveQuery, HashedTuple
from ..query.terms import Constant, Variable
from ..relational.database import Database

ACYCLIC = "acyclic"
GENERAL = "general"


@dataclass(frozen=True)
class StructuralAnalysis:
    """Everything the planner needs to know about a query's structure."""

    structural_class: str
    #: GYO acyclicity of the relational atoms, constraints aside.
    acyclic: bool
    join_tree: Optional[JoinTree]
    num_atoms: int
    num_variables: int
    query_size: int
    num_inequalities: int
    num_comparisons: int
    #: Per-atom variable names (position order) of the analyzed query.  The
    #: join tree above names these variables; an α-renamed shape twin
    #: served by the same cached plan must not reuse it (see
    #: :func:`variable_layout`), since its edges are matched by name.
    variable_layout: Tuple[Tuple[str, ...], ...] = ()

    def summary(self) -> str:
        """One line for ``explain`` output."""
        shape = "acyclic (GYO)" if self.acyclic else "cyclic"
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
    join tree remains directly reusable.

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


def analyze(query: ConjunctiveQuery) -> StructuralAnalysis:
    """Sort *query* into ``acyclic`` (a GYO join tree and no constraint
    atom) or ``general``.

    Pure function of the query (no database): the same analysis is valid
    for every constant binding of the same shape, which is what makes the
    plan cache sound.
    """
    try:
        join_tree: Optional[JoinTree] = JoinTree.from_hypergraph(query.hypergraph())
    except NotAcyclicError:
        join_tree = None
    acyclic = join_tree is not None
    relational = not (query.inequalities or query.comparisons)
    return StructuralAnalysis(
        structural_class=ACYCLIC if acyclic and relational else GENERAL,
        acyclic=acyclic,
        join_tree=join_tree,
        num_atoms=query.num_atoms(),
        num_variables=query.num_variables(),
        query_size=query.query_size(),
        num_inequalities=len(query.inequalities),
        num_comparisons=len(query.comparisons),
        variable_layout=variable_layout(query),
    )


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
