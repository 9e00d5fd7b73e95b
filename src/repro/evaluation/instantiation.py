"""Instantiations (valuations) and per-atom candidate relations.

The bridge between query syntax and the relational algebra: an atom
``R(t1, ..., tr)`` over database relation R induces the relation

    S = π_U σ_F (R)

over the atom's distinct variables U, where the selection F keeps tuples
that (i) agree with the atom's constants and (ii) are equal wherever the
atom repeats a variable — exactly the paper's S_j construction used by
Theorem 1's upper bounds, the Yannakakis evaluator, and Algorithms 1–2.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import QueryError, SchemaError
from ..query.atoms import Atom
from ..query.terms import Constant, Term, Variable
from ..relational.attributes import check_attribute_names
from ..relational.database import Database
from ..relational.relation import Relation, values_equal


def check_atom_arity(atom: Atom, relation: Relation) -> None:
    """Raise :class:`SchemaError` unless *atom* has *relation*'s arity."""
    if relation.arity != atom.arity:
        raise SchemaError(
            f"atom {atom!r} has arity {atom.arity}, relation has {relation.arity}"
        )


def atom_candidate_relation(atom: Atom, relation: Relation) -> Relation:
    """The relation S = π_U σ_F (R) of candidate variable bindings for *atom*.

    The result's attributes are the atom's distinct variable names in
    first-occurrence order; each row is one binding of those variables that
    maps the atom into *relation*.  For a variable-free atom the result is
    the nullary TRUE/FALSE relation.
    """
    check_atom_arity(atom, relation)
    variables = atom.variables()
    var_names = tuple(v.name for v in variables)
    first_position: Dict[Variable, int] = {}
    constant_checks: List[Tuple[int, Any]] = []
    equality_checks: List[Tuple[int, int]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_checks.append((position, term.value))
        else:
            seen_at = first_position.get(term)
            if seen_at is None:
                first_position[term] = position
            else:
                equality_checks.append((seen_at, position))
    out_positions = tuple(first_position[v] for v in variables)

    if not constant_checks and not equality_checks:
        # All-distinct-variables atom (out_positions is the identity, since
        # variables are listed in first-occurrence order): the rows pass
        # through untouched — only the column names change, so the
        # relation's cached indexes stay valid and are shared.
        out = Relation._from_frozen(check_attribute_names(var_names), relation.rows)
        return out._share_indexes_with(relation)

    rows = set()
    for row in relation.rows:
        if any(not values_equal(row[p], value) for p, value in constant_checks):
            continue
        if any(not values_equal(row[a], row[b]) for a, b in equality_checks):
            continue
        rows.add(tuple(row[p] for p in out_positions))
    return Relation.from_rows(var_names, rows)


def candidate_relations(
    atoms: Sequence[Atom], database: Database
) -> List[Relation]:
    """S_j for every atom, in order (the initialization of all algorithms)."""
    return [atom_candidate_relation(a, database[a.relation]) for a in atoms]


def matches_atom(atom: Atom, valuation: Mapping[Variable, Any], row: Tuple) -> bool:
    """Does *row* extend *valuation* consistently for *atom*?  (Test helper.)"""
    if len(row) != atom.arity:
        return False
    local: Dict[Variable, Any] = dict(valuation)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if not values_equal(term.value, value):
                return False
        else:
            bound = local.get(term, _UNSET)
            if bound is _UNSET:
                local[term] = value
            elif not values_equal(bound, value):
                return False
    return True


_UNSET = object()


def apply_to_head(
    head_terms: Sequence[Term], valuation: Mapping[Variable, Any]
) -> Tuple:
    """The output tuple τ(t0) for a satisfying valuation τ."""
    out = []
    for term in head_terms:
        if isinstance(term, Constant):
            out.append(term.value)
        else:
            try:
                out.append(valuation[term])
            except KeyError:
                raise QueryError(f"valuation misses head variable {term!r}") from None
    return tuple(out)


def answers_relation(
    head_terms: Sequence[Term], assignments: Relation
) -> Relation:
    """Project a relation of satisfying assignments onto the head tuple.

    *assignments* has one attribute per variable (named by the variable);
    the result has one column per head term, with synthetic names ``o0..``
    since head terms may repeat variables or be constants.
    """
    names = tuple(f"o{i}" for i in range(len(head_terms)))
    attribute_index = {name: i for i, name in enumerate(assignments.attributes)}
    # Compile each head term once: column position for a variable, or the
    # constant value itself (position None).
    sources = []
    for term in head_terms:
        if isinstance(term, Constant):
            sources.append((None, term.value))
        else:
            position = attribute_index.get(term.name)
            if position is None:
                raise QueryError(
                    f"assignments relation misses head variable {term!r}"
                )
            sources.append((position, None))
    if not sources:
        rows = frozenset([()]) if assignments.rows else frozenset()
        return Relation._from_frozen(names, rows)
    positions = tuple(position for position, _ in sources)
    if None not in positions and len(set(positions)) == len(positions):
        # Distinct variables only: a column selection, no per-row Python.
        if positions == tuple(range(assignments.arity)):
            # The head *is* the assignments' columns: the rows pass through
            # untouched — only the names change, so the caches are shared.
            out = Relation._from_frozen(names, assignments.rows)
            return out._share_indexes_with(assignments)
        if len(positions) == 1:
            rows = frozenset(zip(map(itemgetter(positions[0]), assignments.rows)))
        else:
            rows = frozenset(map(itemgetter(*positions), assignments.rows))
        return Relation._from_frozen(names, rows)
    rows = frozenset(
        tuple(value if position is None else row[position]
              for position, value in sources)
        for row in assignments.rows
    )
    return Relation._from_frozen(names, rows)
