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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError, SchemaError
from ..query.atoms import Atom
from ..query.terms import Constant, Term, Variable
from ..relational.attributes import check_attribute_names
from ..relational.database import Database
from ..relational.relation import Relation


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
        return relation._renamed(check_attribute_names(var_names))

    names = relation.attributes
    selected = relation
    if constant_checks:
        # σ_{a=c,...} is a probe of the cached index on the constant
        # positions (select_eq; its fallback scans for an unhashable
        # constant), so repeated-variable equality only walks that bucket.
        selected = relation.select_eq({names[p]: value for p, value in constant_checks})
    for a, b in equality_checks:
        selected = selected.select_attr_eq(names[a], names[b])
    kept = selected.project(tuple(names[p] for p in out_positions))
    return kept._renamed(check_attribute_names(var_names))


def candidate_relations(
    atoms: Sequence[Atom], database: Database
) -> List[Relation]:
    """S_j for every atom, in order (the initialization of all algorithms)."""
    return [atom_candidate_relation(a, database[a.relation]) for a in atoms]


def answers_relation(
    head_terms: Sequence[Term], assignments: Relation
) -> Relation:
    """Project a relation of satisfying assignments onto the head tuple.

    *assignments* has one attribute per variable (named by the variable);
    the result has one column per head term, with synthetic names ``o0..``
    since head terms may repeat variables or be constants.
    """
    attribute_index = {name: i for i, name in enumerate(assignments.attributes)}
    positions = []
    for term in head_terms:
        if isinstance(term, Constant):
            positions.append(None)
        else:
            position = attribute_index.get(term.name)
            if position is None:
                raise QueryError(
                    f"assignments relation misses head variable {term!r}"
                )
            positions.append(position)
    return read_off(head_terms, assignments, tuple(positions))


def read_off(
    head_terms: Sequence[Term],
    relation: Relation,
    positions: Sequence[Optional[int]],
) -> Relation:
    """The head tuples of *relation*'s rows: per head term, the column at
    its position, or the constant itself where the position is ``None``.
    Columns ``o0..`` as in :func:`answers_relation`."""
    names = tuple(f"o{i}" for i in range(len(head_terms)))
    if None not in positions and len(set(positions)) == len(positions):
        # Distinct variables only: a column selection (the rows themselves
        # when the head *is* the relation's columns), no per-row Python;
        # only the names change, so the caches are shared.
        attributes = relation.attributes
        selected = relation.project(tuple(attributes[p] for p in positions))
        return selected._renamed(names)
    sources = [
        (position, None if position is not None else term.value)
        for term, position in zip(head_terms, positions)
    ]
    rows = dict.fromkeys(
        tuple(value if position is None else row[position]
              for position, value in sources)
        for row in relation
    )
    return Relation._from_order(names, tuple(rows))
