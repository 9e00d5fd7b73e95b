"""Homomorphisms, containment and minimization of conjunctive queries.

The paper's opening citation is Chandra and Merlin's "Optimal
implementation of conjunctive queries" [5], whose machinery this module
provides:

* a *homomorphism* from Q1 to Q2 maps Q1's variables to Q2's terms so that
  every atom of Q1 lands on an atom of Q2 and the head is preserved;
* **containment**: Q2 ⊆ Q1 iff a homomorphism Q1 → Q2 exists — decided by
  evaluating Q1 over Q2's *canonical database* (Q2's atoms with variables
  frozen into fresh constants), which reuses the backtracking engine;
* **equivalence** and **minimization**: the core of Q is computed by
  repeatedly dropping atoms while equivalence is preserved; the result is
  the unique (up to renaming) minimal equivalent query.

Containment of conjunctive queries is the combined-complexity NP-complete
problem underlying the paper's parametric analysis, so this module is also
where the theory connects back to classical query optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import QueryError
from .conjunctive import ConjunctiveQuery
from .terms import Constant, Term, Variable


@dataclass(frozen=True)
class _FrozenVariable:
    """A canonical-database value standing for a frozen query variable.

    Distinct from every real constant (by type) and hashable, so the
    canonical database can mix frozen variables with genuine constants.
    """

    name: str

    def __repr__(self) -> str:
        return f"@{self.name}"


def _check_plain(query: ConjunctiveQuery, role: str) -> None:
    if query.inequalities or query.comparisons:
        raise QueryError(
            f"{role} must be a purely relational conjunctive query "
            "(Chandra–Merlin machinery does not cover built-in predicates)"
        )


def canonical_database(query: ConjunctiveQuery):
    """Q's canonical database and its head tuple under the freezing map.

    Returns ``(database, head_tuple)`` where the database holds one tuple
    per atom (variables frozen to :class:`_FrozenVariable` values) and
    *head_tuple* is the frozen image of the head terms.
    """
    from ..relational.database import Database
    from ..relational.relation import Relation
    from ..relational.schema import RelationSchema

    _check_plain(query, "the canonical query")

    def freeze(term: Term) -> Any:
        if isinstance(term, Variable):
            return _FrozenVariable(term.name)
        return term.value

    rows: Dict[str, list] = {}
    arities: Dict[str, int] = {}
    for atom in query.atoms:
        arities.setdefault(atom.relation, atom.arity)
        if arities[atom.relation] != atom.arity:
            raise QueryError(
                f"relation {atom.relation!r} used with two arities"
            )
        rows.setdefault(atom.relation, []).append(
            tuple(freeze(t) for t in atom.terms)
        )
    relations = {
        name: Relation.from_rows(RelationSchema(name, arities[name]).default_attributes(), rs)
        for name, rs in rows.items()
    }
    head = tuple(freeze(t) for t in query.head_terms)
    return Database(relations), head


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[Dict[Variable, Term]]:
    """A homomorphism source → target preserving the head, or None.

    Uses the canonical-database trick: evaluate *source*'s decision problem
    for *target*'s frozen head tuple on *target*'s canonical database; a
    satisfying instantiation unfreezes into the homomorphism.
    """
    from ..evaluation.naive import NaiveEvaluator

    _check_plain(source, "the source query")
    _check_plain(target, "the target query")
    if len(source.head_terms) != len(target.head_terms):
        return None

    database, head = canonical_database(target)
    try:
        decided = source.decision_instance(head)
    except QueryError:
        return None  # head patterns are incompatible
    for atom in decided.atoms:
        if atom.relation not in database:
            return None  # source uses a relation target never mentions
        if database[atom.relation].arity != atom.arity:
            return None  # same name, different arity: no homomorphism

    engine = NaiveEvaluator()
    assignments = engine.satisfying_assignments(decided, database)
    if assignments.is_empty():
        return None

    row = next(iter(assignments))
    names = assignments.attributes

    def unfreeze(value: Any) -> Term:
        if isinstance(value, _FrozenVariable):
            return Variable(value.name)
        return Constant(value)

    mapping: Dict[Variable, Term] = {
        Variable(name): unfreeze(value) for name, value in zip(names, row)
    }
    # Head variables were substituted away by decision_instance; restore
    # their images from the target head.
    for source_term, target_term in zip(source.head_terms, target.head_terms):
        if isinstance(source_term, Variable):
            mapping[source_term] = target_term
    return mapping


def is_homomorphism(
    mapping: Dict[Variable, Term],
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
) -> bool:
    """Check a candidate homomorphism explicitly (verification helper)."""
    target_atoms = set(target.atoms)
    for atom in source.atoms:
        image = atom.substitute(mapping)
        if image not in target_atoms:
            return False
    source_head = tuple(
        mapping.get(t, t) if isinstance(t, Variable) else t
        for t in source.head_terms
    )
    return source_head == target.head_terms


def is_contained_in(
    inner: ConjunctiveQuery, outer: ConjunctiveQuery
) -> bool:
    """Is inner ⊆ outer (on every database)?  Chandra–Merlin: hom outer → inner."""
    return find_homomorphism(outer, inner) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Semantic equivalence: containment both ways."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of *query*: a minimal equivalent subquery.

    Greedily drops atoms whose removal preserves equivalence.  The result
    is unique up to variable renaming (the classical core theorem); tests
    assert equivalence with the input and minimality (no further atom can
    go).
    """
    _check_plain(query, "the query")
    current = query
    changed = True
    while changed:
        changed = False
        if len(current.atoms) == 1:
            break
        for index in range(len(current.atoms)):
            reduced_atoms = (
                current.atoms[:index] + current.atoms[index + 1:]
            )
            try:
                candidate = ConjunctiveQuery(
                    current.head_terms,
                    reduced_atoms,
                    head_name=current.head_name,
                )
            except QueryError:
                continue  # dropping this atom breaks safety
            if are_equivalent(candidate, current):
                current = candidate
                changed = True
                break
    return current
