"""N-wide execution of same-shape query batches (batch *lifting*).

``QueryEngine.run_batch`` groups operations by their binding-independent
shape.  A group of same-shape members — typically the decision instances
``Q[t/head]`` of one parameterized query — differs only in constant
values.  Executing the members one by one repeats the whole evaluation N
times; *lifting* executes the group once:

1. **generalize** — every constant position becomes a fresh *parameter
   variable*; positions whose constant values agree across *all* members
   collapse to one parameter (so the decision instances of one head
   variable reconstruct that variable, and the lifted query keeps the
   member shape's structure);
2. **restrict** — a parameter relation holding the members' value vectors
   joins in as one extra atom, so the lifted query computes exactly the
   union of the members' sub-results (the classic parameter-table /
   sideways-information-passing trick), never the unrestricted query;
3. **distribute** — the lifted answer relation is indexed on the parameter
   columns (one cached kernel index) and each member's result is read off
   with a single probe.

Soundness: selecting the lifted answers at one member's parameter vector
re-imposes precisely that member's constants, so distribution returns the
exact relation the member's own execution would (the engine's tests pin
this equivalence).  Lifting declines (returns ``None``) whenever the
group's members are not literal constant-variants of one template — or
carry inequality/comparison atoms — and the engine falls back to
per-member execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..evaluation.instantiation import answers_relation
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Term, Variable
from ..relational.database import Database
from ..relational.relation import Relation

#: Relation name of the injected parameter table (made collision-free).
PARAM_RELATION = "__batch_params"


@dataclass(frozen=True)
class LiftedBatch:
    """One lifted group: the query to run once and how to split the result.

    Attributes
    ----------
    query:
        The generalized query (parameter variables in the head, parameter
        atom in the body).
    database:
        The input database extended with the parameter relation.
    members:
        The original member queries, in group order.
    member_keys:
        Per member, its parameter-value key in the lifted answer's index
        convention (raw value for one parameter, tuple otherwise).
    param_positions:
        Column positions of the parameters inside the lifted answer.
    head_variable_names:
        The template's distinct head variable names, in head order.
    head_variable_positions:
        Their column positions inside the lifted answer.
    """

    query: ConjunctiveQuery
    database: Database
    members: Tuple[ConjunctiveQuery, ...]
    member_keys: Tuple[Any, ...]
    param_positions: Tuple[int, ...]
    head_variable_names: Tuple[str, ...]
    head_variable_positions: Tuple[int, ...]

    def distribute(self, lifted_answers: Relation) -> List[Relation]:
        """Member results, in order, from one lifted answer relation.

        Each member's satisfying assignments are one probe of the lifted
        answer's cached parameter index, projected to the head variables;
        rendering onto the member's head terms is delegated to
        :func:`~repro.evaluation.instantiation.answers_relation`, the same
        routine per-member execution bottoms out in.  A member head
        constant is rendered from the head term itself — sound because the
        parameter selection already pinned every bucket row to exactly
        that member's constants.
        """
        index = lifted_answers._index(self.param_positions)
        positions = self.head_variable_positions
        results: List[Relation] = []
        for member, key in zip(self.members, self.member_keys):
            bucket = index.get(key, ())
            if positions:
                rows = dict.fromkeys(tuple(row[p] for p in positions) for row in bucket)
            else:
                rows = ((),) if bucket else ()
            assignments = Relation._from_order(self.head_variable_names, tuple(rows))
            results.append(answers_relation(member.head_terms, assignments))
        return results

    def decide_members(self, reduced_root: Optional[Relation]) -> List[bool]:
        """Member decisions, in order, from the reduced parameter relation.

        *reduced_root* is the parameter atom's candidate relation after a
        bottom-up semijoin pass rooted there (``None`` when the lifted
        query is globally empty): every surviving parameter vector
        participates in a global match, so a member's query is nonempty
        iff its vector survived.
        """
        if reduced_root is None or reduced_root.is_empty():
            return [False] * len(self.members)
        param_names = tuple(term.name for term in self.query.atoms[-1].terms)
        aligned = reduced_root.project(param_names)
        if len(param_names) == 1:
            surviving = {row[0] for row in aligned}
        else:
            surviving = aligned.rows
        return [key in surviving for key in self.member_keys]


def lift_batch_group(
    members: Sequence[ConjunctiveQuery], database: Database
) -> Optional[LiftedBatch]:
    """Build the lifted execution for a same-template group, or ``None``.

    Members must be constant-variants of one template: identical atoms and
    head up to constant *values* (relation names, arities, and variables
    equal position by position), with no inequality or comparison atoms.
    """
    template = members[0]
    if template.inequalities or template.comparisons:
        return None
    for member in members[1:]:
        if not _same_template(template, member):
            return None

    # Constant positions and their value vectors across members.
    constant_slots: List[Tuple[int, int]] = []  # (atom index, term position)
    for atom_index, atom in enumerate(template.atoms):
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constant_slots.append((atom_index, position))

    vectors: Dict[Tuple[int, int], Tuple[Any, ...]] = {
        slot: tuple(member.atoms[slot[0]].terms[slot[1]].value for member in members)
        for slot in constant_slots
    }
    # Merge slots with identical value vectors into one parameter class.
    classes: Dict[Tuple[Any, ...], Variable] = {}
    taken = {v.name for v in template.variables()}

    def parameter_for(vector: Tuple[Any, ...]) -> Variable:
        found = classes.get(vector)
        if found is None:
            name = f"p{len(classes)}"
            while name in taken:
                name = "_" + name
            found = Variable(name)
            classes[vector] = found
        return found

    lifted_atoms: List[Atom] = []
    for atom_index, atom in enumerate(template.atoms):
        terms: List[Term] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                terms.append(parameter_for(vectors[(atom_index, position)]))
            else:
                terms.append(term)
        lifted_atoms.append(Atom(atom.relation, tuple(terms)))

    if not classes:
        return None  # all members identical — the engine shares one result

    param_variables = tuple(classes.values())
    param_vectors = tuple(classes.keys())
    param_name = PARAM_RELATION
    while param_name in database:
        param_name = "_" + param_name
    param_atom = Atom(param_name, param_variables)
    key_rows = _member_key_rows(param_vectors, members)
    param_relation = Relation.from_rows(
        tuple(v.name for v in param_variables), set(key_rows)
    )

    head_variables = tuple(
        dict.fromkeys(
            term
            for term in template.head_terms
            if isinstance(term, Variable)
        )
    )
    lifted_head = head_variables + param_variables
    lifted_query = ConjunctiveQuery(
        lifted_head,
        lifted_atoms + [param_atom],
        head_name=f"{template.head_name}__wide",
    )

    # Compile the distribution layout against the lifted answer columns.
    column_of = {
        term: position for position, term in enumerate(lifted_head)
    }
    param_positions = tuple(column_of[v] for v in param_variables)
    if len(param_variables) == 1:
        member_keys = tuple(key_row[0] for key_row in key_rows)
    else:
        member_keys = tuple(key_rows)

    return LiftedBatch(
        query=lifted_query,
        # extend_domain: member constants may probe values the database
        # has never seen (a legitimate "is t in Q(d)?" with answer no).
        database=database.with_relation(param_name, param_relation, extend_domain=True),
        members=tuple(members),
        member_keys=member_keys,
        param_positions=param_positions,
        head_variable_names=tuple(v.name for v in head_variables),
        head_variable_positions=tuple(column_of[v] for v in head_variables),
    )


def _member_key_rows(
    param_vectors: Tuple[Tuple[Any, ...], ...],
    members: Sequence[ConjunctiveQuery],
) -> List[Tuple[Any, ...]]:
    """Per member, its value for each parameter class, in class order."""
    return [
        tuple(vector[i] for vector in param_vectors) for i in range(len(members))
    ]


def _same_template(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Equal up to constant values: same relations, arities, variables and
    constant positions, atom by atom and in the head."""
    if len(left.atoms) != len(right.atoms):
        return False
    if len(left.head_terms) != len(right.head_terms):
        return False
    if right.inequalities or right.comparisons:
        return False
    for left_atom, right_atom in zip(left.atoms, right.atoms):
        if left_atom.relation != right_atom.relation:
            return False
        if len(left_atom.terms) != len(right_atom.terms):
            return False
        if not _same_term_pattern(left_atom.terms, right_atom.terms):
            return False
    return _same_term_pattern(left.head_terms, right.head_terms)


def _same_term_pattern(left_terms: Sequence[Term], right_terms: Sequence[Term]) -> bool:
    for left_term, right_term in zip(left_terms, right_terms):
        if isinstance(left_term, Variable):
            if left_term != right_term:
                return False
        elif not isinstance(right_term, Constant):
            return False
    return True
