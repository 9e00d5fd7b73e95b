"""Partitioning inequality atoms into I1 / I2 (§5, Theorem 2 setup).

"Partition the inequality atoms of Q into the set I1 of atoms x_i ≠ x_j
such that the variables x_i, x_j do not occur together in any hyperedge
(relational atom), and the set I2 of the remaining atoms (x_i ≠ c and
x_i ≠ x_j such that x_i, x_j are in a common hyperedge).  Let V1 be the
set of variables that occur in I1 and let k = |V1|."

I2 atoms (and the constant inequalities) can be folded into the per-atom
selections S_j; only I1 needs the hashing machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..errors import QueryError
from ..query.atoms import Inequality
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Variable
from ..relational.database import Database
from ..relational.relation import Relation, values_equal
from ..evaluation.instantiation import atom_candidate_relation


@dataclass(frozen=True)
class InequalityPartition:
    """The (I1, I2, V1, k) of Theorem 2's preprocessing."""

    i1: Tuple[Inequality, ...]
    i2: Tuple[Inequality, ...]
    v1: Tuple[Variable, ...]

    @property
    def k(self) -> int:
        """|V1| — the hash range size."""
        return len(self.v1)

    def partners(self) -> Dict[Variable, FrozenSet[Variable]]:
        """For each V1 variable, its I1 inequality partners."""
        out: Dict[Variable, set] = {v: set() for v in self.v1}
        for ineq in self.i1:
            left, right = ineq.left, ineq.right
            out[left].add(right)   # I1 atoms are variable-variable
            out[right].add(left)
        return {v: frozenset(s) for v, s in out.items()}


def partition_inequalities(query: ConjunctiveQuery) -> InequalityPartition:
    """Split the query's ≠ atoms into I1 and I2."""
    if query.comparisons:
        raise QueryError(
            "Theorem 2 machinery covers != atoms; comparisons are Theorem 3"
        )
    cooccur: set = set()
    for atom in query.atoms:
        vars_ = atom.variables()
        for i, a in enumerate(vars_):
            for b in vars_[i + 1:]:
                cooccur.add(frozenset((a, b)))

    i1: List[Inequality] = []
    i2: List[Inequality] = []
    for ineq in query.inequalities:
        if ineq.is_variable_variable():
            pair = frozenset((ineq.left, ineq.right))
            if pair in cooccur:
                i2.append(ineq)
            else:
                i1.append(ineq)
        else:
            i2.append(ineq)

    v1_ordered: Dict[Variable, None] = {}
    for ineq in i1:
        for v in ineq.variables():
            v1_ordered.setdefault(v, None)
    return InequalityPartition(tuple(i1), tuple(i2), tuple(v1_ordered))


def selected_candidate_relation(
    atom_index: int,
    query: ConjunctiveQuery,
    database: Database,
    i2: Tuple[Inequality, ...],
) -> Relation:
    """S_j = π_{U_j} σ_{F_j}(R_{i_j}) with the I2 / constant selections folded in.

    The selection F_j reflects (i) the atom's constants, (ii) its repeated
    variables, (iii) inequalities x ≠ c with x among the atom's variables,
    and (iv) inequalities x ≠ y with both variables among the atom's
    variables — items (iii)/(iv) of the paper's construction.
    """
    atom = query.atoms[atom_index]
    base = atom_candidate_relation(atom, database[atom.relation])
    names = set(base.attributes)
    result = base
    for ineq in i2:
        left, right = ineq.left, ineq.right
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left.name in names and right.name in names:
                result = result.select_attr_neq(left.name, right.name)
        elif isinstance(left, Variable):
            if left.name in names:
                value = right.value  # type: ignore[union-attr]
                result = result.select(
                    lambda row, _n=left.name, _v=value: not values_equal(
                        row[_n], _v
                    )
                )
        elif isinstance(right, Variable):
            if right.name in names:
                value = left.value  # type: ignore[union-attr]
                result = result.select(
                    lambda row, _n=right.name, _v=value: not values_equal(
                        row[_n], _v
                    )
                )
    return result
