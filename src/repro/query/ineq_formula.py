"""Monotone Boolean formulas over inequality atoms (∧ / ∨ of ≠).

The final part of §5 extends Theorem 2 from a *conjunction* of inequalities
to an arbitrary Boolean formula φ built from inequality atoms using ∧ and ∨
(parameter q), and — with restrictions on the variable-constant atoms — for
parameter v as well.  This module provides the φ AST with the measures the
extended algorithms need: the sets of variables and constants occurring in
φ, and evaluation under an instantiation.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Mapping, Tuple, Union

from ..errors import QueryError
from .atoms import Inequality
from .terms import Constant, Variable


class IneqLeaf:
    """A leaf holding one inequality atom."""

    __slots__ = ("atom",)

    def __init__(self, atom: Inequality) -> None:
        self.atom = atom

    def evaluate(self, valuation: Mapping[Variable, Any]) -> bool:
        left = self.atom.left
        right = self.atom.right
        lv = valuation[left] if isinstance(left, Variable) else left.value
        rv = valuation[right] if isinstance(right, Variable) else right.value
        return lv != rv

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(self.atom.variables())

    def constants(self) -> FrozenSet[Constant]:
        return frozenset(self.atom.constants())

    def leaves(self) -> Tuple[Inequality, ...]:
        return (self.atom,)

    def __repr__(self) -> str:
        return repr(self.atom)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IneqLeaf) and self.atom == other.atom

    def __hash__(self) -> int:
        return hash((IneqLeaf, self.atom))


class _Junction:
    """Shared implementation of ∧ / ∨ nodes."""

    __slots__ = ("children",)
    _symbol = "?"
    _fold: Callable

    def __init__(self, children: Iterable["IneqFormula"]) -> None:
        flat = []
        for child in children:
            child = as_ineq_formula(child)
            if type(child) is type(self):
                flat.extend(child.children)  # associativity: flatten
            else:
                flat.append(child)
        if not flat:
            raise QueryError(f"empty {self._symbol}-junction")
        self.children: Tuple["IneqFormula", ...] = tuple(flat)

    def evaluate(self, valuation: Mapping[Variable, Any]) -> bool:
        fold = all if isinstance(self, IneqAnd) else any
        return fold(child.evaluate(valuation) for child in self.children)

    def variables(self) -> FrozenSet[Variable]:
        out: FrozenSet[Variable] = frozenset()
        for child in self.children:
            out |= child.variables()
        return out

    def constants(self) -> FrozenSet[Constant]:
        out: FrozenSet[Constant] = frozenset()
        for child in self.children:
            out |= child.constants()
        return out

    def leaves(self) -> Tuple[Inequality, ...]:
        out: Tuple[Inequality, ...] = ()
        for child in self.children:
            out += child.leaves()
        return out

    def __repr__(self) -> str:
        sym = f" {self._symbol} "
        return "(" + sym.join(repr(c) for c in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self), self.children))


class IneqAnd(_Junction):
    """Conjunction of inequality subformulas."""

    _symbol = "&"


class IneqOr(_Junction):
    """Disjunction of inequality subformulas."""

    _symbol = "|"


IneqFormula = Union[IneqLeaf, IneqAnd, IneqOr]


def as_ineq_formula(value: Union[IneqFormula, Inequality]) -> IneqFormula:
    """Coerce a bare :class:`Inequality` into a leaf."""
    if isinstance(value, Inequality):
        return IneqLeaf(value)
    if isinstance(value, (IneqLeaf, IneqAnd, IneqOr)):
        return value
    raise QueryError(f"not an inequality formula: {value!r}")


def ineq_and(*children: Union[IneqFormula, Inequality]) -> IneqFormula:
    """∧ of the given subformulas (a single child passes through)."""
    if len(children) == 1:
        return as_ineq_formula(children[0])
    return IneqAnd(children)


def ineq_or(*children: Union[IneqFormula, Inequality]) -> IneqFormula:
    """∨ of the given subformulas (a single child passes through)."""
    if len(children) == 1:
        return as_ineq_formula(children[0])
    return IneqOr(children)


def conjunction_of(atoms: Iterable[Inequality]) -> IneqFormula:
    """The plain-conjunction φ corresponding to Theorem 2's atom list."""
    atom_list = list(atoms)
    if not atom_list:
        raise QueryError("conjunction_of needs at least one atom")
    return ineq_and(*atom_list)


def is_conjunctive_in_constants(formula: IneqFormula) -> bool:
    """True iff every variable-constant atom ``x ≠ c`` occurs only under ∧.

    This is the §5 side condition for parameter v: φ must be a conjunction
    of ``x ≠ c`` atoms together with an arbitrary ∧/∨ formula over
    variable-variable atoms.  Concretely we check that no ``x ≠ c`` leaf
    appears beneath an ∨ node.
    """

    def check(node: IneqFormula, under_or: bool) -> bool:
        if isinstance(node, IneqLeaf):
            if not node.atom.is_variable_variable() and under_or:
                return False
            return True
        if isinstance(node, IneqOr):
            return all(check(c, True) for c in node.children)
        return all(check(c, under_or) for c in node.children)

    return check(formula, False)
