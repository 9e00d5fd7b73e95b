"""Conjunctive queries in rule form: ``G(t0) ← R1(t1), ..., Rs(ts)``.

A :class:`ConjunctiveQuery` carries a head (output name + terms), relational
atoms, and optionally inequality (≠) and comparison (< / ≤) atoms — the
three body kinds that appear in the paper.  The two complexity parameters of
the paper are exposed as :meth:`query_size` (q) and :meth:`num_variables`
(v).

Queries must be *safe* (every head variable occurs in a relational atom) and
*range-restricted* (every variable of an inequality or comparison atom
occurs in a relational atom); unsafe queries raise :class:`QueryError` at
construction time.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import QueryError
from .atoms import Atom, Comparison, Inequality
from .terms import Constant, Term, Variable, terms, variables_in


class ConjunctiveQuery:
    """An immutable conjunctive query, possibly with ≠ and < atoms.

    Parameters
    ----------
    head_terms:
        Terms of the head tuple t0 (variables and constants).
    atoms:
        Relational atoms of the body.  Must be nonempty.
    inequalities, comparisons:
        Optional ≠ and < / ≤ atoms.
    head_name:
        Name of the defined relation G (cosmetic; defaults to ``"ANS"``).

    Immutability lets the values a request path derives from a query be
    computed once per query object: its hash here, and the shape signature
    and variable layout that :mod:`repro.engine.analysis` stores in
    ``_shape`` / ``_layout``.  None of the three is pickled — string hashes
    are salted per process — so an unpickled query derives them afresh.
    """

    __slots__ = (
        "head_name",
        "head_terms",
        "atoms",
        "inequalities",
        "comparisons",
        "_hash",
        "_shape",
        "_layout",
    )

    def __init__(
        self,
        head_terms: Sequence[Any],
        atoms: Iterable[Atom],
        inequalities: Iterable[Inequality] = (),
        comparisons: Iterable[Comparison] = (),
        head_name: str = "ANS",
    ) -> None:
        self.head_name = head_name
        self.head_terms: Tuple[Term, ...] = terms(head_terms)
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self.inequalities: Tuple[Inequality, ...] = tuple(inequalities)
        self.comparisons: Tuple[Comparison, ...] = tuple(comparisons)
        self._hash: Optional[int] = None
        self._shape: Optional[Tuple] = None
        self._layout: Optional[Tuple[Tuple[str, ...], ...]] = None
        self._validate()

    def _validate(self) -> None:
        if not self.atoms:
            raise QueryError("conjunctive query needs at least one relational atom")
        body_vars = self.body_variable_set()
        for v in variables_in(self.head_terms):
            if v not in body_vars:
                raise QueryError(f"unsafe query: head variable {v!r} not in body")
        for ineq in self.inequalities:
            for v in ineq.variables():
                if v not in body_vars:
                    raise QueryError(
                        f"range restriction violated: {v!r} occurs only in {ineq!r}"
                    )
        for comp in self.comparisons:
            for v in comp.variables():
                if v not in body_vars:
                    raise QueryError(
                        f"range restriction violated: {v!r} occurs only in {comp!r}"
                    )

    # ------------------------------------------------------------------
    # Shape and parameters
    # ------------------------------------------------------------------

    def body_variables(self) -> Tuple[Variable, ...]:
        """Distinct variables of the relational atoms, in occurrence order."""
        collected: Dict[Variable, None] = {}
        for atom in self.atoms:
            for v in atom.variables():
                collected.setdefault(v, None)
        return tuple(collected)

    def body_variable_set(self) -> FrozenSet[Variable]:
        return frozenset(self.body_variables())

    def variables(self) -> Tuple[Variable, ...]:
        """All distinct variables (body ∪ head; safety makes this the body's)."""
        return self.body_variables()

    def head_variables(self) -> Tuple[Variable, ...]:
        """Distinct head variables, in head order."""
        return variables_in(self.head_terms)

    def existential_variables(self) -> Tuple[Variable, ...]:
        """Body variables not exported by the head (implicitly ∃-quantified)."""
        exported = set(self.head_variables())
        return tuple(v for v in self.body_variables() if v not in exported)

    def is_boolean(self) -> bool:
        """True iff the head exports no variables (a 0-ary 'goal' query)."""
        return not self.head_variables()

    def num_atoms(self) -> int:
        """Number of relational atoms (the parameter k of the 2-CNF reduction)."""
        return len(self.atoms)

    def query_size(self) -> int:
        """The parameter q: a structural size measure of the query.

        We count one unit per atom occurrence plus one per term occurrence
        (head included), which is within a constant factor of the length of
        the standard string encoding the paper assumes.
        """
        size = 1 + len(self.head_terms)
        for atom in self.atoms:
            size += 1 + atom.arity
        size += 3 * len(self.inequalities)
        size += 3 * len(self.comparisons)
        return size

    def num_variables(self) -> int:
        """The parameter v: number of distinct variables in the query."""
        return len(self.variables())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a variable substitution to head and body uniformly.

        Inequalities that become constant-only are evaluated: a true one is
        dropped, a false one is replaced by an unsatisfiable pair of atoms?
        No — we keep the semantics honest by raising :class:`QueryError`
        if a substitution statically falsifies or trivializes an atom;
        callers (the decision-problem constructor) never do this for
        well-formed candidate tuples with distinct constants per variable.
        """
        new_ineqs = []
        for ineq in self.inequalities:
            left = mapping.get(ineq.left, ineq.left) if isinstance(ineq.left, Variable) else ineq.left
            right = mapping.get(ineq.right, ineq.right) if isinstance(ineq.right, Variable) else ineq.right
            if isinstance(left, Constant) and isinstance(right, Constant):
                if left == right:
                    raise QueryError(
                        f"substitution falsifies {ineq!r}; query is unsatisfiable"
                    )
                continue  # statically true, drop
            new_ineqs.append(Inequality(left, right))
        new_comps = []
        for comp in self.comparisons:
            left = mapping.get(comp.left, comp.left) if isinstance(comp.left, Variable) else comp.left
            right = mapping.get(comp.right, comp.right) if isinstance(comp.right, Variable) else comp.right
            if isinstance(left, Constant) and isinstance(right, Constant):
                if comp.holds(left.value, right.value):
                    continue  # statically true, drop
                raise QueryError(
                    f"substitution falsifies {comp!r}; query is unsatisfiable"
                )
            new_comps.append(Comparison(left, right, comp.strict))
        return ConjunctiveQuery(
            tuple(
                mapping.get(t, t) if isinstance(t, Variable) else t
                for t in self.head_terms
            ),
            (a.substitute(mapping) for a in self.atoms),
            new_ineqs,
            new_comps,
            head_name=self.head_name,
        )

    def decision_instance(self, candidate: Sequence[Any]) -> "ConjunctiveQuery":
        """The Boolean query asking whether *candidate* ∈ Q(d).

        Substitutes the candidate tuple's constants for the head variables
        (the paper's "after substituting the constants of the tuple t in the
        query Q") and returns the resulting Boolean query.

        Raises :class:`QueryError` if the candidate is incompatible with the
        head pattern (wrong arity, or mismatched constants) or if the same
        head variable would receive two different constants.
        """
        values = tuple(candidate)
        if len(values) != len(self.head_terms):
            raise QueryError(
                f"candidate arity {len(values)} != head arity {len(self.head_terms)}"
            )
        mapping: Dict[Variable, Term] = {}
        for head_term, value in zip(self.head_terms, values):
            if isinstance(head_term, Constant):
                if head_term.value != value:
                    raise QueryError(
                        f"candidate value {value!r} conflicts with head constant "
                        f"{head_term!r}"
                    )
                continue
            bound = mapping.get(head_term)
            if bound is not None and bound != Constant(value):
                raise QueryError(
                    f"candidate binds {head_term!r} to both {bound!r} and {value!r}"
                )
            mapping[head_term] = Constant(value)
        substituted = self.substitute(mapping)
        return ConjunctiveQuery(
            (),
            substituted.atoms,
            substituted.inequalities,
            substituted.comparisons,
            head_name=self.head_name,
        )

    def without_constraints(self) -> "ConjunctiveQuery":
        """The purely relational core (drops ≠ and < atoms)."""
        return ConjunctiveQuery(
            self.head_terms, self.atoms, (), (), head_name=self.head_name
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def hypergraph(self):
        """The query hypergraph H = (V, E) over *relational* atoms only.

        Per §5, inequality and comparison atoms are deliberately excluded;
        the query is *acyclic* iff this hypergraph is acyclic.
        """
        from ..hypergraph import Hypergraph  # local import to avoid a cycle

        edges = [frozenset(a.variable_set()) for a in self.atoms]
        return Hypergraph(self.body_variable_set(), edges)

    def is_acyclic(self) -> bool:
        """True iff the relational-atom hypergraph is (alpha-)acyclic."""
        return self.hypergraph().is_acyclic()

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.head_terms == other.head_terms
            and self.atoms == other.atoms
            and frozenset(self.inequalities) == frozenset(other.inequalities)
            and frozenset(self.comparisons) == frozenset(other.comparisons)
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (
                    self.head_terms,
                    self.atoms,
                    frozenset(self.inequalities),
                    frozenset(self.comparisons),
                )
            )
        return value

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild from the defining parts only: the cached hash is valid in
        # this process alone.
        return (
            type(self),
            (
                self.head_terms,
                self.atoms,
                self.inequalities,
                self.comparisons,
                self.head_name,
            ),
        )

    def __repr__(self) -> str:
        head_inner = ", ".join(repr(t) for t in self.head_terms)
        parts = [repr(a) for a in self.atoms]
        parts += [repr(i) for i in self.inequalities]
        parts += [repr(c) for c in self.comparisons]
        return f"{self.head_name}({head_inner}) :- " + ", ".join(parts)
