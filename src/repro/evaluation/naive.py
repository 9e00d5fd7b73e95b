"""The generic backtracking evaluator — the paper's n^O(q) algorithm.

This is the baseline every other engine is measured against: it enumerates
instantiations of the query variables atom by atom, probing hash indexes on
the positions already bound.  Its worst-case running time is n^Θ(q) (with q
the query size), which is precisely the data-complexity-polynomial /
parametrically-intractable behaviour the paper analyzes.  It supports the
full conjunctive fragment with inequalities and comparisons, so it doubles
as the ground-truth oracle for the Theorem 2 and Theorem 3 machinery.

Kernel notes: the search is *compiled* per query.  Variables map to integer
slots in a flat valuation list, and each atom (in join order) becomes a
static probe plan: which index to probe (built once per search, cached on
the relation), how to assemble the probe key (constants and already-bound
slots are known statically), which positions bind new slots, and which
intra-atom repeated-variable equalities to check.  The enumeration itself is
an iterative depth-first loop — no per-node dicts, no recursive generator
chains, no isinstance checks in the hot path.
"""

from __future__ import annotations

import sys
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import InvalidOperationError, QueryError
from ..operations import DECIDE, EXECUTE, Operation
from ..query.atoms import Atom, Comparison, Inequality
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Variable
from ..relational.database import Database
from ..relational.relation import Relation, values_equal
from ..resilience.token import check_cancelled
from .instantiation import answers_relation, check_atom_arity

#: One compiled probe plan per atom:
#: (rows_for(valuation) -> bucket, intra-atom equality (pos, pos) pairs,
#:  (pos, slot) new-variable bindings, constraint checks ready at this depth)
_Plan = Tuple[
    Callable[[List[Any]], Iterable[Tuple]],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Callable[[List[Any]], bool], ...],
]


#: Search steps between two polls of the ambient cancel token.
_POLL_STRIDE = 2048


class _BudgetSpent(Exception):
    """A budgeted search ran out of steps before finding or refuting a
    witness (internal to :meth:`NaiveEvaluator.first_witness`)."""


class NaiveEvaluator:
    """Backtracking join evaluation with index probing and constraint checks.

    The evaluator holds no state: the index buckets it probes are cached
    on the (immutable) relations themselves, so they are shared across
    evaluators and with the relational algebra, and freed with the
    relation.
    """

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> Relation:
        """Compute Q(d) as a relation of head tuples.

        *atom_order* optionally overrides the built-in greedy join order
        with an explicit permutation of atom indices — the adaptive
        engine's planner supplies its cost-based order this way.
        """
        return answers_relation(
            query.head_terms,
            self.satisfying_assignments(query, database, atom_order=atom_order),
        )

    def satisfying_assignments(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> Relation:
        """All satisfying instantiations, one column per query variable."""
        return Relation.from_rows(
            tuple(v.name for v in query.variables()),
            self._search(query, database, atom_order=atom_order),
        )

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> bool:
        """Is Q(d) nonempty?  Stops at the first satisfying instantiation."""
        for _ in self._search(query, database, atom_order=atom_order):
            return True
        return False

    def first_witness(
        self, query: ConjunctiveQuery, database: Database, max_steps: int
    ) -> Optional[bool]:
        """``decide`` within *max_steps* search steps, or ``None``.

        ``True`` at the first satisfying instantiation, ``False`` when the
        search space is exhausted inside the budget, ``None`` when the
        budget is spent first — the caller then owns the answer.  The
        built-in connected atom order is used, so every atom after the
        first of its component is an index probe on a bound variable.
        """
        try:
            for _ in self._search(query, database, max_steps=max_steps):
                return True
        except _BudgetSpent:
            return None
        return False

    def run(self, operation: Operation, database: Database) -> Any:
        """The generic operation entry point (``execute``/``decide`` only).

        The naive engine has no planner, explainer, or counting pass, so
        the remaining kinds raise a typed
        :class:`~repro.errors.InvalidOperationError` instead of silently
        approximating them.  A forced ``evaluator`` option is ignored —
        this engine *is* the naive evaluator.
        """
        if operation.kind == EXECUTE:
            return self.evaluate(operation.query, database)
        if operation.kind == DECIDE:
            return self.decide(operation.query, database)
        raise InvalidOperationError(
            f"NaiveEvaluator cannot run {operation.kind!r} operations; "
            "only execute/decide"
        )

    def run_batch(
        self, operations: Sequence[Operation], database: Database
    ) -> List[Any]:
        """Sequential member-by-member batch (no lifting machinery here);
        exists so the naive engine satisfies the generic operation API
        that :class:`~repro.evaluation.datalog_eval.DatalogEvaluator`
        requires of its rule engines."""
        return [self.run(operation, database) for operation in operations]

    def contains(
        self, query: ConjunctiveQuery, database: Database, candidate: Sequence[Any]
    ) -> bool:
        """The decision problem: is *candidate* ∈ Q(d)?

        Implements the paper's reduction of the membership question to an
        emptiness question by substituting the candidate's constants.
        """
        try:
            decided = query.decision_instance(candidate)
        except QueryError:
            return False  # candidate statically incompatible with the head
        return self.decide(decided, database)

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------

    def _compile(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> Tuple[List[_Plan], int]:
        """Compile the per-atom probe plans for one search."""
        variables = query.variables()
        slot_of: Dict[Variable, int] = {v: i for i, v in enumerate(variables)}
        if atom_order is None:
            order = self._atom_order(query)
        else:
            order = list(atom_order)
            if sorted(order) != list(range(len(query.atoms))):
                raise QueryError(
                    f"atom_order {order!r} is not a permutation of "
                    f"0..{len(query.atoms) - 1}"
                )
        atoms = [query.atoms[i] for i in order]

        ineq_checks = _constraint_schedule(query.inequalities, atoms, slot_of)
        comp_checks = _constraint_schedule(query.comparisons, atoms, slot_of)

        plans: List[_Plan] = []
        bound_slots: set = set()
        for depth, atom in enumerate(atoms):
            relation = database[atom.relation]
            check_atom_arity(atom, relation)
            # Static shape of the probe at this depth: which positions carry
            # constants, which carry variables bound at earlier depths, which
            # bind new slots, and which repeat a variable first seen in this
            # very atom (intra-atom equality).
            key_positions: List[int] = []
            key_parts: List[Tuple[bool, Any]] = []  # (is_slot, slot-or-value)
            bindings: List[Tuple[int, int]] = []
            equalities: List[Tuple[int, int]] = []
            first_seen: Dict[Variable, int] = {}
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    key_positions.append(position)
                    key_parts.append((False, term.value))
                elif slot_of[term] in bound_slots:
                    key_positions.append(position)
                    key_parts.append((True, slot_of[term]))
                elif term in first_seen:
                    equalities.append((first_seen[term], position))
                else:
                    first_seen[term] = position
                    bindings.append((position, slot_of[term]))
            rows_for = _make_probe(relation, tuple(key_positions), key_parts)
            checks = tuple(
                ineq_checks.get(depth, ()) + comp_checks.get(depth, ())
            )
            plans.append((rows_for, tuple(equalities), tuple(bindings), checks))
            bound_slots.update(slot_of[v] for v in atom.variables())
        return plans, len(variables)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _search(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
        max_steps: Optional[int] = None,
    ) -> Iterator[Tuple]:
        """Every satisfying valuation, depth first (callers that want one
        stop iterating).  With *max_steps*, raises :class:`_BudgetSpent`
        once that many rows have been visited."""
        plans, num_slots = self._compile(query, database, atom_order=atom_order)
        valuation: List[Any] = [None] * num_slots

        if not plans:
            # No atoms: the empty instantiation satisfies vacuously.
            yield tuple(valuation)
            return

        last = len(plans) - 1
        iters: List[Iterator[Tuple]] = [iter(())] * len(plans)
        iters[0] = iter(plans[0][0](valuation))
        depth = 0
        # One step per row visited and per backtrack.  The search has no
        # level boundaries to check at, so the cancel token is polled on a
        # stride — n^k nodes is exactly the blow-up deadlines exist for —
        # and the step budget is checked at the same point.
        steps = 0
        stop_after = sys.maxsize if max_steps is None else max_steps
        poll_at = min(_POLL_STRIDE, stop_after + 1)
        while depth >= 0:
            steps += 1
            if steps >= poll_at:
                if steps > stop_after:
                    raise _BudgetSpent
                check_cancelled()
                poll_at = min(steps + _POLL_STRIDE, stop_after + 1)
            rows_for, equalities, bindings, checks = plans[depth]
            descended = False
            for row in iters[depth]:
                if equalities:
                    ok = True
                    for a, b in equalities:
                        if not values_equal(row[a], row[b]):
                            ok = False
                            break
                    if not ok:
                        steps += 1
                        continue
                for position, slot in bindings:
                    valuation[slot] = row[position]
                if checks:
                    ok = True
                    for check in checks:
                        if not check(valuation):
                            ok = False
                            break
                    if not ok:
                        steps += 1
                        continue
                if depth == last:
                    yield tuple(valuation)
                else:
                    depth += 1
                    iters[depth] = iter(plans[depth][0](valuation))
                    descended = True
                    break
            if not descended:
                depth -= 1

    @staticmethod
    def _atom_order(query: ConjunctiveQuery) -> List[int]:
        """Greedy connectivity order: prefer atoms sharing bound variables.

        Starting from the atom with the most constants, repeatedly pick the
        unprocessed atom with the largest overlap with already-bound
        variables (ties: fewer new variables).  Keeps the backtracking tree
        narrow on chain- and star-shaped queries.
        """
        remaining = set(range(len(query.atoms)))
        bound: set = set()
        order: List[int] = []

        def constants_of(i: int) -> int:
            return sum(
                1 for t in query.atoms[i].terms if isinstance(t, Constant)
            )

        while remaining:
            def score(i: int) -> Tuple[int, int, int]:
                atom_vars = set(query.atoms[i].variables())
                return (
                    len(atom_vars & bound),
                    constants_of(i),
                    -len(atom_vars - bound),
                )

            best = max(sorted(remaining), key=score)
            remaining.remove(best)
            order.append(best)
            bound |= set(query.atoms[best].variables())
        return order


def _make_probe(
    relation: Relation,
    key_positions: Tuple[int, ...],
    key_parts: List[Tuple[bool, Any]],
) -> Callable[[List[Any]], Iterable[Tuple]]:
    """Compile ``valuation -> rows matching the probe key`` for one atom.

    Key conventions follow :meth:`Relation._index`: raw values for a single
    indexed position, tuples otherwise.  Fully static keys (all constants)
    are resolved to their bucket at compile time; an atom with nothing
    bound iterates the relation's rows as they are, with no index at all.
    """
    empty: Tuple = ()
    if not key_parts:
        all_rows = relation._row_order()
        return lambda valuation: all_rows
    buckets = relation._index(key_positions)
    if len(key_parts) == 1:
        is_slot, payload = key_parts[0]
        if not is_slot:
            bucket = buckets.get(payload, empty)
            return lambda valuation: bucket
        return lambda valuation: buckets.get(valuation[payload], empty)
    if all(not is_slot for is_slot, _ in key_parts):
        bucket = buckets.get(tuple(v for _, v in key_parts), empty)
        return lambda valuation: bucket
    parts = tuple(key_parts)
    return lambda valuation: buckets.get(
        tuple(valuation[p] if is_slot else p for is_slot, p in parts), empty
    )


def _constraint_schedule(
    constraints, atoms: List[Atom], slot_of: Dict[Variable, int]
) -> Dict[int, Tuple]:
    """Map each atom depth to the constraint checks that become ready there.

    A constraint is *ready* at the first depth where all of its variables
    are bound; the returned closures read the flat slot valuation.
    """
    first_bound: Dict[Variable, int] = {}
    for depth, atom in enumerate(atoms):
        for v in atom.variables():
            first_bound.setdefault(v, depth)

    schedule: Dict[int, List] = {}
    for constraint in constraints:
        depths = [first_bound[v] for v in constraint.variables()]
        ready_at = max(depths) if depths else 0
        schedule.setdefault(ready_at, []).append(_make_check(constraint, slot_of))
    return {depth: tuple(checks) for depth, checks in schedule.items()}


def _make_check(constraint, slot_of: Dict[Variable, int]):
    """Compile one ≠ / < / ≤ constraint into a slot-valuation closure."""

    def reader(term):
        if isinstance(term, Constant):
            value = term.value
            return lambda valuation: value
        slot = slot_of[term]
        return lambda valuation: valuation[slot]

    left = reader(constraint.left)
    right = reader(constraint.right)

    if isinstance(constraint, Inequality):
        def check(valuation, _l=left, _r=right):
            return not values_equal(_l(valuation), _r(valuation))
        return check
    if isinstance(constraint, Comparison):
        strict = constraint.strict

        def check(valuation, _l=left, _r=right, _s=strict):
            lv = _l(valuation)
            rv = _r(valuation)
            return lv < rv if _s else lv <= rv
        return check
    raise QueryError(f"unknown constraint type: {constraint!r}")
