"""The generic backtracking evaluator — the paper's n^O(q) algorithm.

This is the baseline every other engine is measured against: it enumerates
instantiations of the query variables atom by atom, probing hash indexes on
the positions already bound.  Its worst-case running time is n^Θ(q) (with q
the query size), which is precisely the data-complexity-polynomial /
parametrically-intractable behaviour the paper analyzes.  It supports the
full conjunctive fragment with inequalities and comparisons, so it doubles
as the ground-truth oracle for the Theorem 2 and Theorem 3 machinery.

The search is *generated*, not interpreted.  For one (query shape, atom
order, emitted terms) :func:`_generate` writes the source of one generator
function: a ``for r<d> in ...`` loop per atom in join order — over the
atom's rows (or its constant-key bucket) when nothing bound reaches it,
over ``idx<d>(key, ())`` otherwise, the key spelled from the variables and
constants in its indexed positions — and inside each loop the step
counter, the atom's repeated-variable equalities, the bindings ``v<i> =
r<d>[p]`` of the variables somebody reads later, and every ≠ / < / ≤ as an
``if ...: continue`` at the depth where its last variable is bound
(:func:`~repro.relational.relation.values_equal` spelled ``a is b or a ==
b``).  The innermost body yields the emitted tuple — the head for
``evaluate``, every variable for ``satisfying_assignments``, ``()`` for
the deciders — so nothing is built per assignment that the caller did not
ask for.  CPython nests at most 20 loops in one function; a query with more
atoms continues in a nested generator function per further 20.

The text names only ``v<i>`` / ``r<d>`` / ``k<i>`` / ``idx<d>`` /
``rows<d>`` slots: constants, relation names and data never reach it —
they are the function's *arguments* — so one text serves every request of
a shape and :func:`_compiled` keeps one function per text in a bounded
memo.

One *step* is one row visited, at any depth.  Every ``_POLL_STRIDE`` steps
the ambient cancel token is polled, and a budgeted search raises
:class:`_BudgetSpent` on the first row past its budget.  The search stays
depth-first rather than set-at-a-time: its memory is O(depth) whatever the
data, and n^k nodes are exactly where a deadline has to be seen from
inside.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidOperationError, QueryError
from ..operations import DECIDE, EXECUTE, Operation
from ..query.atoms import Inequality
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Term
from ..relational.database import Database
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import check_atom_arity

#: Search steps between two polls of the ambient cancel token.
_POLL_STRIDE = 2048

#: Distinct search texts whose compiled function is kept.
_MEMO_SIZE = 256

#: CPython's limit on statically nested blocks in one function.
_MAX_NESTING = 20


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
        heads = dict.fromkeys(
            self._search(query, database, query.head_terms, atom_order)
        )
        names = tuple(f"o{i}" for i in range(len(query.head_terms)))
        return Relation._from_order(names, tuple(heads))

    def satisfying_assignments(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> Relation:
        """All satisfying instantiations, one column per query variable."""
        variables = query.variables()
        return Relation.from_rows(
            tuple(v.name for v in variables),
            self._search(query, database, variables, atom_order),
        )

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        atom_order: Optional[Sequence[int]] = None,
    ) -> bool:
        """Is Q(d) nonempty?  Stops at the first satisfying instantiation."""
        for _ in self._search(query, database, (), atom_order):
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
            for _ in self._search(query, database, (), max_steps=max_steps):
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
    # Search
    # ------------------------------------------------------------------

    def _search(
        self,
        query: ConjunctiveQuery,
        database: Database,
        emit: Sequence[Term],
        atom_order: Optional[Sequence[int]] = None,
        max_steps: Optional[int] = None,
    ) -> Iterator[Tuple]:
        """The *emit* tuple of every satisfying valuation, depth first
        (callers that want one stop iterating).  With *max_steps*, raises
        :class:`_BudgetSpent` on the first row visited past that many."""
        if atom_order is None:
            order = self._atom_order(query)
        else:
            order = list(atom_order)
            if sorted(order) != list(range(len(query.atoms))):
                raise QueryError(
                    f"atom_order {order!r} is not a permutation of "
                    f"0..{len(query.atoms) - 1}"
                )
        source, arguments = _generate(query, database, order, emit)
        stop_after = sys.maxsize if max_steps is None else max_steps
        return _compiled(source)(stop_after, *arguments)

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


# ----------------------------------------------------------------------
# The generated search
# ----------------------------------------------------------------------

#: Opens every loop body: one step per row, the poll and the budget.
_COUNT_STEP = (
    "steps += 1",
    "if steps >= poll_at:",
    "    if steps > stop_after:",
    "        raise _BudgetSpent",
    "    check_cancelled()",
    "    poll_at = min(steps + _POLL_STRIDE, stop_after + 1)",
)


def _generate(
    query: ConjunctiveQuery,
    database: Database,
    order: Sequence[int],
    emit: Sequence[Term],
) -> Tuple[str, List[Any]]:
    """The source of the search for *query* with its atoms taken in *order*
    and *emit* yielded per satisfying valuation, and the arguments — after
    ``stop_after`` — that bind that text to *database* and the query's
    constants."""
    parameters = ["stop_after"]
    arguments: List[Any] = []
    names: Dict[Term, str] = {}  # variable -> its name in the text
    bound_at: Dict[str, int] = {}  # that name -> the depth that binds it
    # Names somebody reads — a later probe key, a constraint, the emitted
    # tuple; the others are never assigned.
    read = set()

    def parameter(name: str, value: Any) -> str:
        parameters.append(name)
        arguments.append(value)
        return name

    def spell(term: Term) -> str:
        if isinstance(term, Constant):
            return parameter(f"k{len(arguments)}", term.value)
        read.add(names[term])
        return names[term]

    loops = []  # per depth: what to iterate, equality checks, name -> cell
    for depth, index in enumerate(order):
        atom = query.atoms[index]
        relation = database[atom.relation]
        check_atom_arity(atom, relation)
        # Static shape of the probe at this depth: positions holding a
        # constant or a variable bound earlier are the key; the others bind
        # a new variable or repeat one first seen in this very atom.
        key: List[Tuple[int, Term]] = []
        cells: Dict[str, str] = {}
        equalities: List[str] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                key.append((position, term))
                continue
            name = names.get(term)
            if name is None:
                name = names[term] = f"v{len(names)}"
                bound_at[name] = depth
                cells[name] = f"r{depth}[{position}]"
            elif name in cells:
                a, b = cells[name], f"r{depth}[{position}]"
                equalities.append(f"if not ({a} is {b} or {a} == {b}): continue")
            else:
                key.append((position, term))
        # Keys follow Relation._index: the raw value for one position, a
        # tuple otherwise.
        positions = tuple(position for position, _ in key)
        if not key:
            rows = parameter(f"rows{depth}", relation._row_order())
        elif all(isinstance(term, Constant) for _, term in key):
            values = tuple(term.value for _, term in key)
            bucket = relation._index(positions).get(
                values[0] if len(values) == 1 else values, ()
            )
            rows = parameter(f"rows{depth}", bucket)
        else:
            probe = parameter(f"idx{depth}", relation._index(positions).get)
            spelled = [spell(term) for _, term in key]
            probe_key = spelled[0] if len(key) == 1 else f"({', '.join(spelled)})"
            rows = f"{probe}({probe_key}, ())"
        loops.append((rows, equalities, cells))

    # A constraint is checked at the depth that binds its last variable.
    checks: List[List[str]] = [[] for _ in loops]
    for constraint in query.inequalities + query.comparisons:
        left, right = spell(constraint.left), spell(constraint.right)
        if isinstance(constraint, Inequality):
            check = f"if {left} is {right} or {left} == {right}: continue"
        else:
            check = f"if not {left} {constraint.op} {right}: continue"
        checks[max(bound_at.get(left, 0), bound_at.get(right, 0))].append(check)
    emitted = "".join([f"{spell(term)}, " for term in emit])

    # Innermost first.  CPython compiles at most _MAX_NESTING statically
    # nested loops, so every further run of them becomes a nested generator
    # function that the loop above it delegates to.
    lines = [f"yield ({emitted})"]
    for start in reversed(range(0, len(loops), _MAX_NESTING)):
        nest: List[str] = []
        pad = ""
        for depth in range(start, min(start + _MAX_NESTING, len(loops))):
            rows, equalities, cells = loops[depth]
            bindings = [
                f"{name} = {cell}" for name, cell in cells.items() if name in read
            ]
            nest.append(f"{pad}for r{depth} in {rows}:")
            pad += "    "
            inside = (*_COUNT_STEP, *equalities, *bindings, *checks[depth])
            nest.extend([pad + line for line in inside])
        nest.extend([pad + line for line in lines])
        lines = nest
        if start:
            lines = [
                "def deeper():",
                "    nonlocal steps, poll_at",
                *["    " + line for line in nest],
                "yield from deeper()",
            ]
    lines[:0] = ["steps = 0", "poll_at = min(_POLL_STRIDE, stop_after + 1)"]
    source = f"def search({', '.join(parameters)}):\n    " + "\n    ".join(lines)
    return source + "\n", arguments


@lru_cache(maxsize=_MEMO_SIZE)
def _compiled(source: str) -> Callable[..., Iterator[Tuple]]:
    """The generator function *source* defines.  The text holds slots, not
    data (see the module docstring), so the memo holds no data either."""
    # All a text may name besides its arguments and the builtins.
    namespace = {
        "_BudgetSpent": _BudgetSpent,
        "check_cancelled": check_cancelled,
        "_POLL_STRIDE": _POLL_STRIDE,
    }
    exec(compile(source, "<naive search>", "exec"), namespace)
    return namespace["search"]
