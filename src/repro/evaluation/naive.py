"""The generic backtracking evaluator — the paper's n^O(q) algorithm.

This is the baseline every other engine is measured against: it enumerates
instantiations of the query variables atom by atom, probing hash indexes on
the positions already bound.  Its worst-case running time is n^Θ(q) (with q
the query size), which is precisely the data-complexity-polynomial /
parametrically-intractable behaviour the paper analyzes.  It supports the
full conjunctive fragment with inequalities and comparisons, so it doubles
as the ground-truth oracle for the Theorem 2 and Theorem 3 machinery.

The search is *generated*, not interpreted, and generated once per shape.
A request is first spelled (:func:`_spell`) positionally and without its
constants: per atom its relation name and terms, a variable as the number
of its first occurrence and a constant as ``None``; per ≠ / < / ≤, in the
query's own order, its operator and sides; the emitted terms.  The
constants' values go into a list beside the spelling, each at its *slot*.
The spelling is kept on the query object, one per emitted tuple
(:func:`_spelled`), so a repeated request does not spell again.  A bounded
memo (:func:`_prepared`) maps (spelling, atom order or ``None`` for the
built-in one) to the compiled generator function and a *binding recipe*; on
a hit a request pays only the memo lookup, one arity check per atom and a
few index lookups (:func:`_bind`).

On a miss :func:`_generate` writes the source of one generator function: a
``for r<d> in ...`` loop per atom in join order (closing atoms excepted,
see below) — over the atom's rows (or its constant-key bucket) when
nothing bound reaches it, over ``idx<d>(key, ())`` otherwise, the key
spelled from the variables and constants in its indexed positions — and
inside each loop the step counter, the atom's repeated-variable
equalities, the bindings ``v<i> = r<d>[p]`` of the variables somebody
reads later, and every ≠ / < / ≤ as an ``if ...: continue`` at the depth
where its last variable is bound
(:func:`~repro.relational.relation.values_equal` spelled ``a is b or a ==
b``).  The innermost body yields the emitted tuple — the head for
``evaluate``, every variable for ``satisfying_assignments``, ``()`` for
the deciders — so nothing is built per assignment that the caller did not
ask for.  CPython nests at most 20 loops in one function; a query with more
atoms continues in a nested generator function per further 20.

Cycles are closed by set intersection (:func:`_folds`).  Where the atom at
depth *d* binds exactly one new variable *x*, held once, every later atom
all of whose variables are bound once *x* is, holding *x* once, is a
*closing* atom of *d*.  Each of these atoms has a set of *x*'s values
under its key, from the relation's lazy value-set index
(``Relation._values``); depth *d* swaps the smallest into ``c<d>``, loops
over it, skips a candidate missing from another atom's set ``s<e>``, and
binds ``v<i> = r<d>``.  The closing atoms get no loop of their own, only
their arity check.  So the triangle's third atom is not probed once per
2-path: per edge the smaller of ``out(b)`` and ``in(a)`` is tested against
the other.  Which of equal values (``1`` / ``True`` / ``1.0``) binds *x*
may come from a closing atom's relation; that already depended on atom
order, and answers are equal under the kernel's one equality.

Past the depth that binds the last emitted variable — the *existential
tail* — no row changes what is yielded, so every loop there stops at its
first extension: the innermost yields and breaks, and each enclosing tail
loop ends in ``else: continue`` / ``break``, back to that depth.  A nested
function inside the tail returns whether it found one, so the tail carries
across the 20-loop boundary.  The deciders emit ``()`` and stop at the
first yield anyway, and ``satisfying_assignments`` emits every variable, so
only ``evaluate`` visits fewer rows.

The text names only ``v<i>`` / ``r<d>`` / ``k<slot>`` / ``idx<d>`` /
``vals<d>`` / ``rows<d>`` / ``c<d>`` / ``s<e>`` slots: constants, relation
names and data never reach it — they are the function's *arguments*, made
per request from the recipe's relation names, index positions and constant
slots.  So the memo holds no relation, index, row or constant, and no
spelling's order can bind a constant to another constraint's slot.

One *step* is one row, or one candidate of a folded loop, that the search
visits, at any depth; it costs at most one set lookup per closing atom
beyond a row's work, so steps bound the work.  Every ``_POLL_STRIDE``
steps the ambient cancel token is polled, and a budgeted search raises
:class:`_BudgetSpent` on the first step past its budget.  The search
stays depth-first rather than set-at-a-time: its memory is O(depth)
whatever the data, and n^k nodes are exactly where a deadline has to be
seen from inside.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidOperationError, QueryError
from ..operations import DECIDE, EXECUTE, Operation
from ..query.conjunctive import ConjunctiveQuery, HashedTuple
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

    The evaluator holds no state: the index buckets and value sets it reads
    are cached on the (immutable) relations themselves, so they are shared
    across evaluators and with the relational algebra, and freed with the
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
        """The *emit* tuple of satisfying valuations, depth first — every
        distinct one at least once; callers that want one stop iterating.
        With *max_steps*, raises :class:`_BudgetSpent` on the first step
        (a row or a folded loop's candidate visited) past that many."""
        shape, constants = _spelled(query, emit)
        order = None if atom_order is None else tuple(atom_order)
        search, recipe = _prepared(shape, order)
        arguments = _bind(recipe, query, database, constants)
        stop_after = sys.maxsize if max_steps is None else max_steps
        return search(stop_after, *arguments)


# ----------------------------------------------------------------------
# The generated search
# ----------------------------------------------------------------------

#: Opens every loop body: one step per row or candidate, the poll and the
#: budget.
_COUNT_STEP = (
    "steps += 1",
    "if steps >= poll_at:",
    "    if steps > stop_after:",
    "        raise _BudgetSpent",
    "    check_cancelled()",
    "    poll_at = min(steps + _POLL_STRIDE, stop_after + 1)",
)

#: A spelled term: a variable's number, or ``None`` for a constant.
Spelled = Optional[int]

#: The positional, constant-free spelling of a request: per atom in query
#: order its relation name and spelled terms; per constraint in query order
#: (inequalities, then comparisons) its operator and spelled sides; the
#: spelled emitted terms.
Shape = Tuple[
    Tuple[Tuple[str, Tuple[Spelled, ...]], ...],
    Tuple[Tuple[str, Spelled, Spelled], ...],
    Tuple[Spelled, ...],
]

#: How a request's arguments are made: per depth ``(atom index, relation
#: name, arity)``, then per parameter after ``stop_after`` one ``(kind,
#: depth, positions, constant slots)`` step — for ``values`` the last item
#: holds the one value position instead (see :func:`_bind`).
Recipe = Tuple[
    Tuple[Tuple[int, str, int], ...],
    Tuple[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]], ...],
]


def _spell(
    query: ConjunctiveQuery, emit: Sequence[Term]
) -> Tuple[Shape, List[Any]]:
    """The request's :data:`Shape` and its constants' values, in the order
    the spelling meets them (a constant's *slot* is its index here).

    Variables are numbered by first occurrence, so alpha-equivalent queries
    share one spelling; constraints keep their positions in the query, so a
    constant's slot says which side of which constraint it sits on.
    """
    numbers: Dict[str, int] = {}
    constants: List[Any] = []

    def spell(term: Term) -> Spelled:
        if isinstance(term, Constant):
            constants.append(term.value)
            return None
        return numbers.setdefault(term.name, len(numbers))

    atoms = tuple(
        [(atom.relation, tuple(map(spell, atom.terms))) for atom in query.atoms]
    )
    constraints = tuple(
        [("!=", spell(c.left), spell(c.right)) for c in query.inequalities]
        + [(c.op, spell(c.left), spell(c.right)) for c in query.comparisons]
    )
    return (atoms, constraints, tuple(map(spell, emit))), constants


def _spelled(
    query: ConjunctiveQuery, emit: Sequence[Term]
) -> Tuple[Shape, Sequence[Any]]:
    """:func:`_spell`, kept on the (immutable) query object per emitted
    tuple, so a repeated request pays one dictionary lookup for it — and,
    the spelling being hashed once, one cheap lookup in the memo of
    :func:`_prepared`."""
    # getattr: a query made without ``__init__`` has the slot unset.
    spellings = getattr(query, "_spellings", None)
    if spellings is None:
        spellings = query._spellings = {}
    emit = tuple(emit)
    spelled = spellings.get(emit)
    if spelled is None:
        shape, constants = _spell(query, emit)
        spelled = spellings[emit] = (HashedTuple(shape), tuple(constants))
    return spelled


@lru_cache(maxsize=_MEMO_SIZE)
def _prepared(
    shape: Shape, order: Optional[Tuple[int, ...]]
) -> Tuple[Callable[..., Iterator[Tuple]], Recipe]:
    """The compiled search of *shape* and its binding recipe, with the atoms
    taken in *order* (``None``: :func:`_atom_order`'s).  Built from the
    spelling alone, so the memo holds no relation, index, row or constant."""
    atoms = shape[0]
    if order is None:
        order = _atom_order(atoms)
    elif sorted(order) != list(range(len(atoms))):
        raise QueryError(
            f"atom_order {list(order)!r} is not a permutation of "
            f"0..{len(atoms) - 1}"
        )
    source, recipe = _generate(shape, order)
    # All a text may name besides its arguments and the builtins.
    namespace = {
        "_BudgetSpent": _BudgetSpent,
        "check_cancelled": check_cancelled,
        "_POLL_STRIDE": _POLL_STRIDE,
        "_EMPTY": frozenset(),
    }
    exec(compile(source, "<naive search>", "exec"), namespace)
    return namespace["search"], recipe


def _atom_order(atoms: Sequence[Tuple[str, Tuple[Spelled, ...]]]) -> List[int]:
    """Greedy connectivity order: prefer atoms sharing bound variables.

    Starting from the atom with the most constants, repeatedly pick the
    unprocessed atom with the largest overlap with already-bound variables
    (ties: fewer new variables, then the lower index).  Keeps the
    backtracking tree narrow on chain- and star-shaped queries.
    """
    remaining = set(range(len(atoms)))
    bound: set = set()
    order: List[int] = []
    while remaining:

        def score(i: int) -> Tuple[int, int, int]:
            terms = atoms[i][1]
            atom_vars = {t for t in terms if t is not None}
            return (
                len(atom_vars & bound),
                terms.count(None),
                -len(atom_vars - bound),
            )

        best = max(sorted(remaining), key=score)
        remaining.remove(best)
        order.append(best)
        bound.update(t for t in atoms[best][1] if t is not None)
    return order


def _folds(
    atoms: Sequence[Tuple[str, Tuple[Spelled, ...]]], order: Sequence[int]
) -> Dict[int, Tuple[int, List[int]]]:
    """Depth → ``(x, closing depths)`` for each depth of *order* whose atom
    binds exactly one new variable *x*, held once, and that has a *closing*
    atom: a later one all of whose variables are bound once *x* is, holding
    *x* once.  That depth draws *x* from the smallest of the atoms' value
    sets, tested against the others, and its closing atoms get no loop of
    their own."""
    first: Dict[int, int] = {}  # variable -> the depth that binds it
    for depth, index in enumerate(order):
        for term in atoms[index][1]:
            if term is not None:
                first.setdefault(term, depth)
    folds = {}
    for depth, index in enumerate(order):
        terms = atoms[index][1]
        new = {term for term in terms if term is not None and first[term] == depth}
        if len(new) != 1:
            continue
        (x,) = new
        if terms.count(x) != 1:
            continue
        closers = [
            later
            for later in range(depth + 1, len(order))
            if atoms[order[later]][1].count(x) == 1
            and all(t is None or first[t] <= depth for t in atoms[order[later]][1])
        ]
        if closers:
            folds[depth] = (x, closers)
    return folds


def _generate(shape: Shape, order: Sequence[int]) -> Tuple[str, Recipe]:
    """The source of the search for *shape* with its atoms taken in *order*,
    and the :data:`Recipe` that makes its arguments after ``stop_after``
    from a database and the request's constants."""
    atoms, constraints, emit = shape
    parameters = ["stop_after"]
    steps: List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]]] = []
    names: Dict[int, str] = {}  # variable number -> its name in the text
    bound_at: Dict[str, int] = {}  # that name -> the loop that binds it
    # Names somebody reads — a later probe key, a constraint, the emitted
    # tuple; the others are never assigned.
    read = set()

    # Each constant's slot, in the order _spell met it.
    slots = count()

    def slotted(terms: Sequence[Spelled]) -> List[Any]:
        return [("k", next(slots)) if t is None else t for t in terms]

    atom_terms = [slotted(terms) for _, terms in atoms]
    constraint_terms = [(op, *slotted(sides)) for op, *sides in constraints]
    emit_terms = slotted(emit)

    def parameter(name: str, step: Tuple) -> str:
        parameters.append(name)
        steps.append(step)
        return name

    def spell(term: Any) -> str:
        if isinstance(term, tuple):
            return parameter(f"k{term[1]}", ("constant", -1, (), (term[1],)))
        read.add(names[term])
        return names[term]

    folds = _folds(atoms, order)
    closing = {later for _, closers in folds.values() for later in closers}

    def value_set(depth: int, key: Sequence[Tuple[int, Any]], at: int) -> str:
        # The values at position *at* among the rows of the atom at *depth*
        # that match *key*, all bound by now.
        positions = tuple(position for position, _ in key)
        sets = parameter(f"vals{depth}", ("values", depth, positions, (at,)))
        return f"{sets}({probe_key(key)}, _EMPTY)"

    def probe_key(key: Sequence[Tuple[int, Any]]) -> str:
        spelled = [spell(term) for _, term in key]
        return spelled[0] if len(key) == 1 else f"({', '.join(spelled)})"

    relations = []  # per depth: (atom index, relation name, arity)
    # Per loop: its depth, the lines before it, what to iterate, equality
    # checks, name -> cell.  A closing atom keeps its depth and its arity
    # check but has no loop.
    loops = []
    for depth, index in enumerate(order):
        relation, terms = atoms[index]
        relations.append((index, relation, len(terms)))
        if depth in closing:
            continue
        # Static shape of the probe at this depth: positions holding a
        # constant or a variable bound earlier are the key; the others bind
        # a new variable or repeat one first seen in this very atom.
        key: List[Tuple[int, Any]] = []
        cells: Dict[str, str] = {}
        equalities: List[str] = []
        for position, term in enumerate(atom_terms[index]):
            if isinstance(term, tuple):
                key.append((position, term))
                continue
            name = names.get(term)
            if name is None:
                name = names[term] = f"v{len(names)}"
                bound_at[name] = len(loops)
                cells[name] = f"r{depth}[{position}]"
            elif name in cells:
                a, b = cells[name], f"r{depth}[{position}]"
                equalities.append(f"if not ({a} is {b} or {a} == {b}): continue")
            else:
                key.append((position, term))
        positions = tuple(position for position, _ in key)
        setup: List[str] = []
        if depth in folds:
            # Its one new variable x is drawn from the intersection of its
            # own value set and its closing atoms': the loop runs over the
            # smallest, swapped into c<d>, and skips each member missing
            # from another.  So a step costs one lookup per closing atom,
            # and a tail loop stops at its first member common to all.
            x, closers = folds[depth]
            rows = f"c{depth}"
            setup.append(f"{rows} = {value_set(depth, key, terms.index(x))}")
            missing = []
            for closer in closers:
                its = atom_terms[order[closer]]
                others = [(p, term) for p, term in enumerate(its) if term != x]
                setup += [
                    f"s{closer} = {value_set(closer, others, its.index(x))}",
                    f"if len(s{closer}) < len({rows}): "
                    f"{rows}, s{closer} = s{closer}, {rows}",
                ]
                missing.append(f"r{depth} not in s{closer}")
            equalities.append(f"if {' or '.join(missing)}: continue")
            cells = {names[x]: f"r{depth}"}
        elif not key:
            rows = parameter(f"rows{depth}", ("rows", depth, (), ()))
        elif all(isinstance(term, tuple) for _, term in key):
            held = tuple(term[1] for _, term in key)
            rows = parameter(f"rows{depth}", ("bucket", depth, positions, held))
        else:
            probe = parameter(f"idx{depth}", ("probe", depth, positions, ()))
            rows = f"{probe}({probe_key(key)}, ())"
        loops.append((depth, setup, rows, equalities, cells))

    # A constraint is checked in the loop that binds its last variable.
    checks: List[List[str]] = [[] for _ in loops]
    for op, left, right in constraint_terms:
        left, right = spell(left), spell(right)
        if op == "!=":
            check = f"if {left} is {right} or {left} == {right}: continue"
        else:
            check = f"if not {left} {op} {right}: continue"
        checks[max(bound_at.get(left, 0), bound_at.get(right, 0))].append(check)
    emitted = [spell(term) for term in emit_terms]
    # The existential tail: past the loop that binds the last emitted
    # variable nothing changes what is yielded, so each loop there stops at
    # its first extension and breaks back to that loop.
    tail = 1 + max([bound_at.get(name, -1) for name in emitted], default=-1)

    # Innermost first.  CPython compiles at most _MAX_NESTING statically
    # nested loops, so every further run of them becomes a nested generator
    # function that the loop above it delegates to.
    body = [f"yield ({''.join(name + ', ' for name in emitted)})"]
    if tail < len(loops):
        body.append("break")
    for start in reversed(range(0, len(loops), _MAX_NESTING)):
        stop = min(start + _MAX_NESTING, len(loops))
        for loop in reversed(range(start, stop)):
            depth, setup, rows, equalities, cells = loops[loop]
            bindings = [
                f"{name} = {cell}" for name, cell in cells.items() if name in read
            ]
            inside = (*_COUNT_STEP, *equalities, *bindings, *checks[loop], *body)
            body = [
                *setup,
                f"for r{depth} in {rows}:",
                *("    " + line for line in inside),
            ]
            if loop > max(tail, start):
                # Its parent is a tail loop too: on an extension it breaks,
                # on none it tries its next row.
                body += ["else:", "    continue", "break"]
        if start:
            call = ["yield from deeper()"]
            if start > tail:
                # A run inside the tail reports whether it found an
                # extension, so the tail carries across the boundary.
                body += ["else:", "    return False", "return True"]
                call = ["if (yield from deeper()):", "    break"]
            body = [
                "def deeper():",
                "    nonlocal steps, poll_at",
                *["    " + line for line in body],
                *call,
            ]
    body[:0] = ["steps = 0", "poll_at = min(_POLL_STRIDE, stop_after + 1)"]
    source = f"def search({', '.join(parameters)}):\n    " + "\n    ".join(body)
    return source + "\n", (tuple(relations), tuple(steps))


def _bind(
    recipe: Recipe,
    query: ConjunctiveQuery,
    database: Database,
    constants: Sequence[Any],
) -> List[Any]:
    """The arguments after ``stop_after`` that bind a compiled search to
    *database* and the request's *constants*.  Every atom's arity is
    checked before anything is probed."""
    atoms, steps = recipe
    relations = []
    for index, name, arity in atoms:
        relation = database[name]
        if relation.arity != arity:
            check_atom_arity(query.atoms[index], relation)
        relations.append(relation)
    arguments: List[Any] = []
    for kind, depth, positions, slots in steps:
        if kind == "constant":
            arguments.append(constants[slots[0]])
        elif kind == "probe":
            arguments.append(relations[depth]._index(positions).get)
        elif kind == "values":
            arguments.append(relations[depth]._values(positions, slots[0]).get)
        elif kind == "rows":
            arguments.append(relations[depth]._row_order())
        else:  # "bucket": keys follow Relation._index — the raw value for
            # one position, a tuple otherwise.
            key = [constants[slot] for slot in slots]
            index = relations[depth]._index(positions)
            arguments.append(index.get(key[0] if len(key) == 1 else tuple(key), ()))
    return arguments
