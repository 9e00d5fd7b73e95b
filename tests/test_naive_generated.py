"""The generated search of ``evaluation/naive.py``.

Three things are pinned here:

* **it is the same search** — Hypothesis generates small conjunctive
  queries (constants, a variable repeated inside an atom, ``≠`` / ``<`` /
  ``≤`` between variables and against constants, constant head terms, NaN
  and ``1 == True == 1.0`` values), and from a second generator 3- and
  4-cycles over one binary relation, whose closing atoms fold, and checks
  ``evaluate``, ``decide``, ``satisfying_assignments`` under every forced
  ``atom_order`` and ``first_witness`` at budgets 0, 1 and ∞ against
  :func:`reference`, a product-over-the-active-domain enumerator kept here
  as the oracle (and so of the existential tail, whose exact row counts are
  pinned too);
* **the text holds no data** — requests of one shape share one spelling,
  one text and one memo entry, the text contains none of their constants
  or relation names, each constant keeps its own slot, and the memo is
  bounded;
* **it can be stopped** — one poll of the ambient token per
  ``_POLL_STRIDE`` steps (rows, and candidates of a folded loop) visited,
  inside a naive-routed ``execute`` and among tail rows too, and a step
  bounds the work: a budget counts every candidate a fold tries.

Budget: ``REPRO_DIFF_EXAMPLES`` examples per property (default 40), the
budget of ``tests/test_differential_sql.py``.
"""

import os
from itertools import permutations, product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, QueryEngine, Relation
from repro.errors import DeadlineExceededError, QueryError, SchemaError
from repro.evaluation import naive
from repro.evaluation.naive import NaiveEvaluator
from repro.evaluation.yannakakis import YannakakisEvaluator
from repro.query.atoms import Atom, Comparison, Inequality
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.terms import C, Constant, V
from repro.resilience.token import CancelToken, activate
from repro.workloads import chain_database

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

#: One NaN *object*: equality is identity-then-``==`` throughout.
NAN = float("nan")
#: Every equality pitfall at once; no ``<`` is drawn over these.
MIXED_VALUES = (0, 1, True, 1.0, 2, "1", "a", "", -0.0, None, (1, 2), NAN)
#: Mutually comparable, still with the bool/int/float collapse and NaN.
ORDERED_VALUES = (0, 1, True, 1.0, 2, -1, 7.5, -0.0, NAN)


def reference(query, database, emit):
    """The *emit* tuple of every valuation of the query's variables over the
    active domain that maps each atom into its relation and satisfies each
    constraint — no order, no index, no early exit."""
    variables = query.variables()
    rows = [row for name in database.names() for row in database[name]]
    domain = {id(value): value for row in rows for value in row}.values()
    found = set()
    for values in product(domain, repeat=len(variables)):
        tau = dict(zip(variables, values))

        def at(term):
            return term.value if isinstance(term, Constant) else tau[term]

        if (
            all(
                tuple(map(at, atom.terms)) in database[atom.relation].rows
                for atom in query.atoms
            )
            and not any(
                at(c.left) is at(c.right) or at(c.left) == at(c.right)
                for c in query.inequalities
            )
            and all(c.holds(at(c.left), at(c.right)) for c in query.comparisons)
        ):
            found.add(tuple(map(at, emit)))
    return found


#: Few values, so a random relation over them is dense in cycles.
CYCLE_VALUES = (0, 1, True, 1.0, 2, NAN)


@st.composite
def cycle_pairs(draw):
    """A 3- or 4-cycle over one binary relation, optionally with a chord,
    constants, a ``≠`` and a head: its closing atoms fold."""
    values = st.sampled_from(CYCLE_VALUES)
    edges = draw(st.lists(st.tuples(values, values), max_size=10))
    length = draw(st.integers(3, 4))
    nodes = [V(f"x{k}") for k in range(length)]
    hops = [(nodes[k], nodes[(k + 1) % length]) for k in range(length)]
    if length == 4 and draw(st.booleans()):
        hops.append((nodes[0], nodes[2]))

    def term(node):  # one term in six becomes a constant
        return draw(st.sampled_from([node] * 5 + [C(draw(values))]))

    atoms = [Atom("E", (term(s), term(t))) for s, t in hops]
    body = sorted({v for a in atoms for v in a.variables()}, key=lambda v: v.name)
    inequalities = []
    if body and draw(st.booleans()):
        left = draw(st.sampled_from(body))
        right = draw(st.one_of(st.sampled_from(body), values.map(C)))
        if right != left:
            inequalities.append(Inequality(left, right))
    head = draw(st.lists(st.sampled_from(body), max_size=2)) if body else []
    database = Database({"E": Relation.from_rows(("s", "t"), edges)})
    return ConjunctiveQuery(head, atoms, inequalities), database


def folds(query):
    """Does the search of *query* fold a closing atom in some atom order?"""
    atoms = naive._spell(query, query.head_terms)[0][0]
    return any(naive._folds(atoms, order) for order in permutations(range(len(atoms))))


@st.composite
def pairs(draw):
    """A random (query, database) pair; comparisons only over ordered values."""
    ordered = draw(st.booleans())
    values = st.sampled_from(ORDERED_VALUES if ordered else MIXED_VALUES)
    arities = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 2)))]
    relations = {
        f"R{i}": Relation.from_rows(
            tuple(f"c{k}" for k in range(arity)),
            draw(st.lists(st.tuples(*[values] * arity), max_size=6)),
        )
        for i, arity in enumerate(arities)
    }
    variables = [V(f"x{k}") for k in range(3)]
    term = st.one_of(st.sampled_from(variables), values.map(C))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.integers(0, len(arities) - 1))
        atoms.append(Atom(f"R{which}", draw(st.tuples(*[term] * arities[which]))))
    body = sorted({v for a in atoms for v in a.variables()}, key=lambda v: v.name)
    inequalities, comparisons = [], []
    for _ in range(draw(st.integers(0, 2)) if body else 0):
        left, right = draw(st.sampled_from(body)), draw(
            st.one_of(st.sampled_from(body), values.map(C))
        )
        if draw(st.booleans()):
            left, right = right, left
        try:
            if ordered and draw(st.booleans()):
                comparisons.append(Comparison(left, right, strict=draw(st.booleans())))
            else:
                inequalities.append(Inequality(left, right))
        except QueryError:
            pass  # x != x: draw one constraint fewer
    head = draw(st.lists(st.one_of(st.sampled_from(body), values.map(C)) if body
                         else values.map(C), max_size=3))
    return ConjunctiveQuery(head, atoms, inequalities, comparisons), Database(relations)


def agrees_everywhere(query, database):
    """Every entry point under every forced atom order, and ``first_witness``
    at budgets 0, 1 and ∞, against :func:`reference`."""
    evaluator = NaiveEvaluator()
    heads = reference(query, database, query.head_terms)
    assignments = reference(query, database, query.variables())
    assert bool(heads) == bool(assignments)
    orders = [None, *permutations(range(len(query.atoms)))]
    for order in orders:
        answer = evaluator.evaluate(query, database, atom_order=order)
        assert answer.rows == heads, order
        assert answer.attributes == tuple(
            f"o{i}" for i in range(len(query.head_terms))
        )
        assert evaluator.decide(query, database, atom_order=order) == bool(heads)
        found = evaluator.satisfying_assignments(query, database, atom_order=order)
        assert found.rows == assignments, order
        assert found.attributes == tuple(v.name for v in query.variables())
    assert evaluator.first_witness(query, database, 10**9) == bool(heads)
    for budget in (0, 1):
        witness = evaluator.first_witness(query, database, budget)
        assert witness in (None, bool(heads)), budget


class TestSameSearch:
    @SETTINGS
    @given(pairs())
    def test_every_entry_point_and_atom_order_agrees_with_the_enumerator(self, pair):
        agrees_everywhere(*pair)

    @SETTINGS
    @given(cycle_pairs())
    def test_cycles_agree_with_the_enumerator_too(self, pair):
        agrees_everywhere(*pair)

    def test_the_fold_is_drawn_often(self):
        drawn = []

        @settings(SETTINGS, derandomize=True)
        @given(cycle_pairs())
        def draw(pair):
            drawn.append(folds(pair[0]))

        draw()
        # Most cycles fold (a constant can unbind a closer); derandomized,
        # so the share is reproducible.
        assert sum(drawn) >= len(drawn) // 3 > 0

    def test_inline_equality_is_identity_then_equality(self):
        # What ``values_equal`` was called for, now spelled in the text: a
        # NaN matches itself, 1 matches True, in ``R(x, x)`` and in ``≠``.
        database = Database.from_tuples({"R": [(NAN, NAN), (1, True), (1, 2)]})
        evaluator = NaiveEvaluator()
        repeated = parse_query("Q(x) :- R(x, x).")
        assert evaluator.evaluate(repeated, database).rows == {(NAN,), (1,)}
        differing = parse_query("Q(x, y) :- R(x, y), x != y.")
        assert evaluator.evaluate(differing, database).rows == {(1, 2)}

    def test_more_atoms_than_one_function_may_nest_loops(self):
        # 45 hops are three runs of at most 20 loops; the head, the ≠ and
        # the < each read a variable bound two runs further out.
        database = Database.from_tuples(
            {"E": [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)]}
        )
        hops = ", ".join(f"E(x{i}, x{i + 1})" for i in range(45))
        query = parse_query(f"Q(x0, x45) :- {hops}, x0 != x45, x3 < x44.")
        wide = parse_query(f"Q(x0, x45, x3, x44, x1, x25) :- {hops}.")
        paths = YannakakisEvaluator().evaluate(wide, database).rows
        expected = {
            (first, last)
            for first, last, low, high, _, _ in paths
            if first != last and low < high
        }
        evaluator = NaiveEvaluator()
        assert evaluator.evaluate(query, database).rows == expected != set()
        assert evaluator.first_witness(query, database, 44) is None
        assert evaluator.first_witness(query, database, 10**6) is True
        # A tail that starts in the second run crosses into the third.
        middle = parse_query(f"Q(x0, x25) :- {hops}.")
        assert evaluator.evaluate(middle, database).rows == {
            (first, mid) for first, _, _, _, _, mid in paths
        }
        # The tail carries across both deeper() boundaries: past the first
        # edge every node has an out-edge, so each of the 8 edges costs one
        # row per further hop — 8 + 8 * 44 rows in all.
        short = parse_query(f"Q(x0, x1) :- {hops}.")
        assert list(evaluator._search(short, database, short.head_terms,
                                      max_steps=8 + 8 * 44)) == list(database["E"])
        with pytest.raises(naive._BudgetSpent):
            list(evaluator._search(short, database, short.head_terms,
                                   max_steps=8 + 8 * 44 - 1))

    def test_the_existential_tail_stops_at_the_first_extension(self):
        # c only has to exist: each (a, b) stops at its first c != a.
        database = Database.from_tuples(
            {"E": [(1, 2), (2, 3), (2, 4), (2, 5), (3, 2), (5, 2)]}
        )
        query = parse_query("Q(a, b) :- E(a, b), E(b, c), a != c.")
        evaluator = NaiveEvaluator()
        # Rows visited per edge: (1,2) 2, (2,3) 2, (2,4) 1, (2,5) 2,
        # (3,2) 3, (5,2) 2 — 12, where enumerating every c visits 17.
        found = evaluator._search(query, database, query.head_terms, max_steps=12)
        assert list(found) == [(1, 2), (3, 2), (5, 2)]
        with pytest.raises(naive._BudgetSpent):
            list(evaluator._search(query, database, query.head_terms, max_steps=11))
        assert evaluator.evaluate(query, database).rows == {(1, 2), (3, 2), (5, 2)}

    def test_a_budget_is_a_number_of_rows_visited(self):
        database = Database.from_tuples({"E": [(1, 2), (2, 3), (3, 4)]})
        query = parse_query("Q() :- E(a, b), E(b, c), E(c, d).")
        evaluator = NaiveEvaluator()
        # (1,2) -> (2,3) -> (3,4): the witness is the third row visited.
        assert evaluator.first_witness(query, database, 2) is None
        assert evaluator.first_witness(query, database, 3) is True
        # Refuting Q over {(3,4)} alone visits that one row.
        lonely = Database.from_tuples({"E": [(3, 4)]})
        assert evaluator.first_witness(query, lonely, 0) is None
        assert evaluator.first_witness(query, lonely, 1) is False

    def test_the_no_atom_query_holds_vacuously(self):
        # Not constructible through ConjunctiveQuery (it demands an atom),
        # but the search has an answer for it: one empty valuation.
        query = object.__new__(ConjunctiveQuery)
        query.head_name, query.head_terms, query.atoms = "Q", (Constant(7),), ()
        query.inequalities = query.comparisons = ()
        database = Database.from_tuples({"E": [(1, 2)]})
        evaluator = NaiveEvaluator()
        assert evaluator.evaluate(query, database).rows == {(7,)}
        assert evaluator.satisfying_assignments(query, database).rows == {()}
        assert evaluator.decide(query, database) is True
        assert evaluator.first_witness(query, database, 0) is True

    def test_a_wrong_arity_atom_is_a_schema_error_before_any_row(self):
        database = Database.from_tuples({"E": [(1, 2)]})
        query = parse_query("Q(x) :- E(x, y), E(x).")
        evaluator = NaiveEvaluator()
        for call in (
            lambda: evaluator.evaluate(query, database),
            lambda: evaluator.decide(query, database),
            lambda: evaluator.satisfying_assignments(query, database),
            lambda: evaluator.first_witness(query, database, 10),
        ):
            with pytest.raises(SchemaError):
                call()


def text_of(query, order=None, emit=None):
    """The generated search of *query* and its recipe's value-set steps."""
    shape = naive._spell(query, query.head_terms if emit is None else emit)[0]
    if order is None:
        order = naive._atom_order(shape[0])
    text, (_, steps) = naive._generate(shape, order)
    return text, [step for step in steps if step[0] == "values"]


def agrees_with_the_enumerator(query, database):
    """Every entry point under every atom order answers what
    :func:`reference` does."""
    heads = reference(query, database, query.head_terms)
    assignments = reference(query, database, query.variables())
    evaluator = NaiveEvaluator()
    for order in [None, *permutations(range(len(query.atoms)))]:
        assert evaluator.evaluate(query, database, atom_order=order).rows == heads
        assert evaluator.decide(query, database, atom_order=order) == bool(heads)
        found = evaluator.satisfying_assignments(query, database, atom_order=order)
        assert found.rows == assignments, order
    return heads


class TestTheFold:
    """A closing atom — later in the order, every variable bound once the
    one new variable x of an earlier depth is, holding x once — is folded
    into that depth's loop, which draws x from the smallest of its value
    sets and skips a member missing from another; it gets no loop of its
    own."""

    TRIANGLE = "Q() :- E(a, b), E(b, c), E(c, a)."
    CYCLE4 = "Q() :- E(a, b), E(b, c), E(c, d), E(d, a)."
    K4 = "Q() :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)."

    @pytest.mark.parametrize("text, closing, loops", [
        (TRIANGLE, ["c"], 2), (CYCLE4, ["d"], 3), (K4, ["c", "d"], 3),
    ], ids=["triangle", "cycle4", "k4"])
    def test_one_intersection_per_closing_variable(self, text, closing, loops):
        query = parse_query(text)
        source, values = text_of(query)
        headers = [line.strip() for line in source.splitlines()
                   if line.strip().startswith("for ")]
        assert len(headers) == loops
        folded = [h for h in headers if h.endswith(f" in c{h.split()[1][1:]}:")]
        assert len(folded) == len(closing)
        # Each closing atom's depth appears as a value set and one membership
        # test, never as a loop.
        depths = {depth for _, depth, _, _ in values}
        closers = depths - {int(h.split()[1][1:]) for h in headers}
        assert len(closers) == len(query.atoms) - loops
        assert not any(f"for r{depth} in" in source for depth in closers)
        assert all(f"vals{depth}(" in source for depth in depths)
        assert all(source.count(f" not in s{depth}") == 1 for depth in closers)
        # Answers over the transitive tournament on 5 nodes plus one back
        # edge: all three shapes hold, with many witnesses.
        clique = Database.from_tuples(
            {"E": [(i, j) for i in range(5) for j in range(5) if i < j]
                  + [(4, 0)]}
        )
        agrees_with_the_enumerator(query, clique)

    @pytest.mark.parametrize("text", [
        "Q() :- E(7, b), E(b, c), E(c, d), E(d, e).",
        "Q(a, b) :- E(a, b), E(b, c), a != c.",
        "Q(x, y) :- E(x, y).",
        "Q(a, b) :- E(a, b), E(b, c), E(c, d), E(d, e).",
        "Q(a, b, c) :- E(a, b), E(b, c).",
        "Q(h, x) :- A(h, x), B(h, y), C(h, z).",
    ], ids=["constant-decide", "neq-execute", "scan", "path4", "path2", "star"])
    def test_the_acyclic_shapes_of_the_workload_do_not_fold(self, text):
        query = parse_query(text)
        for emit in (None, ()):
            source, values = text_of(query, emit=emit)
            assert values == [] and "vals" not in source and " & " not in source

    def test_a_variable_repeated_in_a_closer_is_not_folded(self):
        query = parse_query("Q(a, x) :- R(a), S(a, x), T(x, x).")
        assert text_of(query)[1] == []
        database = Database.from_tuples({
            "R": [(1,), (2,)],
            "S": [(1, 5), (1, 6), (2, 6)],
            "T": [(5, 5), (6, 7)],
        })
        assert agrees_with_the_enumerator(query, database) == {(1, 5)}

    def test_a_closer_with_a_constant(self):
        query = parse_query("Q(a, c) :- E(a, b), E(b, c), F(c, 7, a).")
        source, values = text_of(query, order=(0, 1, 2))
        # F's key is its constant and a; its value set is c's.
        assert values == [("values", 1, (0,), (1,)), ("values", 2, (1, 2), (0,))]
        assert "vals2((k" in source
        database = Database.from_tuples({
            "E": [(1, 2), (2, 3), (2, 4), (5, 2)],
            "F": [(3, 7, 1), (4, 8, 1), (4, 7, 5), (3, 7, 9)],
        })
        assert agrees_with_the_enumerator(query, database) == {(1, 3), (5, 4)}

    def test_a_closer_repeating_a_bound_variable(self):
        query = parse_query("Q(a, x) :- E(a, b), G(b, x), F(a, a, x).")
        source, values = text_of(query, order=(0, 1, 2))
        assert values[-1] == ("values", 2, (0, 1), (2,))
        assert "vals2((v0, v0), _EMPTY)" in source
        database = Database.from_tuples({
            "E": [(1, 2), (3, 2)],
            "G": [(2, "x"), (2, "y")],
            "F": [(1, 1, "x"), (3, 1, "y"), (3, 3, "y"), (1, 3, "y")],
        })
        assert agrees_with_the_enumerator(query, database) == {(1, "x"), (3, "y")}

    def test_value_sets_meet_under_the_one_equality(self):
        # A NaN object meets only itself: other_nan -> 2 -> 3 -> NAN is no
        # triangle.  1, True and 1.0 are one value, whichever atom's
        # representative the intersection keeps.
        other_nan = float("nan")
        database = Database.from_tuples({
            "E": [(NAN, 1), (1, True), (1.0, NAN), (NAN, NAN),
                  (other_nan, 2), (2, 3), (3, NAN)],
        })
        triangle = parse_query("Q(a, b, c) :- E(a, b), E(b, c), E(c, a).")
        assert text_of(triangle)[1] != []
        heads = agrees_with_the_enumerator(triangle, database)
        assert (NAN, 1, 1) in heads and (NAN, NAN, NAN) in heads
        assert not any(other_nan in head for head in heads)
        loops = parse_query("Q(a) :- E(a, b), E(b, a).")
        assert agrees_with_the_enumerator(loops, database)


class Counted:
    """A value that counts the hashes and equality tests made of it."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        Counted.calls += 1
        return hash(self.value)

    def __eq__(self, other):
        Counted.calls += 1
        return isinstance(other, Counted) and self.value == other.value


class TestAStepBoundsTheWork:
    """Every candidate a folded loop tries is a step, and a step costs one
    lookup per closing atom, so budgets, polls and the existential tail
    bound the work as they do for rows."""

    def test_a_budget_counts_the_candidates_a_fold_tries(self):
        # Per R row the fold tries every c in S's bucket of b = 0 against
        # T's, which shares none: n + n² steps in all, each counted.
        n = 60
        database = Database.from_tuples({
            "R": [(i, 0) for i in range(n)],
            "S": [(0, j) for j in range(n)],
            "T": [(0, n + j) for j in range(n)],
        })
        query = parse_query("Q() :- R(a, b), S(b, c), T(b, c).")
        assert text_of(query)[1] != []
        evaluator = NaiveEvaluator()
        list(evaluator._search(query, database, (), max_steps=n + n * n))
        with pytest.raises(naive._BudgetSpent):
            list(evaluator._search(query, database, (), max_steps=n + n * n - 1))
        # So a first-witness budget linear in the rows is spent, not
        # overrun, and the caller falls back to its own pass.
        assert evaluator.first_witness(query, database, 3 * n) is None
        assert evaluator.first_witness(query, database, 2 * n * n) is False

    def test_a_tail_fold_does_constant_work_per_head(self):
        # S and T hold equal but distinct objects: per a the tail tries one
        # candidate of the smaller set against the other and stops.
        width, heads = 500, 40
        database = Database.from_tuples({
            "R": [(a,) for a in range(heads)],
            "S": [(Counted(b),) for b in range(width)],
            "T": [(Counted(b),) for b in range(width)],
        })
        query = parse_query("Q(a) :- R(a), S(b), T(b).")
        assert text_of(query)[1] != []
        evaluator = NaiveEvaluator()
        assert evaluator.evaluate(query, database).cardinality == heads
        Counted.calls = 0  # the value sets are cached now
        list(evaluator._search(query, database, query.head_terms, max_steps=2 * heads))
        assert Counted.calls <= 2 * heads


class TestTheTextHoldsNoData:
    HOSTILE = ("'); __import__('os')", "a\n\"b'", "k0", "yield", "E", 17, None)

    def test_one_shape_is_one_text_naming_none_of_its_constants(self):
        name = "E x; drop()"
        rows = [(c, "next") for c in self.HOSTILE] + [("next", "last")]
        database = Database({name: Relation.from_rows(("s", "t"), rows)})
        x, y = V("x"), V("y")
        naive._prepared.cache_clear()
        shapes, texts = set(), set()
        for constant in self.HOSTILE:
            query = ConjunctiveQuery(
                (x, C(constant)),
                [Atom(name, (C(constant), x)), Atom(name, (x, y))],
                [Inequality(y, C(constant))],
            )
            shape, constants = naive._spell(query, query.head_terms)
            # The atom's, the ≠'s and the head's, in that order.
            assert len(constants) == 3 and all(c is constant for c in constants)
            text, recipe = naive._generate(shape, (0, 1))
            shapes.add(shape)
            texts.add(text)
            answer = NaiveEvaluator().evaluate(query, database, atom_order=(0, 1))
            assert answer.rows == {("next", constant)}
        (shape,), (text,) = shapes, texts
        assert name not in text and "drop" not in text
        for constant in self.HOSTILE[:2]:
            assert constant not in text and "import" not in text
        compile(text, "<test>", "exec")  # and it is one well-formed function
        # The recipe names the relation and holds positions and slots only.
        atoms, steps = recipe
        assert atoms == ((0, name, 2), (1, name, 2))
        flat = [leaf for step in steps for part in step for leaf in
                (part if isinstance(part, tuple) else (part,))]
        assert all(type(leaf) in (int, str) for leaf in flat)
        assert naive._prepared.cache_info().currsize == 1

    def test_every_start_constant_shares_one_generated_search(self, monkeypatch):
        edges = list(chain_database(layers=5, width=24, p=3 / 24, seed=3)["E"])
        database = Database.from_tuples({"E": edges})
        generated = []
        generate = naive._generate
        monkeypatch.setattr(
            naive, "_generate", lambda *args: generated.append(args) or generate(*args)
        )
        naive._prepared.cache_clear()
        evaluator = NaiveEvaluator()
        outcomes = set()
        for start in range(120):
            query = parse_query(f"Q() :- E({start}, b), E(b, c), E(c, d), E(d, e).")
            frontier = {start}
            for _ in range(4):
                frontier = {b for a, b in edges if a in frontier}
            assert evaluator.decide(query, database) is bool(frontier), start
            assert evaluator.first_witness(query, database, 10**6) is bool(frontier)
            outcomes.add(bool(frontier))
        assert outcomes == {True, False}
        assert len(generated) == 1
        assert naive._prepared.cache_info().currsize == 1

    def test_a_warm_repeat_of_one_query_object_spells_nothing(self, monkeypatch):
        # The spelling is kept on the query, one per emitted tuple: the
        # first evaluate, decide and satisfying_assignments spell, their
        # repeats (and an equal query object's first call) only look it up.
        database = Database.from_tuples({"E": [(1, 2), (2, 3), (3, 1), (3, 4)]})
        spelled = []
        spell = naive._spell
        monkeypatch.setattr(
            naive, "_spell", lambda *args: spelled.append(args) or spell(*args)
        )
        text = "Q(a) :- E(a, b), E(b, c), E(c, a), a != 4."
        query = parse_query(text)
        evaluator = NaiveEvaluator()
        for _ in range(3):
            assert evaluator.evaluate(query, database).rows == {(1,), (2,), (3,)}
            assert evaluator.decide(query, database) is True
            assert len(evaluator.satisfying_assignments(query, database).rows) == 3
        assert len(spelled) == 3
        assert QueryEngine().decide(query, database) is True
        assert len(spelled) == 3
        evaluator.decide(parse_query(text), database)
        assert len(spelled) == 4

    def test_constants_are_bound_to_their_own_constraint(self):
        # Unordered constraint sets would give both the same slots.
        database = Database.from_tuples({"E": [(5, 1), (1, 7)]})
        first = parse_query("Q() :- E(x, y), x != 5, y != 7.")
        second = parse_query("Q() :- E(x, y), y != 5, x != 7.")
        evaluator = NaiveEvaluator()
        for _ in range(2):
            assert evaluator.decide(first, database) is False
            assert evaluator.decide(second, database) is True
        heads = parse_query("Q(x, y) :- E(x, y), y != 5, x != 7.")
        assert evaluator.evaluate(heads, database).rows == {(5, 1), (1, 7)}

    def test_a_memo_hit_still_checks_every_arity_before_any_row(self):
        query = parse_query("Q() :- E(x, y), E(y, z).")
        evaluator = NaiveEvaluator()
        assert evaluator.decide(query, Database.from_tuples({"E": [(1, 2), (2, 3)]}))
        hits = naive._prepared.cache_info().hits
        wide = Database.from_tuples({"E": [(1, 2, 3)]})
        # A zero budget answers None at the first row visited; the arity
        # error comes first.
        with pytest.raises(SchemaError):
            evaluator.first_witness(query, wide, 0)
        assert naive._prepared.cache_info().hits == hits + 1

    def test_a_thousand_shapes_leave_the_memo_at_its_fixed_size(self):
        database = Database.from_tuples({"E": [(1, 1)]})
        hops = [V(f"x{i}") for i in range(11)]
        atoms = [Atom("E", pair) for pair in zip(hops, hops[1:])]
        naive._prepared.cache_clear()
        texts = set()
        for shape in range(1000):
            # A 10-hop path with ``≤`` on any subset of its hops: 1024 shapes.
            comparisons = [
                Comparison(hops[bit], hops[bit + 1], strict=False)
                for bit in range(10)
                if shape >> bit & 1
            ]
            query = ConjunctiveQuery((), atoms, comparisons=comparisons)
            texts.add(naive._generate(naive._spell(query, ())[0], range(10))[0])
            assert NaiveEvaluator().decide(query, database) is True
        assert len(texts) == 1000
        info = naive._prepared.cache_info()
        assert info.currsize == info.maxsize == naive._MEMO_SIZE < 1000


class Polled(CancelToken):
    """Counts its polls and expires once *alive* of them have passed."""

    def __init__(self, alive):
        super().__init__()
        self.alive = alive
        self.polls = 0

    def check(self):
        self.polls += 1
        if self.polls > self.alive:
            raise DeadlineExceededError("deadline exceeded", deadline=0.0)


class TestItCanBeStopped:
    def test_a_naive_routed_execute_polls_once_per_stride_of_rows(self):
        # A step is a row, or a candidate from the smallest value set, that
        # the search visits.  The closing E(c, a) folds into the loop that
        # binds c, which tries the smaller of out(b) and in(a) — none is in
        # the other, as a layered graph has no triangle — so the search
        # visits every edge and those candidates: more than two strides.
        database = chain_database(layers=7, width=60, p=4 / 60, seed=1)
        query = parse_query("Q(a) :- E(a, b), E(b, c), E(c, a).")
        engine = QueryEngine()
        assert engine.plan_for(query, database).evaluator == "naive"
        edges = list(database["E"])
        out, into = {}, {}
        for a, b in edges:
            out.setdefault(a, set()).add(b)
            into.setdefault(b, set()).add(a)
        visited = len(edges) + sum(
            min(len(out.get(b, ())), len(into.get(a, ()))) for a, b in edges
        )
        assert visited > 2 * naive._POLL_STRIDE

        patient = Polled(alive=10**9)
        with activate(patient):
            assert engine.execute(query, database).is_empty()
        # One poll where the engine dispatches, the rest inside the search.
        assert patient.polls == 1 + visited // naive._POLL_STRIDE

        expiring = Polled(alive=1)
        with activate(expiring), pytest.raises(DeadlineExceededError):
            engine.execute(query, database)
        assert expiring.polls == 2  # seen at the search's first poll

    def test_an_execute_of_tail_rows_polls_once_per_stride(self):
        # T(b) closes S(b): per a, the tail tries b from the smaller value
        # set, T's {1000, 1999}, stops at its first candidate in S's and
        # breaks back to the next a.  One row of R and one candidate per a;
        # without the break, three.
        width, heads = 2000, 2100
        database = Database.from_tuples({
            "R": [(a,) for a in range(heads)],
            "S": [(b,) for b in range(width)],
            "T": [(width // 2,), (width - 1,)],
        })
        query = parse_query("Q(a) :- R(a), S(b), T(b).")
        visited = heads * (1 + 1)
        assert visited > 2 * naive._POLL_STRIDE
        evaluator = NaiveEvaluator()
        patient = Polled(alive=10**9)
        with activate(patient):
            answer = evaluator.evaluate(query, database)
        assert answer.rows == {(a,) for a in range(heads)}
        assert patient.polls == visited // naive._POLL_STRIDE
        # That is every row the search visits, and no more.
        list(evaluator._search(query, database, query.head_terms, max_steps=visited))
        with pytest.raises(naive._BudgetSpent):
            list(evaluator._search(query, database, query.head_terms,
                                   max_steps=visited - 1))
