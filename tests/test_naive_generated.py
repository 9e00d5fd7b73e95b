"""The generated search of ``evaluation/naive.py``.

Three things are pinned here:

* **it is the same search** — Hypothesis generates small conjunctive
  queries (constants, a variable repeated inside an atom, ``≠`` / ``<`` /
  ``≤`` between variables and against constants, constant head terms, NaN
  and ``1 == True == 1.0`` values) and checks ``evaluate``, ``decide``,
  ``satisfying_assignments`` under every forced ``atom_order`` and
  ``first_witness`` at budgets 0, 1 and ∞ against :func:`reference`, a
  product-over-the-active-domain enumerator kept here as the oracle (and
  so of the existential tail, whose exact row counts are pinned too);
* **the text holds no data** — requests of one shape share one spelling,
  one text and one memo entry, the text contains none of their constants
  or relation names, each constant keeps its own slot, and the memo is
  bounded;
* **it can be stopped** — one poll of the ambient token per
  ``_POLL_STRIDE`` rows visited, inside a naive-routed ``execute`` and
  among tail rows too.

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


class TestSameSearch:
    @SETTINGS
    @given(pairs())
    def test_every_entry_point_and_atom_order_agrees_with_the_enumerator(self, pair):
        query, database = pair
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
        # No triangle in a layered graph, so the search visits every edge
        # and every 2-path — more than two strides of rows.
        database = chain_database(layers=5, width=60, p=4 / 60, seed=1)
        query = parse_query("Q(a) :- E(a, b), E(b, c), E(c, a).")
        engine = QueryEngine()
        assert engine.plan_for(query, database).evaluator == "naive"
        edges = list(database["E"])
        out = {}
        for a, b in edges:
            out.setdefault(a, []).append(b)
        visited = len(edges) + sum(len(out.get(b, ())) for _, b in edges)
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
        # Per a, the tail scans S up to its first b in T: 1001 of S's rows
        # and T's one, then breaks back to the next a.
        width = 2000
        database = Database.from_tuples({
            "R": [(a,) for a in range(5)],
            "S": [(b,) for b in range(width)],
            "T": [(width // 2,), (width - 1,)],
        })
        query = parse_query("Q(a) :- R(a), S(b), T(b).")
        visited = 5 * (1 + (width // 2 + 1) + 1)
        assert visited > 2 * naive._POLL_STRIDE
        evaluator = NaiveEvaluator()
        patient = Polled(alive=10**9)
        with activate(patient):
            answer = evaluator.evaluate(query, database)
        assert answer.rows == {(a,) for a in range(5)}
        assert patient.polls == visited // naive._POLL_STRIDE
        # That is every row the search visits, and no more.
        list(evaluator._search(query, database, query.head_terms, max_steps=visited))
        with pytest.raises(naive._BudgetSpent):
            list(evaluator._search(query, database, query.head_terms,
                                   max_steps=visited - 1))
