"""Which route the planner picks, pinned per shape and data size.

Routes are the planner's verdicts on modelled costs, so a change to the
cost model can move any of them.  These tests name the moves that are
meant: the boolean cycles and the redundant clique of
``benchmarks/bench_engine_adaptive.py`` go to the search that stops at its
first witness, and the one-atom scan goes to the acyclic route, which
hands the stored relation back.  Every other request shape of the e2e
benchmark keeps the route it had before the acyclic route was priced from
its program.  The e2e databases are rebuilt here from the generator's
parameters (layered chains of fixed out-degree, hub-and-leaf stars), not
imported, so the benchmark's own files stay out of the test suite.
"""

import random
from contextlib import ExitStack
from itertools import combinations
from unittest import mock

import pytest

from repro import Database, QueryEngine, Relation, parse_query
from repro.engine import Planner
from repro.evaluation import yannakakis
from repro.parametric.problems import CliqueInstance
from repro.query import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.reductions import clique_to_cq
from repro.workloads import chain_database, cycle_query, random_graph


def chain(width: int, degree: int, layers: int = 5, seed: int = 1) -> Database:
    """A layered DAG in one relation E: every node wired to ``degree``
    distinct nodes of the next layer, as the e2e benchmark builds it."""
    rng = random.Random(seed)
    rows = [
        (layer * width + index, (layer + 1) * width + target)
        for layer in range(layers - 1)
        for index in range(width)
        for target in sorted(rng.sample(range(width), degree))
    ]
    return Database.from_tuples({"E": rows})


def star(hubs: int, fan: int, seed: int = 1) -> Database:
    """Arms A, B, C: every hub has ``fan`` distinct leaves per arm."""
    rng = random.Random(seed)
    return Database.from_tuples(
        {
            arm: [
                (hub, 10_000 * (number + 1) + leaf)
                for hub in range(hubs)
                for leaf in sorted(rng.sample(range(fan * 4), fan))
            ]
            for number, arm in enumerate("ABC")
        }
    )


def symmetric_graph(n: int, p: float, seed: int) -> Database:
    edges = list(random_graph(n, p, seed=seed).edges())
    return Database.from_tuples({"E": edges + [(b, a) for a, b in edges]})


def redundant_k5():
    """A 5-clique asked twice (E and F per edge): 20 atoms over 10
    distinct variable sets."""
    edges = list(random_graph(10, 0.6, seed=4).edges())
    rows = edges + [(b, a) for a, b in edges]
    variables = [Variable(f"x{i}") for i in range(5)]
    atoms = [
        Atom(relation, (variables[i], variables[j]))
        for i, j in combinations(range(5), 2)
        for relation in ("E", "F")
    ]
    query = ConjunctiveQuery((), atoms, head_name="K5")
    return query, Database.from_tuples({"E": rows, "F": rows})


def triangle_clique():
    instance = clique_to_cq(CliqueInstance(random_graph(24, 0.5, seed=0), 3))
    return instance.query, instance.database


SCAN = "Q(x, y) :- E(x, y)."
PATH4_HEAD2 = "Q(a, b) :- E(a, b), E(b, c), E(c, d), E(d, e)."
STAR = "Q(h, x) :- A(h, x), B(h, y), C(h, z)."

#: Every distinct request shape of the e2e workloads, at its data size:
#: (label, query, database parameters, route).  Only the scan's route
#: differs from the one the flat three-pass acyclic estimate gave (naive).
E2E_SHAPES = (
    ("wire decide constant 4-hop", "Q() :- E(7, b), E(b, c), E(c, d), E(d, e).",
     ("chain", 60, 4), "naive"),
    ("wire count 3-hop", "Q(a, b) :- E(a, b), E(b, c), E(c, d).",
     ("chain", 60, 4), "yannakakis"),
    ("wire execute 4-hop", "Q(a) :- E(a, b), E(b, c), E(c, d), E(d, e).",
     ("chain", 60, 4), "yannakakis"),
    ("wire decide triangle", "Q() :- E(a, b), E(b, c), E(c, a).",
     ("chain", 60, 4), "naive"),
    ("wire execute 2-hop neq", "Q(a, b) :- E(a, b), E(b, c), a != c.",
     ("chain", 60, 4), "naive"),
    ("wire count star", STAR, ("star", 5, 40), "yannakakis"),
    ("bulk 4-hop 1x", PATH4_HEAD2, ("chain", 500, 5), "yannakakis"),
    ("bulk 4-hop 2x", PATH4_HEAD2, ("chain", 1000, 5), "yannakakis"),
    ("bulk star", STAR, ("star", 10, 400), "yannakakis"),
    ("transfer scan", SCAN, ("chain", 1000, 5), "yannakakis"),
    ("transfer 2-hop", "Q(a, b, c) :- E(a, b), E(b, c).",
     ("chain", 1000, 5), "yannakakis"),
    ("churn count 4-hop", PATH4_HEAD2, ("chain", 500, 5), "yannakakis"),
)

_BUILT = {}


def e2e_database(kind: str, size: int, degree_or_fan: int) -> Database:
    key = (kind, size, degree_or_fan)
    if key not in _BUILT:
        build = chain if kind == "chain" else star
        _BUILT[key] = build(size, degree_or_fan)
    return _BUILT[key]


@pytest.mark.parametrize(
    "label, text, data, route", E2E_SHAPES, ids=[shape[0] for shape in E2E_SHAPES]
)
def test_every_e2e_shape_keeps_its_route(label, text, data, route):
    assert Planner().plan(parse_query(text), e2e_database(*data)).evaluator == route


class TestFirstWitnessRoutes:
    """A boolean shape is charged its search down to the first witness, so
    the cyclic and redundant leaves of ``bench_engine_adaptive.py`` run the
    search that stops there — 300× and 10× faster than the bag joins and
    the grouping they were sent to while the search was charged in full."""

    CASES = {
        "cycle4_n60": lambda: (cycle_query(4), symmetric_graph(60, 0.15, seed=2)),
        "cycle6_n40": lambda: (cycle_query(6), symmetric_graph(40, 0.15, seed=2)),
        "redundant_k5": redundant_k5,
        "triangle_clique_n24": triangle_clique,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_boolean_shapes_route_to_the_search(self, name):
        query, database = self.CASES[name]()
        plan = Planner().plan(query, database)
        assert plan.evaluator == "naive"
        assert plan.charged["naive"] == "to first witness"
        # Charged at least a row per atom, however many witnesses.
        assert plan.cost_estimates["naive"] >= len(query.atoms)

    def test_an_observed_empty_answer_charges_the_full_walk(self):
        # No triangle in a layered DAG: the search refutes every 2-path.
        # Once an execute has seen that, the drift re-plan charges the
        # search for all of them.
        database = chain_database(layers=5, width=8, p=0.5, seed=3)
        query = parse_query("Q() :- E(a, b), E(b, c), E(c, a).")
        planner = Planner()
        assert planner.plan(query, database).charged["naive"] == "to first witness"
        replanned = planner.plan(query, database, observed_rows=0.0)
        assert replanned.charged["naive"] == "full enumeration"
        engine = QueryEngine()
        assert engine.execute(query, database).cardinality == 0
        assert engine.plan_for(query, database).charged["naive"] == "full enumeration"

    def test_an_acyclic_boolean_shape_keeps_its_linear_worst_case(self):
        # Against the acyclic route, whose decide runs the same first-witness
        # search under a budget, the search is charged in full.  Here the
        # walk expects witnesses, there are none, and every 4-hop prefix
        # exists: priced to a first witness, the search would refute
        # 500 · 5⁴ prefixes where the pass reads 10 000 edges.
        width, degree = 500, 5
        database = Database.from_tuples(
            {
                "E": [
                    (layer * width + i, (layer + 1) * width + (i * degree + j) % width)
                    for layer in range(4)
                    for i in range(width)
                    for j in range(degree)
                ]
            }
        )
        query = parse_query("Q() :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, f).")
        plan = Planner().plan(query, database)
        assert plan.estimated_rows >= 1.0
        assert plan.charged["naive"] == "full enumeration"
        assert plan.evaluator == "yannakakis"

    def test_a_non_boolean_tail_keeps_the_full_price(self):
        database = chain(60, 4)
        query = parse_query("Q(a) :- E(a, b), E(b, c), E(c, d), E(d, e).")
        assert Planner().plan(query, database).charged["naive"] == "full enumeration"


class TestScan:
    def test_the_scan_hands_back_the_stored_relation(self):
        database = chain(1000, 5)
        query = parse_query(SCAN)
        engine = QueryEngine()
        plan = engine.plan_for(query, database)
        assert plan.evaluator == "yannakakis"
        # No edge: the acyclic route is charged its read-off alone.
        assert plan.program.edges == () and plan.program.carrying == ()
        assert plan.cost_estimates["yannakakis"] == pytest.approx(
            database["E"].cardinality
        )
        answer = engine.execute(query, database)
        assert sorted(answer) == sorted(database["E"])
        # The stored relation's columns, renamed: no row is copied.
        assert answer._cache is database["E"]._cache


class TestProgramPerShape:
    """The acyclic program is built when the shape is planned and run as
    given: no request re-roots the tree or recomputes carrying edges."""

    @pytest.mark.parametrize(
        "text",
        [PATH4_HEAD2, "Q(a, e) :- E(a, b), E(b, c), E(c, d), E(d, e).", SCAN],
    )
    def test_requests_reuse_the_planned_program(self, text):
        database = chain(60, 4)
        engine = QueryEngine()
        query = parse_query(text)
        reference = engine.execute(query, database, evaluator="naive")
        for _ in range(3):  # plan, and re-plan if the row count drifts
            engine.execute(query, database)
        assert engine.plan_for(query, database).evaluator == "yannakakis"
        names = ("acyclic_program", "reroot_for_head", "carrying_edges", "upward_edges")
        with ExitStack() as stack:
            spies = [
                stack.enter_context(
                    mock.patch.object(yannakakis, name, wraps=getattr(yannakakis, name))
                )
                for name in names
            ]
            for spelling in (query, parse_query(text)):  # same layout, new object
                for _ in range(3):
                    assert engine.execute(spelling, database) == reference
                    assert engine.decide(spelling, database)
        assert [spy.call_count for spy in spies] == [0] * len(names)

    def test_the_priced_edges_are_the_walked_edges(self):
        database = chain(60, 4)
        query = parse_query("Q(a, e) :- E(a, b), E(b, c), E(c, d), E(d, e).")
        plan = Planner().plan(query, database)
        program = plan.program
        assert [(e.child, e.parent) for e in program.edges] == [(3, 2), (2, 1), (1, 0)]
        assert program.carrying == program.edges
        # Top-down only where a join hangs below: a3's join drops its
        # dangling rows itself.
        assert [(e.child, e.parent) for e in program.top_down] == [(1, 0), (2, 1)]
        assert plan.charged["yannakakis"].startswith(
            "3 edge(s) bottom-up ≈"
        )
        assert "3 carrying edge(s)" in plan.charged["yannakakis"]
        explained = QueryEngine().explain(query, database)
        assert "charged  : yannakakis: 3 edge(s) bottom-up" in explained
        assert "charged  : naive: full enumeration" in explained

    def test_a_carried_leaf_is_joined_as_stored(self):
        # bulk_transfer's 2-hop: the one carrying edge has nothing carried
        # below it, so no top-down semijoin runs and the join probes the
        # stored relation's own index (warm across requests), not a copy.
        database = chain(60, 4)
        query = parse_query("Q(a, b, c) :- E(a, b), E(b, c).")
        engine = QueryEngine()
        program = engine.plan_for(query, database).program
        assert len(program.carrying) == 1 and program.top_down == ()
        reference = engine.execute(query, database, evaluator="naive")
        probed = []
        join_keep = Relation._join_keep

        def spy(self, other, other_keep):
            probed.append(other._cache)
            return join_keep(self, other, other_keep)

        with mock.patch.object(Relation, "semijoin") as semijoin, mock.patch.object(
            Relation, "_join_keep", spy
        ):
            assert engine.execute(query, database) == reference
        semijoin.assert_not_called()
        assert probed == [database["E"]._cache]
