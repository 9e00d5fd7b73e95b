"""Unit tests for the adaptive engine: analyzer, planner, cache, facade."""

import asyncio
import gc
import sys
from unittest import mock

import pytest

from repro import Database, QueryEngine, Relation, parse_query
from repro.engine import (
    ACYCLIC,
    GENERAL,
    Planner,
    ShapeTable,
    analyze,
    plan_cache_key,
    shape_signature,
)
from repro.errors import NotAcyclicError, QueryError
from repro.operations import EXECUTE, operations_of
from repro.evaluation import NaiveEvaluator
from repro.evaluation.yannakakis import Survivors
from repro.hypergraph import treewidth
from repro.query import Atom, ConjunctiveQuery
from repro.query.atoms import Comparison, Inequality
from repro.query.terms import Variable
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    path_query,
    star_database,
    star_query,
)


def redundant_clique_query(k: int = 5) -> ConjunctiveQuery:
    """A k-clique asked over two relations per edge: duplicate variable
    sets, cyclic, width k-1 — what Theorem 1's parameter-v grouping
    shrinks, though the engine gives it no route of its own."""
    from itertools import combinations

    variables = [Variable(f"x{i}") for i in range(k)]
    atoms = []
    for i, j in combinations(range(k), 2):
        atoms.append(Atom("E", (variables[i], variables[j])))
        atoms.append(Atom("F", (variables[i], variables[j])))
    return ConjunctiveQuery((), atoms, head_name="K")


@pytest.fixture
def clique_db() -> Database:
    rows = [(a, b) for a in range(6) for b in range(6) if a != b]
    return Database.from_tuples({"E": rows, "F": rows})


def comparison_query() -> ConjunctiveQuery:
    x, y = Variable("x"), Variable("y")
    return ConjunctiveQuery(
        (x,), [Atom("E", (x, y))], comparisons=[Comparison(x, y, True)]
    )


class TestAnalyzer:
    def test_acyclic_path(self):
        analysis = analyze(path_query(3))
        assert analysis.structural_class == ACYCLIC
        assert analysis.acyclic
        assert analysis.join_tree is not None
        assert "; acyclic (GYO)" in analysis.summary()

    def test_comparisons_force_general(self):
        assert analyze(comparison_query()).structural_class == GENERAL

    @pytest.mark.parametrize(
        "query, acyclic, shape",
        [
            (cycle_query(4), False, "; cyclic"),
            (
                path_neq_query(3, 2, seed=1),
                True,
                "; acyclic (GYO), 2 inequality atom(s)",
            ),
            (comparison_query(), True, "; acyclic (GYO), 1 comparison atom(s)"),
            (redundant_clique_query(5), False, "; cyclic"),
        ],
        ids=["cycle4", "path_neq", "comparison", "redundant_k5"],
    )
    def test_every_other_shape_is_general(self, clique_db, query, acyclic, shape):
        analysis = analyze(query)
        assert analysis.structural_class == GENERAL
        assert analysis.acyclic is acyclic
        assert analysis.summary().endswith(shape)
        plan = Planner().plan(query, clique_db)
        assert plan.evaluator == "naive"
        assert plan.program is None

    def test_planning_a_cyclic_shape_decomposes_nothing(self, clique_db):
        # The routes ask one question, acyclic or not; no plan, explain or
        # count of a cyclic shape builds a tree decomposition to ask more.
        engine = QueryEngine()
        triangle = parse_query("Q() :- E(a, b), E(b, c), E(c, a).")
        with mock.patch.object(
            treewidth,
            "decomposition_from_order",
            side_effect=AssertionError("tree decomposition built"),
        ):
            for query in (triangle, cycle_query(4), cycle_query(6)):
                assert engine.plan_for(query, clique_db).structural_class == GENERAL
                assert "width" not in engine.explain(query, clique_db)
                engine.count(query, clique_db)
            assert engine.decide(redundant_clique_query(5), clique_db)


class TestSignatures:
    def test_bindings_share_shape(self):
        query = path_query(3, head_arity=1)
        first = query.decision_instance((1,))
        second = query.decision_instance((7,))
        assert shape_signature(first) == shape_signature(second)
        assert shape_signature(first) != shape_signature(query)

    def test_different_relations_differ(self):
        x, y = Variable("x"), Variable("y")
        q1 = ConjunctiveQuery((x,), [Atom("R", (x, y))])
        q2 = ConjunctiveQuery((x,), [Atom("S", (x, y))])
        assert shape_signature(q1) != shape_signature(q2)

    def test_variable_renaming_is_canonical(self):
        x, y, u, v = (Variable(n) for n in "xyuv")
        q1 = ConjunctiveQuery((x,), [Atom("R", (x, y))])
        q2 = ConjunctiveQuery((u,), [Atom("R", (u, v))])
        assert shape_signature(q1) == shape_signature(q2)

    def test_inequalities_affect_shape(self):
        base = path_query(3, head_arity=1)
        x0, x2 = Variable("x0"), Variable("x2")
        with_neq = ConjunctiveQuery(
            base.head_terms, base.atoms, [Inequality(x0, x2)]
        )
        assert shape_signature(base) != shape_signature(with_neq)

    def test_schema_signature_tracks_scale(self):
        query = path_query(2)
        small = chain_database(layers=3, width=4, p=0.5, seed=1)
        large = chain_database(layers=3, width=32, p=0.5, seed=1)
        assert plan_cache_key(query, small) != plan_cache_key(query, large)
        assert plan_cache_key(query, small) == plan_cache_key(query, small)


def published_plans(count):
    """*count* distinct real plans (paths of 1..count atoms)."""
    database = Database.from_tuples({"E": [(1, 2), (2, 3)]})
    return [Planner().plan(path_query(n), database) for n in range(1, count + 1)]


class TestPlanCache:
    """The engine's plan cache: the :class:`ShapeTable`'s entries and its
    hit / miss / eviction counters."""

    def test_hit_miss_counters(self):
        table = ShapeTable(capacity=4)
        (plan,) = published_plans(1)
        assert table.get("a") is None
        table.publish("a", plan)
        assert table.get("a").plan is plan
        cache = table.stats()["cache"]
        assert (cache["hits"], cache["misses"], cache["size"]) == (1, 1, 1)

    def test_lru_eviction_order(self):
        table = ShapeTable(capacity=2)
        a, b, c = published_plans(3)
        table.publish("a", a)
        table.publish("b", b)
        assert table.get("a").plan is a  # refresh "a"; "b" is now LRU
        table.publish("c", c)
        assert table.get("b") is None
        assert table.get("a").plan is a
        assert table.get("c").plan is c
        assert table.stats()["cache"]["evictions"] == 1

    def test_first_publish_wins(self):
        table = ShapeTable(capacity=2)
        a, b, c = published_plans(3)
        assert table.publish("a", a).plan is a
        # A late cold plan of the same shape adopts the entry, evicting
        # nothing and clobbering nothing.
        assert table.publish("a", b).plan is a
        table.publish("c", c)
        assert table.stats()["cache"]["evictions"] == 0
        # A re-plan replaces only the plan it was made from.
        assert not table.replace("a", b, c)
        assert table.replace("a", a, c)
        assert table.get("a").plan is c
        assert table.stats()["replans"] == 1

    def test_clear_resets(self):
        table = ShapeTable(capacity=2)
        (plan,) = published_plans(1)
        table.publish("a", plan)
        table.get("a")
        table.record("a", 0.5, rows=1)
        table.clear()
        assert table.stats() == {
            "executions": 0,
            "total_seconds": 0,
            "replans": 0,
            "shapes": [],
            "cache": {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "size": 0,
                "capacity": 2,
            },
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ShapeTable(capacity=0)


class CountingPlanner(Planner):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def plan(self, query, database, observed_rows=None):
        self.calls += 1
        return super().plan(query, database, observed_rows)


class TestQueryEngine:
    def test_acyclic_dispatch_and_answers(self, edge_db):
        engine = QueryEngine()
        query = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        plan = engine.plan_for(query, edge_db)
        assert plan.evaluator == "yannakakis"
        assert plan.structural_class == ACYCLIC
        result = engine.execute(query, edge_db)
        assert result == NaiveEvaluator().evaluate(query, edge_db)

    def test_cache_hits_across_bindings(self, edge_db):
        engine = QueryEngine()
        query = parse_query("Q(x) :- E(x, y), E(y, z).")
        assert engine.contains(query, edge_db, (1,))
        assert engine.contains(query, edge_db, (2,))
        assert not engine.contains(query, edge_db, (4,))
        stats = engine.stats()["cache"]
        assert stats["misses"] == 1  # one shape, planned once
        assert stats["hits"] == 2

    def test_planner_called_once_per_shape(self, edge_db):
        planner = CountingPlanner()
        engine = QueryEngine(planner=planner)
        query = parse_query("Q(x) :- E(x, y).")
        for _ in range(5):
            engine.execute(query, edge_db)
        assert planner.calls == 1

    def test_execute_batch_matches_individuals(self, edge_db):
        planner = CountingPlanner()
        engine = QueryEngine(planner=planner)
        query = parse_query("Q(x) :- E(x, y), E(y, z).")
        batch = [query.decision_instance((value,)) for value in (1, 2, 3, 4)]
        results = engine.run_batch(operations_of(EXECUTE, batch), edge_db)
        assert planner.calls == 1  # same shape: planned once for the batch
        reference = [
            QueryEngine().execute(member, edge_db) for member in batch
        ]
        assert results == reference

    def test_execute_batch_mixed_shapes(self, edge_db):
        engine = QueryEngine()
        queries = [
            parse_query("Q(x) :- E(x, y)."),
            parse_query("Q() :- E(x, y), E(y, z), E(z, w), E(w, x)."),
            parse_query("Q(x) :- E(x, y)."),
        ]
        results = engine.run_batch(operations_of(EXECUTE, queries), edge_db)
        assert len(results) == 3
        assert results[0] == results[2]
        naive = NaiveEvaluator()
        for query, result in zip(queries, results):
            assert result == naive.evaluate(query, edge_db)

    def test_forced_evaluator_paths(self, edge_db):
        engine = QueryEngine()
        cyclic = cycle_query(4)
        adaptive = engine.execute(cyclic, edge_db)
        forced = engine.execute(cyclic, edge_db, evaluator="naive")
        assert adaptive == forced
        with pytest.raises(NotAcyclicError):
            engine.execute(cyclic, edge_db, evaluator="yannakakis")
        with pytest.raises(QueryError):
            engine.execute(cyclic, edge_db, evaluator="no-such-engine")

    def test_an_unknown_evaluator_is_refused_before_planning(self, edge_db):
        engine = QueryEngine()
        # The class evaluators of the other islands are library evaluators,
        # not routes: their names are refused like any other unknown one.
        for name in ("no-such-engine", "treewidth", "inequality", "bounded-variable"):
            for run in (engine.execute, engine.decide):
                with pytest.raises(QueryError, match="unknown evaluator"):
                    run(cycle_query(4), edge_db, evaluator=name)
        stats = engine.stats()
        assert stats["shapes"] == [] and stats["cache"]["size"] == 0
        assert stats["cache"]["misses"] == 0

    def test_a_retired_route_is_a_typed_error_over_the_wire(self, edge_db):
        from repro.protocol import AsyncQueryClient, QueryServer, RemoteQueryError

        async def main():
            async with QueryServer({"g": edge_db}, parallel=False) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await client.execute(cycle_query(4), "g", evaluator="treewidth")
                    # The connection survives and the shape was never planned.
                    answer = await client.execute(cycle_query(4), "g")
                    stats = await client.stats()
            return excinfo.value, answer, stats

        error, answer, stats = asyncio.run(main())
        assert error.code == "invalid_query"
        assert "unknown evaluator" in error.remote_message
        assert answer == NaiveEvaluator().evaluate(cycle_query(4), edge_db)
        assert stats["engine"]["cache"]["misses"] == 1

    def test_explain_mentions_dispatch(self, edge_db):
        engine = QueryEngine()
        query = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        text = engine.explain(query, edge_db)
        assert "class: acyclic" in text
        assert "evaluator: yannakakis" in text
        assert "cache    : miss" in text
        assert "row ops" in text
        again = engine.explain(query, edge_db)
        assert "cache    : hit" in again

    @pytest.mark.parametrize("head", ["a, b", "b, c", "d, e", "a, e"])
    def test_explain_program_is_the_schedule_execute_runs(self, head):
        # The plan's tree is rooted where GYO left it; evaluation re-roots at
        # the head and revisits only the edges that carry a head column.
        # explain must print the steps that run, in the order they run.
        # Head inside one atom (the first, a middle one, the last): one
        # bottom-up pass towards that atom, nothing else.  Head spread over
        # the two ends: the root is a0 and every edge of the path hands e
        # up, so join-projects run all along it, and top-down semijoins on
        # the two edges with a join below them (a3's join drops its
        # dangling rows itself).
        carrying = 3 if head == "a, e" else 0
        top_down = max(carrying - 1, 0)
        query = parse_query(f"Q({head}) :- E(a, b), E(b, c), E(c, d), E(d, e).")
        database = chain_database(layers=5, width=8, p=0.5, seed=3)
        engine = QueryEngine()
        plan = engine.plan_for(query, database)
        assert plan.evaluator == "yannakakis"
        labels = [f"a{i}({atom.relation})" for i, atom in enumerate(query.atoms)]
        label_of = {
            tuple(v.name for v in atom.variables()): labels[i]
            for i, atom in enumerate(query.atoms)
        }
        executed = []
        survivors_semijoin = Survivors.semijoin
        semijoin = Relation.semijoin
        join_keep = Relation._join_keep

        def survivors_spy(self, child, *keys):
            # The bottom-up pass: one step per edge, on survivor masks.
            executed.append(
                f"{label_of[self.relation.attributes]} ⋉ "
                f"{label_of[child.relation.attributes]}"
            )
            return survivors_semijoin(self, child, *keys)

        def semijoin_spy(self, other):
            # The top-down pass, on the materialised carrying nodes only.
            executed.append(
                f"{label_of[self.attributes]} ⋉ {label_of[other.attributes]}"
            )
            return semijoin(self, other)

        def join_spy(self, other, other_keep):
            # The left side has grown by carried columns; its own atom's
            # variables still lead.
            executed.append(
                f"{label_of[self.attributes[:2]]} ⋈ {label_of[other.attributes[:2]]}"
            )
            return join_keep(self, other, other_keep)

        with mock.patch.object(Survivors, "semijoin", survivors_spy), mock.patch.object(
            Relation, "semijoin", semijoin_spy
        ), mock.patch.object(Relation, "_join_keep", join_spy):
            answer = engine.execute(query, database)
        assert answer == NaiveEvaluator().evaluate(query, database)
        listed = [
            step.split(",")[0]
            for step in plan.program.steps()
            if not step.startswith("decide:")
        ]
        assert listed == executed
        bottom_up = len(query.atoms) - 1
        assert len(executed) == bottom_up + top_down + carrying
        assert all("⋉" in step for step in executed[:bottom_up])
        assert sum("⋈" in step for step in executed) == carrying
        assert plan.program.steps()[-1].startswith("decide: first-witness search")

    def test_dropped_databases_are_freed_after_naive_and_probed_queries(self):
        # The engine holds its evaluators for life; a database it has
        # searched (the naive route, and every first-witness decide) must
        # not stay reachable from them once the caller drops it.
        def live_relations():
            gc.collect()
            return sum(1 for o in gc.get_objects() if type(o) is Relation)

        engine = QueryEngine()
        # The triangle's closing atom folds: its search reads value sets.
        triangle = parse_query("Q() :- E(x, y), E(y, z), E(z, x).")
        corners = parse_query("Q(x, z) :- E(x, y), E(y, z), E(z, x).")
        two_hop = parse_query("Q() :- E(x, y), E(y, z).")
        before = live_relations()
        for generation in range(5):
            base = 10 * generation
            database = Database.from_tuples(
                {"E": [(base, base + 1), (base + 1, base + 2), (base + 2, base)]}
            )
            assert engine.plan_for(triangle, database).evaluator == "naive"
            assert engine.decide(triangle, database)
            assert engine.execute(corners, database).cardinality == 3
            assert any(key[0] == "values" for key in database["E"]._cache)
            assert engine.decide(two_hop, database)
            del database
        assert live_relations() == before

    def test_dropped_generations_leave_no_allocations_behind(self):
        # A server re-registers databases of fresh values for ever; what a
        # generation allocated (rows, columns, key sets, indexes — and no
        # process-wide dictionary entry) must go when it is dropped.
        engine = QueryEngine()
        three_hop = parse_query("Q(a, d) :- E(a, b), E(b, c), E(c, d).")
        size, generations = 2000, 8

        def run_generation(generation):
            base = generation * 10**6
            database = Database.from_tuples(
                {"E": [(base + i, base + (i + 1) % size) for i in range(size)]}
            )
            assert engine.execute(three_hop, database).cardinality == size
            assert engine.count(three_hop, database) == size
            assert engine.decide(three_hop, database)

        def allocated_blocks():
            gc.collect()
            return sys.getallocatedblocks()

        run_generation(0)  # plan cache, ledgers, first-use allocations
        before = allocated_blocks()
        for generation in range(1, generations):
            run_generation(generation)
        growth = (allocated_blocks() - before) / (generations - 1)
        assert growth < 200, f"{growth:.0f} blocks leaked per generation"

    def test_eviction_forces_replanning(self, edge_db):
        planner = CountingPlanner()
        engine = QueryEngine(plan_cache_size=1, planner=planner)
        q1 = parse_query("Q(x) :- E(x, y).")
        q2 = parse_query("Q(x) :- E(y, x).")
        engine.execute(q1, edge_db)
        engine.execute(q2, edge_db)  # evicts q1's plan
        engine.execute(q1, edge_db)  # must replan
        assert planner.calls == 3
        assert engine.stats()["cache"]["evictions"] == 2

    def test_a_plan_and_its_row_are_evicted_together(self, edge_db):
        engine = QueryEngine(plan_cache_size=2)
        queries = [
            parse_query("Q(x) :- E(x, y)."),
            parse_query("Q(x) :- E(y, x)."),
            parse_query("Q(x) :- E(x, x)."),
        ]
        for query in queries:
            engine.execute(query, edge_db)
        stats = engine.stats()
        assert stats["cache"]["evictions"] == 1
        assert stats["cache"]["size"] == 2
        assert [row["executions"] for row in stats["shapes"]] == [1, 1]
        assert stats["executions"] == 3
        # The first shape's plan went with its row: looking it up again
        # misses and plans afresh.
        misses = stats["cache"]["misses"]
        assert "cache    : miss" in engine.explain(queries[0], edge_db)
        assert engine.stats()["cache"]["misses"] == misses + 1

    def test_alpha_renamed_twin_reuses_plan_safely(self, edge_db):
        # Same shape, different variable names: the second query hits the
        # first one's cached plan, but must not reuse its named join tree /
        # decomposition (bags and edges are keyed by variable name).
        planner = CountingPlanner()
        engine = QueryEngine(planner=planner)
        naive = NaiveEvaluator()
        cyc1 = parse_query("Q() :- E(a, b), E(b, c), E(c, d), E(d, a).")
        cyc2 = parse_query("Q() :- E(p, q), E(q, r), E(r, s), E(s, p).")
        assert engine.execute(cyc1, edge_db) == naive.evaluate(cyc1, edge_db)
        assert engine.execute(cyc2, edge_db) == naive.evaluate(cyc2, edge_db)
        assert planner.calls == 1  # one shape, one plan
        acy1 = parse_query("Q(x) :- E(x, y), E(y, z).")
        acy2 = parse_query("Q(u) :- E(u, v), E(v, w).")
        assert engine.execute(acy1, edge_db) == engine.execute(acy2, edge_db)
        assert engine.execute(acy2, edge_db) == naive.evaluate(acy2, edge_db)

    def test_bounded_variables_execution(self, clique_db):
        engine = QueryEngine()
        query = redundant_clique_query(5)
        plan = engine.plan_for(query, clique_db)
        assert plan.structural_class == GENERAL
        result = engine.execute(query, clique_db)
        assert result == NaiveEvaluator().evaluate(query, clique_db)
        assert engine.decide(query, clique_db)

    def test_inequality_class_execution(self):
        engine = QueryEngine()
        database = chain_database(layers=4, width=6, p=0.5, seed=2)
        query = path_neq_query(3, 2, seed=1)
        plan = engine.plan_for(query, database)
        assert plan.structural_class == GENERAL
        assert plan.evaluator == "naive"
        assert engine.execute(query, database) == NaiveEvaluator().evaluate(
            query, database
        )

    def test_comparison_query_runs_on_the_general_route(self):
        database = Database.from_tuples({"R": [(1, 2), (2, 1)]})
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery(
            (x,), [Atom("R", (x, y))], comparisons=[Comparison(x, y)]
        )
        engine = QueryEngine()
        assert engine.plan_for(query, database).structural_class == GENERAL
        assert engine.execute(query, database).rows == frozenset({(1,)})

    def test_star_dispatch(self):
        engine = QueryEngine()
        database = star_database(3, 8, seed=0)
        query = star_query(3)
        assert engine.plan_for(query, database).evaluator == "yannakakis"
        assert engine.execute(query, database) == NaiveEvaluator().evaluate(
            query, database
        )


class TestNaiveAtomOrderOverride:
    def test_explicit_order_same_answers(self, edge_db):
        naive = NaiveEvaluator()
        query = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        default = naive.evaluate(query, edge_db)
        assert naive.evaluate(query, edge_db, atom_order=(1, 0)) == default
        assert naive.evaluate(query, edge_db, atom_order=(0, 1)) == default

    def test_invalid_order_rejected(self, edge_db):
        naive = NaiveEvaluator()
        query = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        with pytest.raises(QueryError):
            naive.evaluate(query, edge_db, atom_order=(0, 0))
        with pytest.raises(QueryError):
            naive.evaluate(query, edge_db, atom_order=(0,))
