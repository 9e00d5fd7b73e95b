"""The parallel execution layer behind the engine facade.

The worker pool, N-wide batch lifting, the per-shape stats ledger, and
cost-model feedback must all be invisible at the API: every result equals
what ``QueryEngine(parallel=False)`` returns, under the same plan.
"""

import random
import threading

import pytest

from repro import Database, DatalogEvaluator, NaiveEvaluator, QueryEngine
from repro.evaluation import YannakakisEvaluator
from repro.operations import EXECUTE, operations_of
from repro.parallel import (
    ParallelYannakakisEvaluator,
    WorkerPool,
    lift_batch_group,
)
from repro.query.parser import parse_program, parse_query
from repro.workloads import (
    chain_database,
    path_neq_query,
    path_query,
    random_acyclic_query,
    random_database,
    star_database,
    star_query,
)
from repro.relational.schema import DatabaseSchema, RelationSchema


@pytest.fixture
def big_chain():
    return chain_database(layers=5, width=24, p=0.3, seed=11)


class TestParallelDispatch:
    def test_one_acyclic_plan_whatever_the_size_or_the_pool(self, big_chain):
        query = path_query(4, head_arity=1)
        small_chain = chain_database(layers=5, width=8, p=0.3, seed=1)
        for database in (big_chain, small_chain):
            parallel = QueryEngine().plan_for(query, database)
            sequential = QueryEngine(parallel=False).plan_for(query, database)
            assert parallel.evaluator == "yannakakis"
            assert parallel.explain() == sequential.explain()

    def test_parallel_execution_matches_sequential(self, big_chain):
        query = path_query(4, head_arity=2)
        parallel = QueryEngine()
        sequential = QueryEngine(parallel=False)
        assert parallel.execute(query, big_chain) == sequential.execute(
            query, big_chain
        )
        assert parallel.decide(query, big_chain) == sequential.decide(
            query, big_chain
        )

    def test_star_query_parallel_matches(self):
        query = star_query(5)
        database = star_database(5, 64, seed=3)
        parallel = QueryEngine()
        assert parallel.execute(query, database) == QueryEngine(
            parallel=False
        ).execute(query, database)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_acyclic_agreement(self, seed):
        rng = random.Random(seed)
        query = random_acyclic_query(
            num_atoms=rng.randint(2, 5),
            max_arity=3,
            seed=seed,
            head_arity=rng.randint(0, 2),
        )
        schema = DatabaseSchema(
            RelationSchema(atom.relation, atom.arity) for atom in query.atoms
        )
        database = random_database(schema, 12, 80, seed=seed)
        evaluator = ParallelYannakakisEvaluator(shard_count=3, min_shard_rows=1)
        reference = YannakakisEvaluator()
        assert evaluator.evaluate(query, database) == reference.evaluate(
            query, database
        )
        assert evaluator.decide(query, database) == reference.decide(
            query, database
        )

    def test_forced_evaluator_still_works(self, big_chain):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        assert engine.execute(query, big_chain, evaluator="naive") == (
            engine.execute(query, big_chain)
        )


class TestBatchLifting:
    def make_batch(self, database, size, length=4):
        query = path_query(length, head_arity=1)
        starts = sorted({row[0] for row in database["E"].rows})
        starts = (starts * (size // len(starts) + 1))[:size]
        return [query.decision_instance((value,)) for value in starts]

    def test_lifted_batch_matches_per_member(self, big_chain):
        batch = self.make_batch(big_chain, 32)
        wide = QueryEngine()
        sequential = QueryEngine(parallel=False)
        assert wide.run_batch(operations_of(EXECUTE, batch), big_chain) == sequential.run_batch(operations_of(EXECUTE, batch), big_chain
        )

    def test_small_groups_skip_lifting(self, big_chain):
        batch = self.make_batch(big_chain, 3)
        assert QueryEngine().run_batch(operations_of(EXECUTE, batch), big_chain
        ) == QueryEngine(parallel=False).run_batch(operations_of(EXECUTE, batch), big_chain)

    def test_mixed_shape_batch_preserves_order(self, big_chain):
        batch = self.make_batch(big_chain, 12)
        batch.insert(0, path_query(3, head_arity=1))
        batch.append(path_query(2, head_arity=2))
        wide = QueryEngine().run_batch(operations_of(EXECUTE, batch), big_chain)
        sequential = QueryEngine(parallel=False).run_batch(operations_of(EXECUTE, batch), big_chain)
        assert wide == sequential

    def test_identical_members_share_one_execution(self, big_chain):
        query = path_query(4, head_arity=1)
        batch = [query] * 10
        results = QueryEngine().run_batch(operations_of(EXECUTE, batch), big_chain)
        assert all(result == results[0] for result in results)
        assert results[0] == QueryEngine(parallel=False).execute(query, big_chain)

    def test_inequality_members_fall_back(self, big_chain):
        query = path_neq_query(3, 2, seed=1)
        starts = sorted({row[0] for row in big_chain["E"].rows})[:10]
        batch = [query.decision_instance((value,)) for value in starts]
        assert QueryEngine().run_batch(operations_of(EXECUTE, batch), big_chain) == QueryEngine(
            parallel=False
        ).run_batch(operations_of(EXECUTE, batch), big_chain)

    def test_lift_declines_on_template_mismatch(self, big_chain):
        left = path_query(3, head_arity=1).decision_instance((0,))
        renamed = parse_query("PATH() :- E(0, a), E(a, b), E(b, c).")
        assert lift_batch_group([left, renamed], big_chain) is None

    def test_lift_declines_on_identical_members(self, big_chain):
        member = path_query(3, head_arity=1)  # no constants — nothing to lift
        assert lift_batch_group([member, member], big_chain) is None

    def test_lifted_head_arity_two(self, big_chain):
        query = path_query(3, head_arity=2)
        rows = sorted(big_chain["E"].rows)[:12]
        batch = [query.decision_instance(row) for row in rows]
        assert QueryEngine().run_batch(operations_of(EXECUTE, batch), big_chain) == QueryEngine(
            parallel=False
        ).run_batch(operations_of(EXECUTE, batch), big_chain)


class TestObservability:
    def test_stats_facade_counts_shapes_and_latency(self, big_chain):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        for value in sorted({row[0] for row in big_chain["E"].rows})[:5]:
            engine.contains(query, big_chain, (value,))
        stats = engine.stats()
        assert stats["executions"] == 5
        assert stats["cache"]["hits"] == 4
        assert stats["cache"]["misses"] == 1
        assert len(stats["shapes"]) == 1
        shape = stats["shapes"][0]
        assert shape["executions"] == 5
        assert shape["total_seconds"] > 0
        assert shape["mean_seconds"] > 0

    def test_actual_cardinality_feedback_in_explain(self, big_chain):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        before = engine.explain(query, big_chain)
        assert "actuals" not in before
        result = engine.execute(query, big_chain)
        after = engine.explain(query, big_chain)
        assert f"last |Q(d)|={result.cardinality}" in after
        (row,) = engine.stats()["shapes"]
        assert row["last_rows"] == result.cardinality
        assert row["executions"] >= 1
        assert row["estimated_rows"] > 0

    def test_clear_cache_resets_ledger(self, big_chain):
        engine = QueryEngine()
        engine.execute(path_query(3, head_arity=1), big_chain)
        engine.clear_cache()
        stats = engine.stats()
        assert stats["executions"] == 0
        assert stats["shapes"] == []


class TestDatalogThroughEngine:
    def test_rule_bodies_hit_plan_cache(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y).
            T(x, z) :- E(x, y), T(y, z).
            """
        )
        rng = random.Random(0)
        edges = Database.from_tuples(
            {"E": [(rng.randrange(25), rng.randrange(25)) for _ in range(50)]}
        )
        adaptive = DatalogEvaluator()
        legacy = DatalogEvaluator(NaiveEvaluator())
        assert adaptive.evaluate(program, edges) == legacy.evaluate(
            program, edges
        )
        assert adaptive.rule_engine.stats()["cache"]["hits"] > 0

    def test_engine_instance_can_be_injected(self):
        program = parse_program("T(x, y) :- E(x, y).")
        edges = Database.from_tuples({"E": [(1, 2), (2, 3)]})
        engine = QueryEngine()
        evaluator = DatalogEvaluator(engine)
        evaluator.evaluate(program, edges)
        assert evaluator.rule_engine is engine
        assert engine.stats()["executions"] > 0


class TestBatchObservability:
    def test_lifted_batch_leaves_member_plan_runtime_untouched(self, big_chain):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in big_chain["E"].rows})[:16]
        batch = [query.decision_instance((value,)) for value in starts]
        engine.run_batch(operations_of(EXECUTE, batch), big_chain)
        # The members were served by the lifted query's execution — their
        # own plan never ran, so it must not accumulate phantom actuals.
        assert "actuals" not in engine.explain(batch[0], big_chain)
        lifted_shapes = [
            s
            for s in engine.stats()["shapes"]
            if s["executions"] and s["last_rows"] is not None
        ]
        assert len(lifted_shapes) == 1  # exactly the lifted execution

    def test_identical_members_record_one_execution(self, big_chain):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        engine.run_batch(operations_of(EXECUTE, [query] * 6), big_chain)
        (row,) = engine.stats()["shapes"]
        assert row["executions"] == 1
        assert engine.stats()["executions"] == 1


class TestWorkerPool:
    def test_serial_inline(self):
        pool = WorkerPool(max_workers=1)
        caller = threading.get_ident()
        assert pool.map(lambda x: (x * 2, threading.get_ident()), [1, 2, 3]) == [
            (2, caller),
            (4, caller),
            (6, caller),
        ]
        assert pool.submit(threading.get_ident).result(timeout=10) == caller
        assert "idle" in repr(pool)  # no executor was ever started

    def test_threads_preserve_order(self):
        with WorkerPool(max_workers=4) as pool:
            assert pool.map(lambda x: x * x, list(range(20))) == [
                x * x for x in range(20)
            ]

    def test_nested_map_runs_inline_instead_of_deadlocking(self):
        # A level with as many parent tasks as workers, each issuing a
        # nested sharded map, used to exhaust the bounded executor: every
        # worker blocked on inner tasks no free worker could run.
        pool = WorkerPool(max_workers=2)

        def outer(i):
            return sum(pool.map(lambda j: i * 10 + j, [1, 2, 3]))

        done = {}

        def drive():
            done["result"] = pool.map(outer, [0, 1, 2, 3])

        worker = threading.Thread(target=drive, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert "result" in done, "nested WorkerPool.map deadlocked"
        expected = [sum(i * 10 + j for j in (1, 2, 3)) for i in range(4)]
        assert done["result"] == expected
        pool.close()

    def test_multicore_shaped_engine_run_completes(self, big_chain):
        # Two-worker thread pool + a join tree with two independent
        # parent groups per level: the executor fans the groups out and
        # each group issues nested sharded semijoins.
        query = parse_query(
            "Q(x) :- R(x, y), S(x, z), T(y, u), U(z, v)."
        )
        rng = random.Random(5)
        database = Database.from_tuples(
            {
                name: [(rng.randrange(30), rng.randrange(30)) for _ in range(900)]
                for name in ("R", "S", "T", "U")
            }
        )
        with WorkerPool(max_workers=2) as pool:
            evaluator = ParallelYannakakisEvaluator(
                pool=pool, shard_count=2, min_shard_rows=1
            )
            done = {}

            def drive():
                done["result"] = evaluator.evaluate(query, database)

            worker = threading.Thread(target=drive, daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert "result" in done, "parallel Yannakakis deadlocked"
            assert done["result"] == YannakakisEvaluator().evaluate(query, database)
