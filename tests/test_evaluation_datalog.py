"""Tests for Datalog evaluation: naive, semi-naive, and the CQ-oracle route."""

import pytest

from repro.errors import QueryError
from repro.evaluation import DatalogEvaluator, NaiveEvaluator
from repro.query import parse_program
from repro.relational import Database
from repro.reductions import evaluate_via_cq_oracle, naive_cq_oracle, w1_cq_oracle


@pytest.fixture
def edges():
    return Database.from_tuples({"E": [(1, 2), (2, 3), (3, 4)]})


@pytest.fixture
def transitive():
    return parse_program(
        """
        T(x, y) :- E(x, y).
        T(x, y) :- E(x, z), T(z, y).
        """
    )


class TestFixpoints:
    def test_transitive_closure(self, transitive, edges):
        result = DatalogEvaluator().evaluate(transitive, edges)
        assert result.rows == frozenset(
            {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
        )

    def test_naive_and_seminaive_agree(self, transitive, edges):
        evaluator = DatalogEvaluator()
        naive = evaluator.evaluate(transitive, edges, method="naive")
        semi = evaluator.evaluate(transitive, edges, method="seminaive")
        assert naive == semi

    def test_unknown_method(self, transitive, edges):
        with pytest.raises(QueryError):
            DatalogEvaluator().evaluate(transitive, edges, method="magic")

    def test_cycle_terminates(self):
        program = parse_program(
            "T(x, y) :- E(x, y). T(x, y) :- E(x, z), T(z, y)."
        )
        db = Database.from_tuples({"E": [(1, 2), (2, 1)]})
        result = DatalogEvaluator().evaluate(program, db)
        assert result.rows == frozenset({(1, 2), (2, 1), (1, 1), (2, 2)})

    def test_multiple_idbs(self):
        program = parse_program(
            """
            A(x) :- S(x).
            B(x) :- A(x), R(x).
            """,
            goal="B",
        )
        db = Database.from_tuples({"S": [(1,), (2,)], "R": [(2,), (3,)]})
        fixpoint = DatalogEvaluator().fixpoint(program, db)
        assert fixpoint["A"].rows == frozenset({(1,), (2,)})
        assert fixpoint["B"].rows == frozenset({(2,)})

    def test_constants_in_rules(self):
        program = parse_program("T(x) :- E(1, x). T(x) :- E(x, 4), T(x).")
        db = Database.from_tuples({"E": [(1, 2), (2, 4), (1, 4)]})
        result = DatalogEvaluator().evaluate(program, db)
        assert result.rows == frozenset({(2,), (4,)})

    def test_same_generation(self):
        program = parse_program(
            """
            SG(x, y) :- F(p, x), F(p, y).
            SG(x, y) :- F(p, x), F(q, y), SG(p, q).
            """
        )
        db = Database.from_tuples(
            {"F": [(1, 2), (1, 3), (2, 4), (3, 5)]}
        )
        result = DatalogEvaluator().evaluate(program, db)
        assert (4, 5) in result
        assert (2, 3) in result
        assert (2, 5) not in result


class TestCQOracleRoute:
    def test_oracle_route_matches_engine(self, transitive, edges):
        direct = DatalogEvaluator().evaluate(transitive, edges)
        via_oracle, stats = evaluate_via_cq_oracle(transitive, edges)
        assert direct.rows == via_oracle.rows
        assert stats.calls > 0

    def test_w1_oracle_agrees_with_naive_oracle(self, transitive, edges):
        via_naive, _ = evaluate_via_cq_oracle(transitive, edges, naive_cq_oracle)
        via_w1, _ = evaluate_via_cq_oracle(transitive, edges, w1_cq_oracle)
        assert via_naive.rows == via_w1.rows

    def test_oracle_call_count_polynomial(self, transitive, edges):
        _, stats = evaluate_via_cq_oracle(transitive, edges)
        n = len(edges.domain())
        r = transitive.max_arity()
        rules = len(transitive.rules)
        # stages ≤ n^r + 1 (one confirming stage), calls ≤ stages·rules·n^r.
        assert stats.stages <= n ** r + 1
        assert stats.calls <= stats.stages * rules * n ** r

    def test_oracle_parameter_bounded_by_program(self, transitive, edges):
        _, stats = evaluate_via_cq_oracle(transitive, edges)
        assert stats.max_parameter_v <= transitive.max_rule_variables()


class TestBatchedRuleBodies:
    """Semi-naive rounds hand ALL rule bodies to the engine as one
    ``run_batch`` call — one snapshot per round, never per rule."""

    class RecordingEngine:
        """Wraps an engine, recording every batch/single evaluation."""

        def __init__(self, engine):
            self._engine = engine
            self.batch_calls = []
            self.single_calls = 0

        def execute(self, query, database):
            self.single_calls += 1
            return self._engine.execute(query, database)

        def run_batch(self, operations, database):
            self.batch_calls.append(len(operations))
            return self._engine.run_batch(operations, database)

    def test_seminaive_routes_rounds_through_execute_batch(self, edges):
        from repro import QueryEngine
        from repro.query import parse_program

        program = parse_program(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- E(x, z), T(z, y).
            S(x) :- T(x, x).
            S(x) :- T(x, y), E(y, x).
            """
        )
        recording = self.RecordingEngine(QueryEngine())
        batched = DatalogEvaluator(rule_engine=recording).fixpoint(program, edges)
        reference = DatalogEvaluator(rule_engine=NaiveEvaluator()).fixpoint(
            program, edges
        )
        assert {n: r.rows for n, r in batched.items()} == {
            n: r.rows for n, r in reference.items()
        }
        # First round: all 4 rule bodies in ONE call; every delta round
        # batches its delta-instantiated bodies too.
        assert recording.batch_calls and recording.batch_calls[0] == 4
        assert recording.single_calls == 0

    def test_naive_evaluator_satisfies_the_batch_interface(self, transitive, edges):
        evaluator = DatalogEvaluator(rule_engine=NaiveEvaluator())
        assert evaluator._evaluate_batch is not None
        semi = evaluator.evaluate(transitive, edges, method="seminaive")
        naive = evaluator.evaluate(transitive, edges, method="naive")
        assert semi == naive

    def test_engines_without_run_batch_are_rejected_loudly(self, edges):
        """Regression: a rule engine missing ``run_batch`` used to degrade
        silently to sequential per-rule evaluation (the pre-operation-API
        legacy fallback); it must be a typed construction-time error."""

        class ExecuteOnlyEngine:
            def execute(self, query, database):  # pragma: no cover - never run
                raise AssertionError("construction should already have failed")

        with pytest.raises(QueryError, match="run_batch"):
            DatalogEvaluator(rule_engine=ExecuteOnlyEngine())
