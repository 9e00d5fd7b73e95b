"""Adaptive re-planning and the decision-only batch path.

Two halves of this PR's engine work:

* **re-planning** — when an execution's actual cardinality drifts ≥ the
  threshold from the plan's estimate, the engine re-plans the shape with
  the observation as corrected statistics and replaces its table entry's
  plan, visible in ``explain`` and ``stats()``;
* **decide_batch** — N same-shape decision instances lift into one query
  whose join tree is rooted at the injected parameter atom; a bottom-up
  semijoin pass there yields every member's decision at once, exactly
  matching per-member ``decide``.
"""

import time

import pytest

from repro import (
    ConjunctiveQuery,
    Database,
    QueryEngine,
    Relation,
    YannakakisEvaluator,
)
from repro.engine import DEFAULT_REPLAN_LIMIT, Planner
from repro.parallel import ParallelYannakakisEvaluator, lift_batch_group
from repro.operations import DECIDE, operations_of
from repro.query.atoms import Atom
from repro.query.parser import parse_query
from repro.query.terms import Constant, Variable
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    path_query,
    star_database,
    star_query,
)


@pytest.fixture()
def drifting_workload():
    """A join whose estimate is ≥ 10× its actual cardinality: E and F
    share no join values, so the result is empty while the uniformity
    assumption predicts |E| matches."""
    n = 64
    E = Relation.from_rows(("a", "b"), [(i, i + 1000) for i in range(n)])
    F = Relation.from_rows(("c", "d"), [(i + 5000, i + 9000) for i in range(n)])
    database = Database({"E": E, "F": F})
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery((x, z), [Atom("E", (x, y)), Atom("F", (y, z))])
    return query, database


class TestAdaptiveReplanning:
    def test_drift_invalidates_and_replans(self, drifting_workload):
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        first = engine.plan_for(query, database)
        assert first.replans == 0
        assert first.estimated_rows >= 10  # the mis-estimate
        result = engine.execute(query, database)
        assert result.cardinality == 0
        replanned = engine.plan_for(query, database)
        assert replanned.replans == 1
        assert replanned.corrected_rows == 0.0
        assert replanned.estimated_rows == 0.0

    def test_replan_surfaces_in_explain_and_stats(self, drifting_workload):
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        engine.execute(query, database)
        rendering = engine.explain(query, database)
        assert "re-plan" in rendering
        assert "corrected" in rendering
        stats = engine.stats()
        assert stats["replans"] == 1
        assert any(shape["replans"] == 1 for shape in stats["shapes"])

    def test_explain_counts_executions_across_a_replan(self, drifting_workload):
        """explain's actuals and the shape's stats row are one record: a
        re-plan swaps the plan, not the count."""
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        engine.decide(query, database)
        engine.decide(query, database)
        engine.execute(query, database)  # the first observed |Q(d)|: re-plans
        (row,) = engine.stats()["shapes"]
        assert row["replans"] == 1 and row["executions"] == 3
        rendering = engine.explain(query, database)
        assert "re-plan  : #1" in rendering
        assert f"({row['executions']} execution(s) recorded)" in rendering

    def test_stable_workload_never_replans(self):
        # Full-head query: the satisfying-assignment estimate and the
        # result cardinality measure the same thing, and on this workload
        # they agree within ~3× — well under the 10× threshold.  (A
        # projecting head legitimately re-plans once: the projection
        # collapses the count, the correction adopts it, and the shape
        # settles — pinned by test_replan_settles_after_one_correction.)
        database = chain_database(layers=4, width=16, p=0.4, seed=2)
        query = path_query(3, head_arity=4)
        engine = QueryEngine(parallel=False)
        for _ in range(3):
            engine.execute(query, database)
        assert engine.stats()["replans"] == 0

    def test_replan_settles_after_one_correction(self, drifting_workload):
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        for _ in range(4):
            engine.execute(query, database)
        # Corrected estimate equals the observation: no further drift.
        assert engine.plan_for(query, database).replans == 1
        assert engine.stats()["replans"] == 1

    def test_a_replan_does_not_trade_the_baseline_for_a_modelled_sliver(self):
        """ROADMAP item 4, reproducer 1: planned ``naive``, then the drift
        re-plan corrected |Q(d)| to 120, the colour-coding estimate came out
        5 % under the baseline's (2.78e4 vs 2.94e4 row ops), a bare ``<``
        took it and every later call ran ~15× slower.  Theorem 2's engine is
        no longer a route: the re-plan keeps the search."""
        database = chain_database(layers=5, width=60, p=4 / 60, seed=1)
        query = parse_query("Q(a) :- E(a, b), E(b, c), E(c, d), a != d.")
        engine = QueryEngine()
        seconds = []
        for _ in range(4):
            assert engine.plan_for(query, database).evaluator == "naive"
            started = time.perf_counter()
            answer = engine.execute(query, database)
            seconds.append(time.perf_counter() - started)
            assert answer.cardinality == 120
        plan = engine.plan_for(query, database)
        assert plan.replans == 1 and plan.evaluator == "naive"
        assert seconds[3] < 3 * seconds[0]

    def test_oscillating_parameterizations_stop_at_the_replan_limit(self):
        """One shape whose constants alternate between a hub (many rows)
        and a leaf (one row) drifts on every execution; the per-entry
        budget must stop the re-plan churn instead of letting it turn the
        plan cache into a per-request planner."""
        hub_rows = [("hub", i) for i in range(200)]
        database = Database(
            {"E": Relation.from_rows(("a", "b"), hub_rows + [("leaf", -1)])}
        )
        y = Variable("y")

        def instance(constant):
            return ConjunctiveQuery(
                (y,), [Atom("E", (Constant(constant), y))]
            )

        engine = QueryEngine(parallel=False)
        for i in range(20):
            engine.execute(instance("hub" if i % 2 == 0 else "leaf"), database)
        stats = engine.stats()
        assert 1 <= stats["replans"] <= DEFAULT_REPLAN_LIMIT
        # The cache entry survives: lookups after the budget is spent
        # still hit instead of re-planning.
        hits_before = engine.stats()["cache"]["hits"]
        engine.execute(instance("hub"), database)
        assert engine.stats()["cache"]["hits"] == hits_before + 1

    def test_decide_only_runs_do_not_replan(self, drifting_workload):
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        engine.decide(query, database)  # no cardinality observed
        assert engine.plan_for(query, database).replans == 0

    def test_replanned_results_stay_correct(self, drifting_workload):
        query, database = drifting_workload
        engine = QueryEngine(parallel=False)
        before = engine.execute(query, database)
        after = engine.execute(query, database)  # runs the re-planned plan
        assert before == after

    def test_planner_consumes_observed_rows(self, drifting_workload):
        query, database = drifting_workload
        planner = Planner()
        plan = planner.plan(query, database, observed_rows=123.0)
        assert plan.estimated_rows == 123.0

    def test_exploded_actuals_raise_baseline_cost(self):
        """Upward correction: observing far more rows than estimated must
        scale the backtracking cost estimate up, not just the output."""
        database = chain_database(layers=4, width=16, p=0.4, seed=2)
        query = path_query(3, head_arity=1)
        planner = Planner()
        base = planner.plan(query, database)
        corrected = planner.plan(
            query, database, observed_rows=base.estimated_rows * 100
        )
        assert (
            corrected.cost_estimates["naive"]
            > base.cost_estimates["naive"] * 50
        )

    def test_collapsed_actuals_keep_baseline_cost(self):
        """Downward correction is asymmetric: few results still mean
        exploring the dead branches, so the baseline cost stays put."""
        database = chain_database(layers=4, width=16, p=0.4, seed=2)
        query = path_query(3, head_arity=1)
        planner = Planner()
        base = planner.plan(query, database)
        corrected = planner.plan(query, database, observed_rows=0.0)
        assert corrected.cost_estimates["naive"] == pytest.approx(
            base.cost_estimates["naive"]
        )
        assert corrected.estimated_rows == 0.0


class TestDecideBatch:
    @pytest.fixture(scope="class")
    def chain_db(self):
        return chain_database(layers=5, width=32, p=0.3, seed=7)

    @pytest.fixture(scope="class")
    def star_db(self):
        return star_database(4, 150, seed=3)

    def _reference(self, queries, database):
        sequential = QueryEngine(parallel=False)
        return [sequential.decide(query, database) for query in queries]

    def test_matches_per_member_decide_with_negatives(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:24]
        candidates = starts + [424242, -1]
        batch = [query.decision_instance((value,)) for value in candidates]
        engine = QueryEngine()
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_star_workload_with_negatives(self, star_db):
        query = star_query(4)
        hubs = sorted({row[0] for row in star_db["A1"].rows})[:20]
        candidates = hubs + [91_000, 92_000]
        batch = [query.decision_instance((hub,)) for hub in candidates]
        engine = QueryEngine()
        assert engine.run_batch(operations_of(DECIDE, batch), star_db) == self._reference(
            batch, star_db
        )

    def test_identical_members_share_one_decision(self, chain_db):
        query = path_query(3, head_arity=1)
        start = sorted({row[0] for row in chain_db["E"].rows})[0]
        member = query.decision_instance((start,))
        engine = QueryEngine()
        decisions = engine.run_batch(operations_of(DECIDE, [member] * 12), chain_db)
        assert decisions == [True] * 12
        assert engine.stats()["executions"] == 1

    def test_small_groups_fall_back_per_member(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:3]
        batch = [query.decision_instance((value,)) for value in starts]
        engine = QueryEngine()  # group below batch_wide_threshold
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_mixed_shapes_preserve_order(self, chain_db, star_db):
        """decide_batch only groups same-database shapes; mix shapes of
        one database and check positional answers."""
        path4 = path_query(4, head_arity=1)
        path3 = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        batch = []
        for i in range(20):
            query = path4 if i % 2 == 0 else path3
            batch.append(query.decision_instance((starts[i],)))
        engine = QueryEngine()
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_inequality_members_fall_back(self, chain_db):
        query = path_neq_query(3, neq_pairs=1, seed=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:10]
        batch = [query.decision_instance((value,)) for value in starts]
        engine = QueryEngine()
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_cyclic_members_fall_back(self, chain_db):
        query = cycle_query(3)
        domain = sorted({row[0] for row in chain_db["E"].rows})[:10]
        batch = [query for _ in domain]  # boolean query, identical members
        engine = QueryEngine()
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_sequential_engine_matches(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:16]
        batch = [query.decision_instance((value,)) for value in starts]
        engine = QueryEngine(parallel=False)  # no lifting path at all
        assert engine.run_batch(operations_of(DECIDE, batch), chain_db) == self._reference(
            batch, chain_db
        )

    def test_empty_batch(self, chain_db):
        assert QueryEngine().run_batch(operations_of(DECIDE, []), chain_db) == []


class TestReduceBottomUp:
    def setup_method(self):
        self.database = chain_database(layers=4, width=24, p=0.3, seed=9)
        self.query = path_query(3, head_arity=1)

    def test_nonempty_iff_decide(self):
        evaluator = YannakakisEvaluator()
        reduced = evaluator.reduce_bottom_up(self.query, self.database)
        assert (reduced is not None) == evaluator.decide(
            self.query, self.database
        )

    def test_root_choice_preserves_decision(self):
        evaluator = YannakakisEvaluator()
        for root in range(len(self.query.atoms)):
            reduced = evaluator.reduce_bottom_up(
                self.query, self.database, root=root
            )
            assert reduced is not None

    def test_parallel_matches_sequential(self):
        sequential = YannakakisEvaluator()
        parallel = ParallelYannakakisEvaluator()
        for root in range(len(self.query.atoms)):
            left = sequential.reduce_bottom_up(
                self.query, self.database, root=root
            )
            right = parallel.reduce_bottom_up(
                self.query, self.database, root=root, shard_count=4
            )
            assert left == right

    def test_survivors_are_exactly_the_witnessed_tuples(self):
        """After the bottom-up pass, the root holds precisely the root
        atom's bindings that extend to a full match (the projection of
        the full join onto the root atom's variables)."""
        evaluator = YannakakisEvaluator()
        root = 0
        reduced = evaluator.reduce_bottom_up(
            self.query, self.database, root=root
        )
        assert reduced is not None
        full = YannakakisEvaluator().evaluate(
            ConjunctiveQuery(
                tuple(self.query.atoms[root].variables()),
                self.query.atoms,
                head_name="ROOT",
            ),
            self.database,
        )
        # Column order agrees (root atom variables, first-occurrence
        # order), so the row sets must be identical.
        root_names = tuple(
            v.name for v in self.query.atoms[root].variables()
        )
        assert reduced.project(root_names).rows == full.rows

    def test_lifted_root_reads_member_decisions(self):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in self.database["E"].rows})[:12]
        members = [
            query.decision_instance((value,)) for value in starts + [31337]
        ]
        lifted = lift_batch_group(members, self.database)
        assert lifted is not None
        root = len(lifted.query.atoms) - 1
        reduced = YannakakisEvaluator().reduce_bottom_up(
            lifted.query, lifted.database, root=root
        )
        decisions = lifted.decide_members(reduced)
        sequential = QueryEngine(parallel=False)
        assert decisions == [
            sequential.decide(member, self.database) for member in members
        ]

    def test_globally_empty_returns_none(self):
        empty_db = Database(
            {
                "E": Relation.from_rows(
                    ("E.0", "E.1"), [(0, 1), (1, 2)]
                )
            }
        )
        query = path_query(3, head_arity=1)
        evaluator = YannakakisEvaluator()
        # Paths of length 3 need 4 distinct levels; this chain stops at 2
        # hops, so E⋉E⋉E empties out.
        reduced = evaluator.reduce_bottom_up(query, empty_db)
        assert reduced is None


class TestRootedAt:
    def test_rerooting_preserves_undirected_edges_and_property(self):
        query = star_query(5)
        tree = QueryEngine().plan_for(
            query, star_database(5, 20, seed=1)
        ).analysis.join_tree
        assert tree is not None
        baseline = {frozenset(edge) for edge in tree.edges()}
        for node in tree.nodes():
            rerooted = tree.rooted_at(node)
            assert rerooted.root == node
            assert {frozenset(e) for e in rerooted.edges()} == baseline
            assert rerooted.verify_running_intersection()

    def test_rooted_at_current_root_is_identity(self):
        query = path_query(3, head_arity=1)
        tree = QueryEngine().plan_for(
            query, chain_database(layers=4, width=8, p=0.5, seed=0)
        ).analysis.join_tree
        assert tree is not None
        assert tree.rooted_at(tree.root) is tree

    def test_unknown_node_rejected(self):
        query = path_query(3, head_arity=1)
        tree = QueryEngine().plan_for(
            query, chain_database(layers=4, width=8, p=0.5, seed=0)
        ).analysis.join_tree
        assert tree is not None
        with pytest.raises(KeyError):
            tree.rooted_at(999)
