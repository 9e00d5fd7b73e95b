"""Property tests: the adaptive engine agrees with every applicable
evaluator on randomized acyclic and cyclic queries.

The engine's whole contract is that dispatch is invisible: whatever the
planner picks, ``execute`` returns exactly what the generic backtracking
oracle returns, and — where their preconditions hold — what Yannakakis,
the treewidth evaluator, and the Theorem 2 machinery return.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, QueryEngine, Relation, parse_query
from repro.engine import Planner
from repro.errors import DeadlineExceededError
from repro.evaluation import (
    NaiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
    yannakakis,
)
from repro.hypergraph.join_tree import JoinTree
from repro.inequalities import AcyclicInequalityEvaluator
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.resilience import CancelToken, activate
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    random_acyclic_query,
    random_database,
    random_graph,
    star_database,
)


def database_for(query, domain_size: int, tuples: int, seed: int) -> Database:
    schema = DatabaseSchema(
        RelationSchema(atom.relation, atom.arity) for atom in query.atoms
    )
    return random_database(schema, domain_size, tuples, seed=seed)


def graph_database(n: int, p: float, seed: int) -> Database:
    edges = list(random_graph(n, p, seed=seed).edges())
    rows = edges + [(b, a) for a, b in edges]
    return Database.from_tuples({"E": rows or [(0, 0)]})


class TestAcyclicAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_engine_matches_all_applicable_evaluators(self, seed):
        rng = random.Random(seed)
        query = random_acyclic_query(
            num_atoms=rng.randint(2, 5),
            max_arity=3,
            num_inequalities=0,
            seed=seed,
            head_arity=rng.randint(0, 2),
        )
        database = database_for(query, domain_size=6, tuples=25, seed=seed)
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert YannakakisEvaluator().evaluate(query, database) == reference
        assert TreewidthEvaluator().evaluate(query, database) == reference
        assert engine.decide(query, database) == (not reference.is_empty())

    @pytest.mark.parametrize("seed", range(8))
    def test_engine_matches_on_inequality_queries(self, seed):
        query = path_neq_query(3 + seed % 3, 1 + seed % 2, seed=seed)
        assert query.inequalities
        database = chain_database(
            layers=len(query.atoms) + 1, width=5, p=0.5, seed=seed
        )
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert (
            AcyclicInequalityEvaluator().evaluate(query, database) == reference
        )


class TestRootingInvariance:
    """Whatever root the caller's join tree has, ``evaluate`` equals the
    naive oracle — and never runs an upward join that adds no column to
    its parent (after the full reducer that join is the identity)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.sampled_from(("plain", "repeated", "constant")),
    )
    def test_every_supplied_root_matches_naive(self, seed, head_arity, head_shape):
        rng = random.Random(seed)
        base = random_acyclic_query(
            num_atoms=rng.randint(1, 5),
            max_arity=3,
            seed=seed,
            head_arity=head_arity,
        )
        head = list(base.head_terms)
        if head_shape == "repeated" and head:
            head.append(head[0])
        elif head_shape == "constant":
            head.insert(rng.randint(0, len(head)), Constant(7))
        query = ConjunctiveQuery(tuple(head), list(base.atoms), head_name="RND")
        database = database_for(query, domain_size=5, tuples=20, seed=seed)
        reference = NaiveEvaluator().evaluate(query, database)
        tree = JoinTree.from_hypergraph(query.hypergraph())

        joins = []
        join_keep = Relation._join_keep

        def spy(self, other, other_keep):
            joins.append((self.attributes, tuple(other_keep)))
            return join_keep(self, other, other_keep)

        with mock.patch.object(Relation, "_join_keep", spy):
            for node in tree.nodes():
                answer = YannakakisEvaluator().evaluate(
                    query, database, join_tree=tree.rooted_at(node)
                )
                assert answer == reference, f"root={node}"
        for parent_attributes, keep in joins:
            assert not set(keep) <= set(parent_attributes)


class TestFirstWitness:
    """``YannakakisEvaluator.decide`` is a budgeted first-witness search
    followed — only when the budget is spent — by the bottom-up pass.
    Whatever the budget, it answers like the pass and like the oracle."""

    @staticmethod
    def case(seed, head_arity, shape):
        """A generated acyclic query with a constant or a repeated variable
        put in (both substitutions keep the hypergraph acyclic) and a
        database sparse enough that both answers occur."""
        rng = random.Random(seed)
        base = random_acyclic_query(
            num_atoms=rng.randint(1, 5), max_arity=3, seed=seed, head_arity=head_arity
        )
        replace = {}
        if shape == "constant":
            replace[rng.choice(base.variables())] = Constant(rng.randrange(4))
        elif shape == "repeated":
            wide = [a for a in base.atoms if len(a.variables()) > 1]
            if wide:
                kept, merged = rng.sample(rng.choice(wide).variables(), 2)
                replace[merged] = kept
        atoms = [
            Atom(atom.relation, tuple(replace.get(t, t) for t in atom.terms))
            for atom in base.atoms
        ]
        head = tuple(replace.get(t, t) for t in base.head_terms)
        query = ConjunctiveQuery(head, atoms, head_name="RND")
        assert query.is_acyclic()
        database = database_for(
            query, domain_size=4, tuples=rng.choice((2, 5, 12)), seed=seed
        )
        return query, database

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 2),
        st.sampled_from(("plain", "constant", "repeated")),
    )
    def test_every_budget_agrees_with_the_pass_and_the_oracle(
        self, seed, head_arity, shape
    ):
        query, database = self.case(seed, head_arity, shape)
        evaluator = YannakakisEvaluator()
        expected = NaiveEvaluator().decide(query, database)
        semijoins = []
        semijoin = Relation.semijoin

        def spy(self, other):
            semijoins.append((self.attributes, other.attributes))
            return semijoin(self, other)

        with mock.patch.object(Relation, "semijoin", spy):
            assert (evaluator.reduce_bottom_up(query, database) is not None) == expected
            the_pass = list(semijoins)
            for budget in (0, 1, 7, None):
                del semijoins[:]
                if budget is None:
                    budget = yannakakis.witness_budget(query, database)
                    decided = evaluator.decide(query, database)
                else:
                    with mock.patch.object(
                        yannakakis, "witness_budget", lambda q, d, _b=budget: _b
                    ):
                        decided = evaluator.decide(query, database)
                assert decided == expected, budget
                searched = NaiveEvaluator().first_witness(query, database, budget)
                if searched is None:  # budget spent: the reducer's semijoins
                    assert semijoins == the_pass, budget
                else:  # found or refuted inside the budget: no pass at all
                    assert searched == expected
                    assert semijoins == [], budget

    def test_an_expired_deadline_is_noticed_inside_the_search(self):
        # No 5-hop path on a 5-layer chain, and far more than one polling
        # stride of 4-hop prefixes to refute inside a budget of
        # 5 * 7 200 // 16 steps: the search itself must see the token.
        database = chain_database(layers=5, width=60, p=0.5, seed=1)
        query = parse_query("Q() :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, f).")
        evaluator = YannakakisEvaluator()
        assert yannakakis.witness_budget(query, database) > 2048
        assert evaluator.decide(query, database) is False
        with mock.patch.object(
            YannakakisEvaluator, "reduce_bottom_up"
        ) as the_pass, activate(CancelToken(deadline=0)):
            with pytest.raises(DeadlineExceededError):
                evaluator.decide(query, database)
        the_pass.assert_not_called()


class TestPlanOrderInvariance:
    """A plan is a function of (query shape, row counts, observed result
    cardinality) — never of which requests ran first or how fast they ran.
    Shapes and sizes (≈ 960 chain edges, 200 rows per star arm) are the e2e
    benchmark's ``wire_small_mix``."""

    SHAPES = (
        ("chain", "Q() :- E(a, b), E(b, c), E(c, d), E(d, e)."),
        ("chain", "Q(a) :- E(a, b), E(b, c), E(c, d), E(d, e)."),
        ("chain", "Q(a, b) :- E(a, b), E(b, c), E(c, d), E(d, e)."),
        ("star", "Q(h, x) :- A1(h, x), A2(h, y), A3(h, z)."),
        ("chain", "Q() :- E(a, b), E(b, c), E(c, a)."),
        ("chain", "Q(a, b) :- E(a, b), E(b, c), a != c."),
        ("chain", "Q(a) :- E(a, b), E(b, c), E(c, d), a != d."),
        ("chain", "Q(x, y) :- E(x, y)."),
    )
    ORDERS = 20
    REPEATS = 3

    @pytest.mark.parametrize("plan_cache_size", [128, 1])
    def test_plans_do_not_depend_on_arrival_order(self, plan_cache_size):
        # plan_cache_size=1 evicts every shape when the next one arrives, so
        # each final plan_for re-plans on an engine whose ledger is warm.
        databases = {
            "chain": chain_database(layers=5, width=60, p=4 / 60, seed=3),
            "star": star_database(3, 20, seed=1),
        }
        shapes = [
            (text, parse_query(text), databases[name]) for name, text in self.SHAPES
        ]
        planner = Planner()
        for order in range(self.ORDERS):
            schedule = shapes * self.REPEATS
            random.Random(order).shuffle(schedule)
            with QueryEngine(plan_cache_size=plan_cache_size) as engine:
                for _, query, database in schedule:
                    engine.execute(query, database)
                for text, query, database in shapes:
                    plan = engine.plan_for(query, database)
                    # Equal to what a planner that has seen nothing makes of
                    # the same inputs, hence the same in every order.  A drift
                    # re-plan carries the row count it observed; a first plan
                    # carries None.
                    cold = planner.plan(
                        query, database, observed_rows=plan.corrected_rows
                    )
                    assert plan.evaluator == cold.evaluator, (order, text)
                    assert plan.cost_estimates == cold.cost_estimates, (order, text)


class TestCyclicAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_cycles_match_naive_and_treewidth(self, seed):
        rng = random.Random(seed)
        length = rng.randint(3, 5)
        query = cycle_query(length)
        database = graph_database(n=10, p=0.4, seed=seed)
        engine = QueryEngine()
        reference = NaiveEvaluator().evaluate(query, database)
        assert engine.execute(query, database) == reference
        assert TreewidthEvaluator().evaluate(query, database) == reference
        assert engine.decide(query, database) == (not reference.is_empty())


class TestParameterizedAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_contains_matches_naive_across_bindings(self, seed):
        query = random_acyclic_query(
            num_atoms=3, max_arity=2, num_inequalities=0, seed=seed, head_arity=1
        )
        database = database_for(query, domain_size=5, tuples=20, seed=seed)
        engine = QueryEngine()
        naive = NaiveEvaluator()
        for candidate in sorted(database.domain()):
            assert engine.contains(query, database, (candidate,)) == (
                naive.contains(query, database, (candidate,))
            ), f"seed={seed}, candidate={candidate}"
        # One shape -> one plan for the whole candidate sweep.
        assert engine.cache_stats.misses <= 2
