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

from repro import Database, QueryEngine, Relation
from repro.evaluation import (
    NaiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
)
from repro.hypergraph.join_tree import JoinTree
from repro.inequalities import AcyclicInequalityEvaluator
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    random_acyclic_query,
    random_database,
    random_graph,
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
