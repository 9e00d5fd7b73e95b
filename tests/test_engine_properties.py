"""Property tests: the adaptive engine agrees with every applicable
evaluator on randomized acyclic and cyclic queries.

The engine's whole contract is that dispatch is invisible: whatever the
planner picks, ``execute`` returns exactly what the generic backtracking
oracle returns, and — where their preconditions hold — what Yannakakis,
the treewidth evaluator, and the Theorem 2 machinery return.
"""

import asyncio
import os
import random
from collections import Counter
from itertools import combinations, product
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, QueryEngine, QueryService, Relation, parse_query
from repro.engine import Planner
from repro.errors import DeadlineExceededError, QueryError
from repro.evaluation import (
    CountingYannakakisEvaluator,
    NaiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
    yannakakis,
)
from repro.evaluation.counting import covering_atom
from repro.evaluation.yannakakis import Survivors, acyclic_program
from repro.inequalities import AcyclicInequalityEvaluator
from repro.operations import COUNT, DECIDE, EXECUTE, EXPLAIN, Operation, operations_of
from repro.parallel.batch import lift_batch_group
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.resilience import CancelToken, activate
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    path_query,
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
    """``execute``, ``decide`` and ``count`` run the program as planned,
    rooted where the head lives; only two routes still take a root of their
    own — ``reduce_bottom_up(root=...)`` and, through it, the lifted batch
    ``decide``, rooted at its parameter atom.  Whatever that root, they
    answer like the naive oracle; ``evaluate`` never runs an upward join
    that adds no column to its parent (after the full reducer that join is
    the identity); and a head inside one atom roots the program there."""

    @staticmethod
    def case(seed, head_arity, head_shape):
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
        return query, database

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.sampled_from(("plain", "repeated", "constant")),
    )
    def test_every_supplied_root_matches_naive(self, seed, head_arity, head_shape):
        query, database = self.case(seed, head_arity, head_shape)
        naive = NaiveEvaluator()
        evaluator = YannakakisEvaluator()
        program = acyclic_program(query)
        covering = covering_atom(query)
        if covering is not None:
            assert program.tree.root == covering

        for node, atom in enumerate(query.atoms):
            reduced = evaluator.reduce_bottom_up(query, database, root=node)
            # The survivors are the root atom's bindings that extend to a
            # whole match: the join projected onto its variables.
            rooted = ConjunctiveQuery(atom.variables(), query.atoms, head_name="R")
            expected = naive.evaluate(rooted, database)
            if reduced is None:
                assert expected.is_empty(), f"root={node}"
            else:
                assert sorted(reduced) == sorted(expected), f"root={node}"

        joins = []
        join_keep = Relation._join_keep

        def spy(self, other, other_keep):
            joins.append((self.attributes, tuple(other_keep)))
            return join_keep(self, other, other_keep)

        with mock.patch.object(Relation, "_join_keep", spy):
            answer = evaluator.evaluate(query, database)
        assert answer == naive.evaluate(query, database)
        for parent_attributes, keep in joins:
            assert not set(keep) <= set(parent_attributes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2))
    def test_the_lifted_decide_matches_naive(self, seed, head_arity):
        query, database = self.case(seed, head_arity, "plain")
        arity = len(query.head_terms)
        members = [
            query.decision_instance(candidate)
            for candidate in product(range(-1, 9), repeat=arity)
        ]
        roots = []
        reduce_bottom_up = YannakakisEvaluator.reduce_bottom_up

        def spy(self, *args, root=None, **kwargs):
            roots.append(root)
            return reduce_bottom_up(self, *args, root=root, **kwargs)

        with mock.patch.object(YannakakisEvaluator, "reduce_bottom_up", spy):
            decided = QueryEngine().run_batch(operations_of(DECIDE, members), database)
        assert decided == [NaiveEvaluator().decide(m, database) for m in members]
        lifted = lift_batch_group(members, database)
        if lifted is not None and lifted.query.is_acyclic():
            # The parameter atom is the last one, and the batch is rooted there.
            assert roots == [len(lifted.query.atoms) - 1]


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
        semijoin = Survivors.semijoin

        def spy(self, child, *keys):
            semijoins.append((self.relation.attributes, child.relation.attributes))
            return semijoin(self, child, *keys)

        with mock.patch.object(Survivors, "semijoin", spy):
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
        # 5 * 24 200 // 48 steps: the search itself must see the token.
        database = chain_database(layers=5, width=110, p=0.5, seed=1)
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


def semijoin_fold(relations, tree):
    """The upward pass as it was before the key-set form — a relation per
    edge — kept here as the reference the masks are checked against."""
    reduced = dict(relations)
    for node in tree.bottom_up_order():
        parent = tree.parent(node)
        if parent is None:
            continue
        reduced[parent] = reduced[parent].semijoin(reduced[node])
    return reduced


def keyed_tree_case(seed, twist):
    """A generated acyclic query over binary and ternary atoms, each atom
    an ear sharing one or two variables with an earlier one — so a node's
    children key on one column, on two, or on different columns — with a
    constant or a repeated variable put in, and a database sparse enough
    that every node filters."""
    rng = random.Random(seed)
    layouts = [["v0", "v1"]]
    for _ in range(rng.randint(1, 5)):
        parent = rng.choice(layouts)
        shared = rng.sample(parent, rng.choice((1, 2)) if len(parent) > 1 else 1)
        fresh = max(1, rng.choice((2, 3)) - len(shared))
        layout = shared + [f"v{len(layouts) * 3 + k}" for k in range(fresh)]
        rng.shuffle(layout)
        layouts.append(layout)
    replace = {}
    names = sorted({name for layout in layouts for name in layout})
    if twist == "constant":
        replace[rng.choice(names)] = Constant(rng.randrange(3))
    elif twist == "repeated":
        wide = [layout for layout in layouts if len(layout) > 1]
        kept, merged = rng.sample(rng.choice(wide), 2)
        replace[merged] = Variable(kept)
    atoms = [
        Atom(f"R{i}", tuple(replace.get(name, Variable(name)) for name in layout))
        for i, layout in enumerate(layouts)
    ]
    head = tuple(
        Variable(name)
        for name in rng.sample(names, rng.randint(0, 3))
        if name not in replace
    )
    query = ConjunctiveQuery(head, atoms, head_name="KEYED")
    assert query.is_acyclic()
    tuples = rng.choice((3, 6, 12))
    database = database_for(query, domain_size=3, tuples=tuples, seed=seed)
    return query, database


def key_positions(arity):
    """Every nonempty tuple of column positions, in column order."""
    return [p for size in range(1, arity + 1) for p in combinations(range(arity), size)]


class TestUpwardPass:
    """Key sets go up, rows stay put: per node the pass keeps the unfiltered
    candidate relation and which rows survive — the live keys on the one
    column set its children key on, or a survivor mask once two children
    key on different columns.  Whatever the tree, the root and the values,
    the survivors are the rows the plain ``Relation.semijoin`` fold over
    the node's subtree leaves, each reader (``take``, ``count``, ``keys``,
    ``live_keys``) reads them off either form, and ``execute`` / ``count``
    / ``decide`` read the same answers off them."""

    @staticmethod
    def check_every_root(query, database):
        evaluator = YannakakisEvaluator()
        counter = CountingYannakakisEvaluator()
        reference = NaiveEvaluator().evaluate(query, database)
        assert evaluator.evaluate(query, database) == reference
        with mock.patch.object(yannakakis, "witness_budget", lambda q, d: 0):
            decided = evaluator.decide(query, database)
        assert decided == (not reference.is_empty())
        program = acyclic_program(query)
        relations = evaluator._candidates(query, database, program)
        for root in range(len(query.atoms)):
            tree = program.tree.rooted_at(root)
            reduced_root = evaluator.reduce_bottom_up(query, database, root=root)
            if relations is None:
                assert reduced_root is None and reference.is_empty()
                continue
            expected = semijoin_fold(relations, tree)
            survivors = evaluator.bottom_up_reduction(relations, tree)
            if survivors is None:
                assert expected[root].is_empty() and reduced_root is None, root
                continue
            assert reduced_root == expected[root]
            for node, relation in expected.items():
                kept = survivors[node]
                taken = kept.take()
                assert taken == relation and len(taken) == kept.count()
                assert kept.is_empty() == relation.is_empty()
                assert kept.relation is relations[node]  # rows stay put
                masked = kept.masked()
                assert masked.live is None and masked.take() == relation
                for positions in key_positions(relation.arity):
                    key = itemgetter(*positions)
                    keys = list(map(key, relation))
                    assert Counter(kept.keys(positions)) == Counter(keys), positions
                    # ... in row order: aligned with the masked take.
                    assert list(kept.keys(positions)) == list(map(key, masked.take()))
                    assert kept.live_keys(positions) == frozenset(keys), positions
        try:
            counted = counter.count(query, database).total
        except QueryError:
            return  # a hard counting mode: the engine evaluates and counts
        assert counted == reference.cardinality

    def test_a_cross_product_component_that_reduces_to_empty_empties_the_answer(self):
        # S and T share v but no v matches; R shares nothing with either.
        query = parse_query("Q(x) :- R(x, y), S(u, v), T(v, w).")
        database = Database.from_tuples(
            {"R": [(1, 2), (3, 4)], "S": [(5, 6), (7, 8)], "T": [(9, 1)]}
        )
        assert NaiveEvaluator().evaluate(query, database).is_empty()
        self.check_every_root(query, database)
        engine = QueryEngine()
        assert engine.execute(query, database).is_empty()
        assert engine.count(query, database) == 0
        assert engine.decide(query, database) is False
        # ... and filters nothing once it is not empty.
        matched = Database.from_tuples(
            {"R": [(1, 2), (3, 4)], "S": [(5, 6), (7, 8)], "T": [(6, 1)]}
        )
        assert engine.execute(query, matched).rows == {(1,), (3,)}
        assert engine.count(query, matched) == 2
        self.check_every_root(query, matched)

    def test_a_node_with_several_children_keeps_the_conjunction_of_their_masks(self):
        # Each child knocks a different row out of A; one row survives all.
        query = parse_query("Q(h, x) :- A(h, x), B(h, y), C(x, z), D(h, x, w).")
        database = Database.from_tuples(
            {
                "A": [(1, 10), (2, 20), (3, 30), (4, 40)],
                "B": [(1, 0), (2, 0), (3, 0)],
                "C": [(10, 0), (20, 0), (40, 0)],
                "D": [(1, 10, 0), (3, 30, 0), (4, 40, 0)],
            }
        )
        assert QueryEngine().execute(query, database).rows == {(1, 10)}
        assert QueryEngine().count(query, database) == 1
        self.check_every_root(query, database)

    def test_a_node_keeps_its_key_filter_until_a_child_keys_on_other_columns(self):
        # A's children B and C key on h: A stays a key filter on h.  D keys
        # on x: A hands over to a row mask, keeping what B and C left.
        database = Database.from_tuples(
            {
                "A": [(1, 10), (2, 20), (3, 30), (4, 40), (4, 10)],
                "B": [(1, 0), (2, 0), (4, 0)],
                "C": [(1, 0), (4, 0), (5, 0)],
                "D": [(10, 0), (30, 0), (40, 0)],
            }
        )
        evaluator = YannakakisEvaluator()
        forms = {}
        for text in (
            "Q(h, x) :- A(h, x), B(h, y), C(h, z).",
            "Q(h, x) :- A(h, x), B(h, y), C(h, z), D(x, w).",
        ):
            query = parse_query(text)
            program = acyclic_program(query)
            assert program.tree.root == 0
            relations = evaluator._candidates(query, database, program)
            reduced = evaluator.bottom_up_reduction(
                relations, program.tree, program.edges
            )
            forms[len(query.atoms)] = reduced[0]
            self.check_every_root(query, database)
        keyed, masked = forms[3], forms[4]
        assert keyed.mask is None and keyed.key == (0,) and keyed.live == {1, 4}
        assert masked.mask is not None and masked.live is None
        assert sorted(masked.take()) == [(1, 10), (4, 10), (4, 40)]

    def test_composite_join_keys(self):
        query = parse_query("Q(a, e) :- R(a, b, c), S(b, c, d), T(c, d, e).")
        database = Database.from_tuples(
            {
                "R": [(1, 2, 3), (1, 3, 2), (4, 2, 2)],
                "S": [(2, 3, 5), (2, 2, 6), (3, 3, 7)],
                "T": [(3, 5, 8), (2, 6, 9), (2, 5, 9)],
            }
        )
        assert QueryEngine().execute(query, database).rows == {(1, 8), (4, 9)}
        self.check_every_root(query, database)

    def test_keys_match_as_hash_tables_do(self):
        # 1 == True == 1.0 are one key; a NaN object joins only with itself.
        nan = float("nan")
        database = Database(
            {
                "R": Relation.from_rows(("a", "b"), [("r1", 1), ("r2", nan), ("r3", 2)]),
                "S": Relation.from_rows(
                    ("b", "c"), [(True, "s1"), (nan, "s2"), (float("nan"), "s3"), (1.0, "s4")]
                ),
                "T": Relation.from_rows(("c", "b"), [("s1", 1.0), ("s2", nan), ("s3", nan)]),
            }
        )
        query = parse_query("Q(a, c) :- R(a, b), S(b, c), T(c, b).")
        answer = YannakakisEvaluator().evaluate(query, database)
        assert answer.rows == {("r1", "s1"), ("r2", "s2")}
        self.check_every_root(query, database)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 2),
        st.sampled_from(("plain", "constant", "repeated")),
    )
    def test_survivors_equal_the_semijoin_fold_at_every_node_and_root(
        self, seed, head_arity, shape
    ):
        self.check_every_root(*TestFirstWitness.case(seed, head_arity, shape))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(("plain", "constant", "repeated")))
    def test_key_filters_and_masks_equal_the_semijoin_fold(self, seed, twist):
        self.check_every_root(*keyed_tree_case(seed, twist))


def priced_edges(plan):
    """The acyclic program's edges and carrying edges, or ``None``."""
    if plan.program is None:
        return None
    return plan.program.edges, plan.program.carrying, plan.program.read_off


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
                    # What each route was charged for, and the acyclic
                    # route's priced edges, which its requests walk.
                    assert plan.charged == cold.charged, (order, text)
                    assert priced_edges(plan) == priced_edges(cold), (order, text)


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
        assert engine.stats()["cache"]["misses"] <= 2


class TestBatchEqualsSingles:
    """``run_batch`` is grouping and nothing else: whatever a group does —
    shares one execution among identical members, lifts ≥ 8 constant-variants
    of an acyclic ``execute`` / ``decide`` into one N-wide run, or loops —
    every operation gets the answer ``run`` gives it on its own, with N-wide
    lifting on (``QueryEngine()``) and off (``parallel=False``)."""

    EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))

    @staticmethod
    def case(seed):
        """A shuffled batch with a group for every branch of the driver, and
        the number of executions the ledger should show without lifting."""
        rng = random.Random(seed)
        database = chain_database(
            layers=5, width=rng.randint(6, 10), p=rng.choice((0.2, 0.4)), seed=seed
        )
        sources = sorted({row[0] for row in database["E"]})

        def variants(query, size):
            chosen = rng.sample(sources, min(size, len(sources)))
            return [query.decision_instance((value,)) for value in chosen]

        hop2, hop3 = path_query(2, head_arity=1), path_query(3, head_arity=1)
        wide = rng.randint(8, 12)
        unequal = [
            parse_query(f"Q(c) :- E({value}, b), E(c, b), E(c, d), b != d.")
            for value in rng.sample(sources, min(wide, len(sources)))
        ]
        pair = path_query(2, head_arity=2)
        recorded = [
            *operations_of(EXECUTE, variants(hop3, wide)),  # lifts
            *operations_of(DECIDE, variants(hop3, wide)),  # lifts, decide pass
            *operations_of(EXECUTE, variants(hop2, rng.randint(2, 7))),  # too few
            *operations_of(EXECUTE, unequal),  # wide enough, lift declines
            *operations_of(COUNT, variants(hop3, wide)),  # never lifts
            Operation.grouped_count(pair, ("x0",)),
            Operation.decide(hop2),
            Operation.forall(pair),
            # A forced route is recorded like any other run; forced groups
            # never lift.
            *(Operation.execute(q, evaluator="naive") for q in variants(hop2, 3)),
            *(Operation.decide(q, evaluator="yannakakis") for q in variants(hop2, 9)),
        ]
        unrecorded = [*operations_of(EXPLAIN, variants(hop3, 2))]
        # Identical members of a shape nothing else in the batch has.
        full = path_query(2, head_arity=3)
        shared = Operation(rng.choice((EXECUTE, DECIDE, COUNT)), full)
        operations = recorded + unrecorded + [shared] * rng.randint(2, 5)
        rng.shuffle(operations)
        return operations, database, shared, len(set(recorded)) + 1

    @staticmethod
    def comparable(operation, result):
        # An explain names the plan cache's counters and the executions
        # recorded so far, which depend on what ran before it.
        if operation.kind != EXPLAIN:
            return result
        return [
            line
            for line in result.splitlines()
            if line.startswith(("  analysis", "  counting", "  join ord."))
        ]

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.integers(0, 10_000))
    def test_run_batch_equals_run_per_operation(self, seed):
        operations, database, shared, executions = self.case(seed)
        for parallel in (True, False):
            engine = QueryEngine(parallel=parallel)
            singles = QueryEngine(parallel=parallel)
            batched = engine.run_batch(operations, database)
            for operation, result in zip(operations, batched):
                expected = singles.run(operation, database)
                assert self.comparable(operation, result) == self.comparable(
                    operation, expected
                ), (parallel, operation)
            # The shared duplicate ran once, however many members it served.
            rendering = engine.explain(shared.query, database)
            assert "(1 execution(s) recorded)" in rendering
            if parallel:
                assert engine.stats()["executions"] < executions  # groups lifted
            else:
                assert engine.stats()["executions"] == executions

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.integers(0, 10_000))
    def test_a_service_answers_as_run_does_inline_or_pooled(self, seed):
        """Through a ``QueryService`` — a shape's first sight on the pool,
        a warm short group on the event loop — every operation still gets
        the answer ``run`` gives it on its own: sent one at a time (twice,
        so the second round finds its shapes warm) and as one batch."""
        operations, database, _, _ = self.case(seed)
        singles = QueryEngine()
        expected = [
            self.comparable(operation, singles.run(operation, database))
            for operation in operations
        ]

        async def main():
            async with QueryService() as service:
                rounds = [
                    await asyncio.gather(
                        *(service.run(operation, database) for operation in operations)
                    )
                    for _ in range(2)
                ]
                rounds.append(await service.run_batch(operations, database))
                return rounds, (await service.stats())["service"]

        rounds, counters = asyncio.run(main())
        for answers in rounds:
            assert [
                self.comparable(operation, answer)
                for operation, answer in zip(operations, answers)
            ] == expected
        assert 0 < counters["inline"] < counters["groups"]
        assert counters["failed"] == 0
