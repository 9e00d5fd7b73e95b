"""The counting subsystem: modes, the annotated Yannakakis pass, grouped
counts, and the aggregate facades."""

import sys
from contextlib import ExitStack
from unittest import mock

import pytest

from repro import Database, QueryEngine, Relation, parse_query
from repro.engine import ACYCLIC, analyze
from repro.errors import QueryError
from repro.evaluation import (
    CountingYannakakisEvaluator,
    NaiveEvaluator,
    grouped_count_reference,
    head_domain_size,
)
from repro.evaluation.counting import (
    COUNT_BOOLEAN,
    COUNT_COVERED,
    COUNT_FULL,
    COUNT_GENERAL,
    COUNT_HARD,
    FAST_COUNTING_MODES,
    counting_mode,
    covering_atom,
)
from repro.evaluation.yannakakis import (
    YannakakisEvaluator,
    acyclic_program,
    upward_edges,
)
from repro.hypergraph.join_tree import JoinTree
from repro.operations import COUNT, operations_of
from repro.query import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.relational.joins import shared_attributes
from repro.workloads import (
    chain_database,
    cycle_query,
    path_query,
    star_database,
    star_query,
)


@pytest.fixture(scope="module")
def chain() -> Database:
    return chain_database(layers=6, width=8, p=0.5, seed=7)


def naive_count(query, database) -> int:
    return NaiveEvaluator().evaluate(query, database).cardinality


def full_path_query(length: int) -> ConjunctiveQuery:
    """A path query exporting every variable (no existential vars)."""
    return path_query(length, head_arity=length + 1)


def headed_cycle_query(length: int) -> ConjunctiveQuery:
    """A cyclic query WITH head variables (so counting is count-general)."""
    base = cycle_query(length)
    return ConjunctiveQuery((Variable("x0"),), list(base.atoms), head_name="CYC")


def mode_of(query: ConjunctiveQuery) -> str:
    """The counting mode the planner gives *query*, checked against the
    mode the counting evaluator works out on its own."""
    planned = counting_mode(query, analyze(query).structural_class == ACYCLIC)
    assert counting_mode(query) == planned
    return planned


class TestCountingModes:
    def test_boolean(self):
        query = ConjunctiveQuery(
            (), [Atom("E", (Variable("x"), Variable("y")))], head_name="Q"
        )
        assert mode_of(query) == COUNT_BOOLEAN

    def test_covered(self):
        query = path_query(3, head_arity=2)
        assert mode_of(query) == COUNT_COVERED
        assert covering_atom(query) == 0

    def test_full(self):
        query = full_path_query(3)
        assert mode_of(query) == COUNT_FULL
        assert covering_atom(query) is None

    def test_hard_projection(self):
        # Head {x0, x3} spans no single atom and x1, x2 are existential:
        # the Chen–Mengel hard case for acyclic counting.
        base = path_query(3)
        variables = [Variable(f"x{i}") for i in range(4)]
        query = ConjunctiveQuery(
            (variables[0], variables[3]), list(base.atoms), head_name="Q"
        )
        assert mode_of(query) == COUNT_HARD

    def test_boolean_beats_structure(self):
        # An empty head is count-boolean even on a cyclic body: counting
        # IS deciding there, whatever evaluation costs.
        query = cycle_query(4)
        assert mode_of(query) == COUNT_BOOLEAN

    def test_cyclic_is_general(self):
        query = headed_cycle_query(4)
        assert mode_of(query) == COUNT_GENERAL

    def test_plans_carry_the_mode(self, chain):
        engine = QueryEngine()
        with engine:
            plan = engine.plan_for(path_query(3, head_arity=2), chain)
            assert plan.count_mode == COUNT_COVERED
            assert "counting : count-covered" in plan.explain()


class TestCountingEvaluator:
    @pytest.mark.parametrize("length", [2, 3])
    def test_full_mode_matches_naive(self, chain, length):
        query = full_path_query(length)
        result = CountingYannakakisEvaluator().count(query, chain)
        assert result.mode == COUNT_FULL
        assert result.total == naive_count(query, chain)

    @pytest.mark.parametrize("head_arity", [1, 2])
    def test_covered_mode_matches_naive(self, chain, head_arity):
        query = path_query(3, head_arity=head_arity)
        result = CountingYannakakisEvaluator().count(query, chain)
        assert result.mode == COUNT_COVERED
        assert result.total == naive_count(query, chain)

    def test_boolean_mode(self, chain):
        query = ConjunctiveQuery(
            (), list(path_query(3).atoms), head_name="Q"
        )
        result = CountingYannakakisEvaluator().count(query, chain)
        assert result.mode == COUNT_BOOLEAN
        assert result.total == 1

    def test_empty_result_counts_zero(self):
        database = Database.from_tuples({"E": [(1, 2)]})
        query = path_query(3, head_arity=2)
        result = CountingYannakakisEvaluator().count(query, database)
        assert result.total == 0

    def test_non_fast_mode_raises(self, chain):
        evaluator = CountingYannakakisEvaluator()
        with pytest.raises(QueryError):
            evaluator.count(headed_cycle_query(4), chain)

    def test_star_quantified_count(self):
        # STAR(hub) :- A1(hub,l1)..Ak(hub,lk) with the leaves existential:
        # head covered by any one arm, so counting skips the join whose
        # size grows with the quantified star size.
        database = star_database(arms=3, fanout=6, seed=2)
        query = star_query(3)
        result = CountingYannakakisEvaluator().count(query, database)
        assert result.mode == COUNT_COVERED
        assert result.total == naive_count(query, database)


def spy_everywhere(stack, calls, function):
    """Record every call of *function* through any ``repro`` module that
    binds it by name."""

    def spy(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, name, None) is function:
            stack.enter_context(mock.patch.object(module, name, spy))


class TestCountingRunsThePlannedProgram:
    """A warm ``count`` / ``grouped_count`` runs the acyclic program its
    shape was planned with: no request builds a join tree, re-roots one,
    keys its edges or matches shared attributes again."""

    def test_warm_counts_build_no_tree(self, chain):
        covered = path_query(4, head_arity=2)
        full = full_path_query(4)
        engine = QueryEngine()
        plan = engine.plan_for(covered, chain)
        # GYO roots the path at its far end; the head lives at atom 0.
        assert plan.analysis.join_tree.root != covering_atom(covered)
        assert plan.program.tree.root == covering_atom(covered) == 0
        program = engine.plan_for(full, chain).program
        group = ("x0",)  # inside the program's root atom
        root_atom = full.atoms[program.tree.root]
        assert set(group) <= {v.name for v in root_atom.variables()}
        # A second spelling of the covered shape: a new object, same layout.
        spellings = (covered, full, path_query(4, head_arity=2))
        expected = [naive_count(query, chain) for query in spellings]
        answers = NaiveEvaluator().evaluate(full, chain)
        grouped = grouped_count_reference(full, answers, group)
        for _ in range(3):  # plan, and re-plan if the row count drifts
            assert [engine.count(query, chain) for query in spellings] == expected
            assert engine.grouped_count(full, chain, group) == grouped

        calls = []
        from_hypergraph, rooted_at = JoinTree.from_hypergraph, JoinTree.rooted_at

        def rooted_spy(tree, node):
            calls.append("rooted_at")
            return rooted_at(tree, node)

        def built_spy(hypergraph):
            calls.append("from_hypergraph")
            return from_hypergraph(hypergraph)

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(JoinTree, "rooted_at", rooted_spy))
            stack.enter_context(
                mock.patch.object(
                    JoinTree, "from_hypergraph", staticmethod(built_spy)
                )
            )
            for function in (upward_edges, acyclic_program, shared_attributes):
                spy_everywhere(stack, calls, function)
            for _ in range(3):
                assert [engine.count(query, chain) for query in spellings] == expected
                assert engine.grouped_count(full, chain, group) == grouped
        assert calls == []


    def test_a_group_outside_the_root_is_rooted_once_per_shape(self, chain):
        """The tree re-rooted at an atom covering the group, and its edges,
        are kept with the shape: a warm repeat derives neither."""
        query = path_query(2, head_arity=3)
        group = ("x2",)
        engine = QueryEngine()
        program = engine.plan_for(query, chain).program
        root_atom = query.atoms[program.tree.root]
        assert not set(group) <= {v.name for v in root_atom.variables()}
        answers = NaiveEvaluator().evaluate(query, chain)
        expected = grouped_count_reference(query, answers, group)
        for _ in range(3):  # plan, and re-plan if the row count drifts
            assert engine.grouped_count(query, chain, group) == expected

        calls = []
        rooted_at = JoinTree.rooted_at

        def rooted_spy(tree, node):
            calls.append("rooted_at")
            return rooted_at(tree, node)

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(JoinTree, "rooted_at", rooted_spy))
            spy_everywhere(stack, calls, upward_edges)
            for _ in range(5):
                assert engine.grouped_count(query, chain, group) == expected
        assert calls == []


class TestTheUpwardPassVisitsNoRow:
    """On a path and a star every node of the upward pass stays a key
    filter: a warm ``count`` / ``execute`` probes no row and masks none, a
    head of some of the root's columns is read off its live keys, and the
    adjacency a filter's parent reads is built once per relation."""

    PATH = "Q(a, b) :- E(a, b), E(b, c), E(c, d), E(d, e)."
    HUBS = "Q(a) :- E(a, b), E(b, c), E(c, d), E(d, e)."
    STAR = "Q(h, x) :- A(h, x), B(h, y), C(h, z)."

    @staticmethod
    def databases():
        star = {
            # Hubs 0-9 in A; B misses 8-9 and C misses 0-1, so both filter.
            "A": [(hub, 100 + leaf) for hub in range(10) for leaf in range(4)],
            "B": [(hub, 200 + leaf) for hub in range(8) for leaf in range(3)],
            "C": [(hub, 300 + leaf) for hub in range(2, 10) for leaf in range(2)],
        }
        return (
            chain_database(layers=6, width=30, p=0.15, seed=3),
            Database.from_tuples(star),
        )

    def test_warm_counts_and_executes_probe_no_row(self):
        chain, star = self.databases()
        path, star_query_ = parse_query(self.PATH), parse_query(self.STAR)
        requests = [
            (path, chain, "count"),
            (path, chain, "execute"),
            (parse_query(self.HUBS), chain, "execute"),
            (star_query_, star, "count"),
            (star_query_, star, "execute"),
        ]
        engine = QueryEngine()
        expected = [NaiveEvaluator().evaluate(q, db) for q, db, _ in requests]
        for _ in range(3):  # plan, and re-plan if the row count drifts
            for (query, database, kind), answer in zip(requests, expected):
                if kind == "count":
                    assert engine.count(query, database) == len(answer)
                else:
                    assert engine.execute(query, database) == answer
        calls = []

        def spy(method):
            def record(relation, *args):
                calls.append(method.__name__)
                return method(relation, *args)

            return record

        with ExitStack() as stack:
            for name in ("_probe_mask", "_take"):
                method = getattr(Relation, name)
                stack.enter_context(mock.patch.object(Relation, name, spy(method)))
            for (query, database, kind), answer in zip(requests, expected):
                if kind == "count":
                    assert engine.count(query, database) == len(answer)
                else:
                    assert engine.execute(query, database) == answer
        assert calls == []

    def test_the_adjacency_is_built_once_per_relation(self):
        chain, _ = self.databases()
        path = parse_query(self.PATH)
        expected = len(NaiveEvaluator().evaluate(path, chain))
        engine = QueryEngine()
        builds = []
        adjacency = Relation._adjacency

        def adjacency_spy(relation, positions, by):
            if ("adj", positions, by) not in relation._cache:
                builds.append((positions, by))
            return adjacency(relation, positions, by)

        with mock.patch.object(Relation, "_adjacency", adjacency_spy):
            assert engine.count(path, chain) == expected
            # Three atoms over one stored relation share its cache: the
            # two filters that hand keys on column 0 up read one adjacency.
            assert builds == [((0,), (1,))]
            for _ in range(3):
                assert engine.count(path, chain) == expected
                engine.execute(path, chain)
        assert builds == [((0,), (1,))]

    def test_a_first_count_builds_no_bucket_index(self):
        # The covered count and the planner's statistics read the key
        # census; only a reader of rows (execute's take of the root) builds
        # the bucket index, and it still does.
        chain, _ = self.databases()
        path = parse_query(self.PATH)
        # The oracle's search probes indexes: it reads an equal copy.
        expected = NaiveEvaluator().evaluate(path, self.databases()[0])
        stored = chain["E"]
        engine = QueryEngine()
        assert engine.count(path, chain) == len(expected)
        assert engine.plan_for(path, chain).evaluator == "yannakakis"
        assert [slot for slot in stored._cache if slot[0] == "index"] == []
        assert ("counts", (1,)) in stored._cache
        reads = []
        index = Relation._index

        def index_spy(relation, positions):
            reads.append(positions)
            return index(relation, positions)

        with mock.patch.object(Relation, "_index", index_spy):
            assert engine.execute(path, chain) == expected
        assert (1,) in reads and ("index", (1,)) in stored._cache

    def test_a_head_read_off_the_root_keeps_first_arrival_order(self):
        # Q(a) of a 4-hop path is the root's live keys on column 0, in the
        # order the key census met them: 30 before 10, and 20 (a path of
        # three hops only) dropped.
        rows = [(30, 1), (10, 2), (20, 3), (10, 1), (1, 4), (2, 4), (3, 5), (4, 6)]
        rows += [(5, 7), (6, 8)]
        database = Database.from_tuples({"E": rows})
        answer = YannakakisEvaluator().evaluate(parse_query(self.HUBS), database)
        assert tuple(answer) == ((30,), (10,))


class TestGroupedCounts:
    def test_matches_reference(self, chain):
        # Head-covered: the evaluator has no grouped path of its own (it
        # never beat grouping the evaluated answer), the engine falls back.
        query = path_query(3, head_arity=2)
        evaluator = CountingYannakakisEvaluator()
        assert evaluator.grouped_count(query, chain, ("x0",)) is None
        grouped = QueryEngine().grouped_count(query, chain, ("x0",))
        answers = NaiveEvaluator().evaluate(query, chain)
        reference = grouped_count_reference(query, answers, ("x0",))
        assert grouped == reference

    def test_full_mode_grouping(self, chain):
        query = full_path_query(2)
        evaluator = CountingYannakakisEvaluator()
        grouped = evaluator.grouped_count(query, chain, ("x2",))
        answers = NaiveEvaluator().evaluate(query, chain)
        assert grouped == grouped_count_reference(query, answers, ("x2",))

    def test_counts_sum_to_total(self, chain):
        engine = QueryEngine()
        for query in (path_query(3, head_arity=2), full_path_query(3)):
            grouped = engine.grouped_count(query, chain, ("x1",))
            total = engine.count(query, chain)
            assert sum(row[-1] for row in grouped.rows) == total

    def test_unknown_group_name_rejected(self, chain):
        with pytest.raises(QueryError):
            CountingYannakakisEvaluator().grouped_count(
                path_query(3, head_arity=2), chain, ("nope",)
            )

    def test_count_attribute_collision_renamed(self):
        database = Database.from_tuples({"E": [(1, 2), (1, 3), (3, 4)]})
        count_var = Variable("count")
        middle = Variable("y")
        last = Variable("z")
        query = ConjunctiveQuery(
            (count_var, middle, last),
            [Atom("E", (count_var, middle)), Atom("E", (middle, last))],
            head_name="Q",
        )
        grouped = CountingYannakakisEvaluator().grouped_count(
            query, database, ("count",)
        )
        assert grouped.attributes == ("count", "_count")
        assert set(grouped.rows) == {(1, 1)}
        answers = NaiveEvaluator().evaluate(query, database)
        assert grouped_count_reference(query, answers, ("count",)) == grouped


class TestEngineCountingFacade:
    def test_count_equals_execute_cardinality(self, chain):
        with QueryEngine() as engine:
            for query in (
                path_query(2),
                path_query(3, head_arity=2),
                full_path_query(3),
                headed_cycle_query(4),  # count-general: falls back to evaluation
            ):
                assert engine.count(query, chain) == engine.execute(
                    query, chain
                ).cardinality

    def test_count_hard_falls_back(self, chain):
        base = path_query(3)
        variables = [Variable(f"x{i}") for i in range(4)]
        query = ConjunctiveQuery(
            (variables[0], variables[3]), list(base.atoms), head_name="Q"
        )
        with QueryEngine() as engine:
            assert engine.plan_for(query, chain).count_mode == COUNT_HARD
            assert engine.count(query, chain) == naive_count(query, chain)

    def test_count_matches_naive_with_and_without_lifting(self, chain):
        query = path_query(3, head_arity=2)
        with QueryEngine() as lifting, QueryEngine(parallel=False) as plain:
            assert (
                lifting.count(query, chain)
                == plain.count(query, chain)
                == naive_count(query, chain)
            )

    def test_count_batch(self, chain):
        queries = [path_query(n, head_arity=1) for n in (1, 2, 3)]
        with QueryEngine() as engine:
            counts = engine.run_batch(operations_of(COUNT, queries), chain)
            assert counts == [engine.count(query, chain) for query in queries]

    def test_exists_and_forall(self):
        full = Database.from_tuples(
            {"E": [(a, b) for a in range(3) for b in range(3)]}
        )
        query = path_query(1, head_arity=2)
        with QueryEngine() as engine:
            assert engine.decide(query, full) is True
            assert engine.forall(query, full) is True
            # Domains {0,1}×{0,1} but only 3 of the 4 pairs present.
            sparse = Database.from_tuples({"E": [(0, 1), (1, 0), (0, 0)]})
            assert engine.forall(query, sparse) is False
            empty = Database({}).with_relation(
                "E", Relation.from_rows(("E.0", "E.1"))
            )
            assert engine.decide(query, empty) is False
            # Empty candidate domains: vacuously true.
            assert engine.forall(query, empty) is True

    def test_grouped_count_facade(self, chain):
        query = path_query(3, head_arity=2)
        with QueryEngine() as engine:
            grouped = engine.grouped_count(query, chain, ("x0",))
            reference = grouped_count_reference(
                query, engine.execute(query, chain), ("x0",)
            )
            assert grouped == reference

    def test_count_records_cardinality_for_replanning(self, chain):
        with QueryEngine() as engine:
            query = path_query(3, head_arity=2)
            total = engine.count(query, chain)
            (row,) = engine.stats()["shapes"]
            assert row["last_rows"] == total


class TestHeadDomainSize:
    def test_product_of_intersections(self):
        database = Database.from_tuples({"E": [(1, 2), (2, 3), (3, 1)]})
        query = path_query(1, head_arity=2)
        # x0 ranges over first-column values ∩ nothing else; x1 likewise.
        assert head_domain_size(query, database) == 9

    def test_repeated_head_variable_counted_once(self):
        database = Database.from_tuples({"E": [(1, 1), (2, 2)]})
        x = Variable("x")
        query = ConjunctiveQuery((x, x), [Atom("E", (x, x))], head_name="Q")
        assert head_domain_size(query, database) == 2


class TestPlannerCalibration:
    def test_fast_counting_modes_subset(self):
        assert set(FAST_COUNTING_MODES) <= {
            COUNT_BOOLEAN,
            COUNT_COVERED,
            COUNT_FULL,
        }
