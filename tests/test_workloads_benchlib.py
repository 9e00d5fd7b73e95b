"""Tests for workload generators and the benchmark harness utilities."""

import pytest

from repro.benchlib import (
    growth_exponent,
    render_series,
    render_table,
    speedup,
    sweep,
    time_thunk,
)
from repro.hypergraph import JoinTree
from repro.workloads import (
    Graph,
    GraphError,
    chain_database,
    complete_graph,
    cycle_graph,
    cycle_query,
    empty_graph,
    graph_suite,
    grid_graph,
    path_graph,
    path_neq_query,
    path_query,
    planted_clique_graph,
    random_acyclic_query,
    random_database,
    random_graph,
    star_database,
    star_query,
)
from repro.relational.schema import DatabaseSchema


class TestGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph([1], [(1, 1)])

    def test_edge_outside_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph([1, 2], [(1, 3)])

    def test_degree_neighbours(self):
        g = path_graph(3)
        assert g.degree(1) == 2
        assert g.neighbours(0) == frozenset({1})

    def test_edges_each_once(self):
        g = complete_graph(4)
        assert len(list(g.edges())) == 6
        assert len(list(g.directed_edges())) == 12

    def test_is_clique(self):
        g = complete_graph(4)
        assert g.is_clique((0, 1, 2))
        assert not g.is_clique((0, 0, 1))
        assert not path_graph(3).is_clique((0, 2))

    def test_complement(self):
        g = path_graph(3)
        comp = g.complement()
        assert comp.has_edge(0, 2)
        assert not comp.has_edge(0, 1)

    def test_generators_shapes(self):
        assert cycle_graph(5).num_edges == 5
        assert grid_graph(2, 3).num_edges == 7
        assert empty_graph(4).num_edges == 0
        g, clique = planted_clique_graph(10, 4, 0.2, seed=1)
        assert g.is_clique(clique)

    def test_random_graph_determinism(self):
        assert random_graph(8, 0.5, seed=3) == random_graph(8, 0.5, seed=3)

    def test_graph_suite_diverse(self):
        suite = graph_suite(5)
        assert len(suite) > 10
        sizes = {g.num_nodes for g in suite}
        assert len(sizes) > 2


class TestQueryGenerators:
    def test_path_query_shape(self):
        q = path_query(3, head_arity=2)
        assert q.num_atoms() == 3
        assert len(q.head_terms) == 2
        assert q.is_acyclic()

    def test_star_query_shape(self):
        q = star_query(4)
        assert q.num_atoms() == 4
        assert q.is_acyclic()

    def test_cycle_query_cyclic(self):
        assert not cycle_query(4).is_acyclic()

    def test_path_neq_query_inequalities_in_i1(self):
        from repro.inequalities import partition_inequalities

        q = path_neq_query(4, 3, seed=2)
        partition = partition_inequalities(q)
        assert len(partition.i1) == 3

    def test_random_acyclic_query_always_acyclic(self):
        for seed in range(30):
            q = random_acyclic_query(num_atoms=5, num_inequalities=2, seed=seed)
            assert q.is_acyclic()
            JoinTree.from_hypergraph(q.hypergraph())

    def test_random_acyclic_inequalities_in_i1(self):
        from repro.inequalities import partition_inequalities

        for seed in range(10):
            q = random_acyclic_query(num_atoms=4, num_inequalities=2, seed=seed)
            partition = partition_inequalities(q)
            assert len(partition.i2) == 0


class TestDatabaseGenerators:
    def test_random_database_schema(self):
        schema = DatabaseSchema.of(E=2, S=1)
        db = random_database(schema, domain_size=5, tuples_per_relation=10, seed=0)
        assert db["E"].arity == 2
        assert db["S"].arity == 1
        assert db.domain() == frozenset(range(5))

    def test_chain_database_layered(self):
        db = chain_database(layers=3, width=4, p=1.0, seed=0)
        assert db["E"].cardinality == 2 * 16

    def test_star_database_relations(self):
        db = star_database(arms=3, fanout=4, seed=0)
        assert set(db.names()) == {"A1", "A2", "A3"}


class TestBenchlib:
    def test_time_thunk(self):
        seconds, result = time_thunk(lambda: sum(range(100)), repeats=2)
        assert result == 4950
        assert seconds >= 0

    def test_sweep(self):
        grid = [{"n": 1}, {"n": 2}]
        measurements = sweep(
            "demo", grid, lambda n: (lambda: n * n), repeats=1
        )
        assert [m.result for m in measurements] == [1, 4]
        assert all(m.label == "demo" for m in measurements)

    def test_growth_exponent_linear(self):
        sizes = [10, 20, 40, 80]
        times = [0.01, 0.02, 0.04, 0.08]
        assert abs(growth_exponent(sizes, times) - 1.0) < 0.01

    def test_growth_exponent_quadratic(self):
        sizes = [10, 20, 40]
        times = [1.0, 4.0, 16.0]
        assert abs(growth_exponent(sizes, times) - 2.0) < 0.01

    def test_growth_exponent_validation(self):
        with pytest.raises(ValueError):
            growth_exponent([1], [1.0])
        with pytest.raises(ValueError):
            growth_exponent([5, 5], [1.0, 2.0])

    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", 3e-9]], title="T")
        assert "T" in text and "| a" in text and "bb" in text

    def test_render_series(self):
        text = render_series("curve", [(1, 0.5), (2, 1.0)])
        assert text.startswith("curve:")

    def test_speedup_guards_zero(self):
        assert speedup(1.0, 0.0) > 0

    def test_records_name_the_source_tree(self, tmp_path):
        # src_sha256 changes with any file's bytes or name and ignores
        # bytecode caches, so a record names the tree it measured.
        from repro.benchlib.runner import environment, source_digest

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        before = source_digest(str(tmp_path))
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
        assert source_digest(str(tmp_path)) == before
        (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
        assert source_digest(str(tmp_path)) != before
        assert len(environment()["src_sha256"]) == 64
