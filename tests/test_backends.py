"""Unit tests for the SQL oracle backend: compiler and sqlite adapter.

The differential oracle (``tests/test_differential_sql.py``) proves the
backend *agrees* with the native engine; this file pins the pieces in
isolation — the SQL the compiler emits, the fragment boundary
(:class:`SqlCompilationError`), the generic operation surface, and table
lifecycle/eviction.
"""

import gc

import pytest

from repro import Database, Relation
from repro.backends import SqliteBackend, canonical_value, compile_query
from repro.errors import (
    BackendError,
    InvalidOperationError,
    SchemaError,
    SqlCompilationError,
)
from repro.operations import Operation
from repro.query.atoms import Atom, Comparison, Inequality
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import C, V


def q(head, atoms, **kw):
    return ConjunctiveQuery(head, atoms, **kw)


PATH = q(
    (V("x"), V("z")),
    [Atom("E", (V("x"), V("y"))), Atom("E", (V("y"), V("z")))],
)

EDGES = Database(
    {"E": Relation.from_rows(("s", "t"), [(1, 2), (2, 3), (3, 4), (2, 4)])}
)


@pytest.fixture
def backend():
    with SqliteBackend() as b:
        yield b


class TestCompiler:
    def test_join_sql_shape(self):
        compiled = compile_query(PATH)
        assert compiled.head_arity == 2
        assert compiled.head_attributes == ("o0", "o1")
        sql = compiled.select_sql
        assert sql.startswith("SELECT DISTINCT")
        assert 'AS o0' in sql and 'AS o1' in sql
        # The shared variable y joins position 1 of atom 0 to position 0
        # of atom 1.
        assert "a1.c0 = a0.c1" in sql
        assert compiled.count_sql.startswith("SELECT COUNT(*) FROM (")

    def test_constants_become_parameters(self):
        query = q((V("y"),), [Atom("E", (C(1), V("y")))])
        compiled = compile_query(query)
        assert "a0.c0 = ?" in compiled.select_sql
        # Raw value; the adapter pool-encodes at bind time.
        assert compiled.select_params == (1,)

    def test_head_constants_parameterized_first(self):
        query = q((C("tag"), V("x")), [Atom("R", (V("x"),))])
        compiled = compile_query(query)
        assert compiled.select_sql.startswith("SELECT DISTINCT ? AS o0")
        assert compiled.select_params[0] == "tag"

    def test_boolean_head_compiles_to_exists(self):
        query = q((), [Atom("E", (V("x"), V("y")))])
        compiled = compile_query(query)
        assert compiled.select_sql is None
        assert "EXISTS" in compiled.exists_sql or "LIMIT 1" in compiled.exists_sql
        assert compiled.count_sql == compiled.exists_sql

    def test_repeated_variable_in_atom(self):
        query = q((V("x"),), [Atom("E", (V("x"), V("x")))])
        compiled = compile_query(query)
        assert "a0.c1 = a0.c0" in compiled.select_sql

    def test_inequalities_compile_to_not_equal(self):
        query = q(
            (V("x"), V("y")),
            [Atom("E", (V("x"), V("y")))],
            inequalities=[Inequality(V("x"), V("y"))],
        )
        assert "<>" in compile_query(query).select_sql

    def test_comparisons_are_outside_the_fragment(self):
        query = q(
            (V("x"),),
            [Atom("E", (V("x"), V("y")))],
            comparisons=[Comparison(V("x"), V("y"))],
        )
        with pytest.raises(SqlCompilationError):
            compile_query(query)

    def test_custom_table_names(self):
        compiled = compile_query(PATH, table_names={"E": "t42"})
        assert '"t42"' not in compiled.select_sql  # physical names unquoted
        assert "t42" in compiled.select_sql


class TestSqliteBackend:
    def test_loads_lazily_and_caches_tables(self, backend):
        assert backend.loaded_databases == 0
        backend.execute(PATH, EDGES)
        assert backend.loaded_databases == 1
        backend.execute(PATH, EDGES)  # same Database object: no reload
        assert backend.loaded_databases == 1

    def test_tables_evicted_when_database_dies(self, backend):
        db = Database({"E": Relation.from_rows(("s", "t"), [(1, 2)])})
        backend.decide(PATH, db)
        assert backend.loaded_databases == 1
        del db
        gc.collect()
        assert backend.loaded_databases == 0

    def test_missing_relation_is_schema_error(self, backend):
        query = q((V("x"),), [Atom("NOPE", (V("x"),))])
        with pytest.raises(SchemaError):
            backend.execute(query, EDGES)

    def test_unsupported_query_raises_compilation_error(self, backend):
        query = q(
            (V("x"),),
            [Atom("E", (V("x"), V("y")))],
            comparisons=[Comparison(V("x"), V("y"))],
        )
        assert not backend.supports(query)
        with pytest.raises(SqlCompilationError):
            backend.execute(query, EDGES)

    def test_run_covers_the_operation_surface(self, backend):
        assert backend.run(Operation.execute(PATH), EDGES).cardinality == 3
        assert backend.run(Operation.decide(PATH), EDGES) is True
        assert backend.run(Operation.count(PATH), EDGES) == 3

    def test_run_rejects_explain_and_forced_evaluators(self, backend):
        with pytest.raises(BackendError):
            backend.run(Operation.explain(PATH), EDGES)
        with pytest.raises(BackendError):
            backend.run(Operation.execute(PATH, evaluator="naive"), EDGES)
        with pytest.raises(BackendError):
            backend.run(Operation.forall(PATH), EDGES)
        with pytest.raises(BackendError):
            backend.run(Operation.grouped_count(PATH, ("x",)), EDGES)

    def test_unhashable_constant_is_a_compilation_error(self, backend):
        query = q((V("y"),), [Atom("E", (C([1, 2]), V("y")))])
        with pytest.raises(SqlCompilationError):
            backend.execute(query, EDGES)

    def test_canonical_value_maps_to_pool_representative(self):
        assert canonical_value(True) == 1
        assert canonical_value(1.0) == canonical_value(1)


class TestEngineWiring:
    def test_naive_evaluator_run_surface(self):
        from repro.evaluation import NaiveEvaluator

        ev = NaiveEvaluator()
        assert ev.run(Operation.execute(PATH), EDGES).cardinality == 3
        assert ev.run(Operation.decide(PATH), EDGES) is True
        with pytest.raises(InvalidOperationError):
            ev.run(Operation.count(PATH), EDGES)
        results = ev.run_batch(
            [Operation.execute(PATH), Operation.decide(PATH)], EDGES
        )
        assert results[1] is True
