"""Tests for algebra helpers, join algorithms, schema, database."""

import pytest

from repro.errors import SchemaError
from repro.relational import (
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    divide,
    hash_join,
    sort_merge_join,
)


class TestJoinAlgorithms:
    def setup_method(self):
        self.left = Relation.from_rows(("a", "b"), [(1, 2), (2, 3), (5, 2)])
        self.right = Relation.from_rows(("b", "c"), [(2, 10), (3, 11), (2, 12)])

    def test_hash_and_sort_merge_agree(self):
        assert hash_join(self.left, self.right) == sort_merge_join(
            self.left, self.right
        )

    def test_expected_join_content(self):
        joined = hash_join(self.left, self.right)
        assert joined.rows == frozenset(
            {(1, 2, 10), (1, 2, 12), (5, 2, 10), (5, 2, 12), (2, 3, 11)}
        )

    def test_sort_merge_heterogeneous_values(self):
        left = Relation.from_rows(("a", "b"), [("x", 1), (2, 2)])
        right = Relation.from_rows(("b", "c"), [(1, "u"), (2, "v")])
        assert sort_merge_join(left, right) == hash_join(left, right)

    def test_sort_merge_cartesian_fallback(self):
        left = Relation.from_rows(("a",), [(1,)])
        right = Relation.from_rows(("c",), [(2,), (3,)])
        assert sort_merge_join(left, right).cardinality == 2


class TestDivision:
    def test_textbook_division(self):
        # Students who take ALL required courses.
        takes = Relation.from_rows(
            ("student", "course"),
            [("sam", "db"), ("sam", "os"), ("eve", "db")],
        )
        required = Relation.from_rows(("course",), [("db",), ("os",)])
        assert divide(takes, required).rows == frozenset({("sam",)})

    def test_division_by_empty_keeps_all(self):
        takes = Relation.from_rows(("s", "c"), [("a", 1)])
        assert divide(takes, Relation.from_rows(("c",), [])).rows == frozenset({("a",)})

    def test_division_nullary_quotient(self):
        dividend = Relation.from_rows(("c",), [(1,), (2,)])
        assert divide(dividend, Relation.from_rows(("c",), [(1,)])).cardinality == 1
        assert divide(dividend, Relation.from_rows(("c",), [(3,)])).is_empty()

    def test_division_attribute_check(self):
        with pytest.raises(SchemaError):
            divide(Relation.from_rows(("a",), []), Relation.from_rows(("z",), []))

    def test_division_times_divisor_contained(self):
        dividend = Relation.from_rows(("a", "b"), [(1, 1), (1, 2), (2, 1)])
        divisor = Relation.from_rows(("b",), [(1,), (2,)])
        quotient = divide(dividend, divisor)
        rebuilt = quotient.natural_join(divisor)
        assert rebuilt.rows <= dividend.project(rebuilt.attributes).rows


class TestSchema:
    def test_relation_schema_defaults(self):
        schema = RelationSchema("R", 2)
        assert schema.default_attributes() == ("R.0", "R.1")

    def test_relation_schema_validation(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ("only-one",))
        with pytest.raises(SchemaError):
            RelationSchema("", 1)
        with pytest.raises(SchemaError):
            RelationSchema("R", -1)

    def test_database_schema(self):
        schema = DatabaseSchema.of(E=2, P=1)
        assert "E" in schema
        assert schema.arity("E") == 2
        assert schema.max_arity() == 2
        assert schema.names() == ("E", "P")
        with pytest.raises(SchemaError):
            schema["missing"]

    def test_duplicate_schema_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([RelationSchema("R", 1), RelationSchema("R", 2)])


class TestDatabase:
    def test_from_tuples_and_lookup(self):
        db = Database.from_tuples({"E": [(1, 2)]})
        assert db["E"].cardinality == 1
        assert "E" in db
        with pytest.raises(SchemaError):
            db["F"]

    def test_from_tuples_empty_relation_rejected(self):
        with pytest.raises(SchemaError):
            Database.from_tuples({"E": []})

    def test_with_relation(self):
        db = Database.from_tuples({"E": [(1, 2)]})
        db2 = db.with_relation("F", Relation.from_rows(("F.0",), [(7,)]))
        assert "F" in db2
        assert "F" not in db

    def test_active_domain(self):
        db = Database.from_tuples({"E": [(1, 2)], "F": [(3,)]})
        assert db.active_domain() == frozenset({1, 2, 3})

    def test_declared_domain_must_cover(self):
        with pytest.raises(SchemaError):
            Database(
                {"E": Relation.from_rows(("a", "b"), [(1, 5)])},
                domain=[1, 2],
            )

    def test_declared_domain_used(self):
        db = Database(
            {"E": Relation.from_rows(("a", "b"), [(1, 2)])},
            domain=[1, 2, 3],
        )
        assert db.domain() == frozenset({1, 2, 3})

    def test_schema_inference(self):
        db = Database.from_tuples({"E": [(1, 2)]})
        assert db.schema().arity("E") == 2

    def test_size_measure(self):
        db = Database.from_tuples({"E": [(1, 2), (2, 3)]})
        assert db.size() == 3 + 4  # 3 domain values + 2 tuples * arity 2
