"""Property tests for the value-column relation store and constructor family.

Three contract groups:

* **Construction** — ``from_rows`` / ``from_columns`` agree, round-trip
  through ``to_columns``-style access, validate strictly, and a positional
  ``Relation(attrs, rows)`` call raises ``TypeError``.
* **Kernel equivalence** — every column kernel (semijoin, antijoin,
  natural join, project, select_eq, partition) returns exactly what a
  straightforward frozenset/dict reference implementation computes,
  including mixed-type domains where Python equality crosses types
  (``1 == True == 1.0``).
* **Process hygiene** — every cache holds plain values, so a relation
  pickles by default and arrives with its warm caches, answering the same.
"""

import pickle
import warnings
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.errors import ArityError, SchemaError

# A small mixed-type domain where cross-type equality bites: 1 == True
# == 1.0 and 0 == False collapse under Python (and frozenset) equality,
# so the value columns, key sets and indexes must collapse them identically.
mixed_values = st.sampled_from([0, 1, 2, True, False, 1.0, "a", "b", None, ""])

# The same plus one NaN *object*: it equals nothing under ``==`` yet is
# found by identity in every hash table, and so must it be in a column.
NAN = float("nan")
mixed_values_with_nan = st.sampled_from([0, 1, 2, True, 1.0, "a", None, NAN])

attr_pool = ("u", "v", "w", "x")


@st.composite
def relations(draw, min_arity=1, max_arity=3, attributes=None, values=mixed_values):
    if attributes is None:
        arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
        attributes = draw(
            st.permutations(attr_pool).map(lambda p: tuple(p[:arity]))
        )
    row = st.tuples(*([values] * len(attributes)))
    rows = draw(st.lists(row, max_size=20))
    return Relation.from_rows(attributes, rows)


def ref_semijoin(left, right):
    shared = tuple(a for a in left.attributes if a in set(right.attributes))
    lpos = tuple(left.attributes.index(a) for a in shared)
    rpos = tuple(right.attributes.index(a) for a in shared)
    if not shared:
        kept = left.rows if right.rows else frozenset()
    else:
        right_keys = {tuple(row[p] for p in rpos) for row in right.rows}
        kept = frozenset(
            row for row in left.rows if tuple(row[p] for p in lpos) in right_keys
        )
    return Relation.from_rows(left.attributes, kept)


def ref_join(left, right):
    shared = tuple(a for a in left.attributes if a in set(right.attributes))
    extra = tuple(a for a in right.attributes if a not in set(left.attributes))
    epos = tuple(right.attributes.index(a) for a in extra)
    lpos = tuple(left.attributes.index(a) for a in shared)
    rpos = tuple(right.attributes.index(a) for a in shared)
    out = set()
    for lrow in left.rows:
        for rrow in right.rows:
            if all(lrow[i] == rrow[j] for i, j in zip(lpos, rpos)):
                out.add(lrow + tuple(rrow[p] for p in epos))
    return Relation.from_rows(left.attributes + extra, out)


class TestConstructors:
    @settings(max_examples=150, deadline=None)
    @given(relations())
    def test_from_columns_equals_from_rows(self, relation):
        order = list(relation.rows)
        columns = [
            [row[p] for row in order] for p in range(len(relation.attributes))
        ]
        rebuilt = Relation.from_columns(relation.attributes, columns)
        assert rebuilt == relation

    def test_positional_constructor_raises_type_error(self):
        with pytest.raises(TypeError):
            Relation(("a", "b"), [(1, 2)])
        with pytest.raises(TypeError):
            Relation(attributes=("a", "b"), rows=[(1, 2)])

    def test_from_rows_validates(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(("a", "a"), [])
        with pytest.raises(SchemaError):
            Relation.from_rows(("",), [])
        with pytest.raises(ArityError):
            Relation.from_rows(("a", "b"), [(1,)])

    def test_from_columns_validates(self):
        with pytest.raises(SchemaError):
            Relation.from_columns(("a", "b"), [[1, 2]])  # column count
        with pytest.raises(ArityError):
            Relation.from_columns(("a", "b"), [[1, 2], [3]])  # ragged
        empty = Relation.from_columns(("a", "b"), [[], []])
        assert empty.is_empty() and empty.attributes == ("a", "b")

    def test_from_frozen_preserves_identity(self):
        rows = frozenset({(1, 2), (3, 4)})
        relation = Relation._from_frozen(("a", "b"), rows)
        assert relation.rows is rows


class TestKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_semijoin_and_antijoin(self, data):
        left = data.draw(relations())
        right = data.draw(relations())
        expected = ref_semijoin(left, right)
        assert left.semijoin(right) == expected
        assert left.antijoin(right) == Relation.from_rows(
            left.attributes, left.rows - expected.rows
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_filtered_children_inherit_aligned_columns(self, data):
        left = data.draw(relations(values=mixed_values_with_nan))
        right = data.draw(relations(values=mixed_values_with_nan))
        # Warm every single column and the whole-row composite key, so the
        # children have all of them to inherit.
        every = tuple(range(left.arity))
        for position in every:
            left._column(position)
        left._keys(every)
        warmed = {("col", position) for position in every}
        if left.arity > 1:
            warmed.add(("key", every))

        kept = ref_semijoin(left, right).rows
        for child, expected in (
            (left.semijoin(right), kept),
            (left.antijoin(right), left.rows - kept),
        ):
            assert child.rows == expected
            if child is left or not set(left.attributes) & set(right.attributes):
                continue  # nothing filtered, or decided without a mask
            order = child._cache["order"]
            assert len(order) == len(expected) and frozenset(order) == expected
            columns = {
                key: column
                for key, column in child._cache.items()
                if key[0] in ("col", "key")
            }
            # (The operation's own join-key list is inherited as well.)
            assert warmed <= set(columns)
            for (kind, where), column in columns.items():
                assert type(column) is list
                # Row for row the very objects of the row tuples (the NaN
                # object included), not merely equal ones.
                if kind == "col":
                    expected_column = [row[where] for row in order]
                    assert all(map(is_, column, expected_column))
                else:
                    expected_column = [tuple(row[p] for p in where) for row in order]
                    assert column == expected_column
                assert len(column) == len(order)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_natural_join(self, data):
        left = data.draw(relations(max_arity=2))
        right = data.draw(relations(max_arity=2))
        assert left.natural_join(right) == ref_join(left, right)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_project(self, data):
        relation = data.draw(relations())
        keep = data.draw(
            st.lists(st.sampled_from(relation.attributes), unique=True)
        )
        positions = tuple(relation.attributes.index(a) for a in keep)
        expected = Relation.from_rows(
            tuple(keep), {tuple(row[p] for p in positions) for row in relation.rows}
        )
        assert relation.project(keep) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_select_eq(self, data):
        relation = data.draw(relations())
        value = data.draw(mixed_values)
        attribute = data.draw(st.sampled_from(relation.attributes))
        position = relation.attributes.index(attribute)
        expected = Relation.from_rows(
            relation.attributes,
            {row for row in relation.rows if row[position] == value},
        )
        assert relation.select_eq({attribute: value}) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=5))
    def test_partition_is_a_partition_routed_by_hash(self, data, count):
        # Pairs of relations over the 1 / True / 1.0 / NaN / string domain,
        # partitioned on a one- or a two-attribute key that sits at
        # different positions in the two.
        left = data.draw(
            relations(attributes=("u", "v", "w"), values=mixed_values_with_nan)
        )
        right = data.draw(
            relations(attributes=("x", "v", "u"), values=mixed_values_with_nan)
        )
        key = data.draw(st.sampled_from([("u",), ("u", "v")]))
        home = {}
        for relation in (left, right):
            positions = tuple(relation.attributes.index(a) for a in key)
            shards = relation._partition(positions, count)
            # A partition: every row in exactly one shard.
            assert len(shards) == count
            assert frozenset().union(*(s.rows for s in shards)) == relation.rows
            assert sum(s.cardinality for s in shards) == relation.cardinality
            # Whole buckets, and co-partitioning: a key — 1, True and 1.0
            # are one key — has one home shard across both relations.
            getter = Relation._key_getter(positions)
            for index, shard in enumerate(shards):
                for row in shard.rows:
                    assert home.setdefault(getter(row), index) == index

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_derived_relations_chain(self, data):
        # Exercise cache preseeding: results of kernel ops feed more ops.
        a = data.draw(relations(attributes=("x", "y")))
        b = data.draw(relations(attributes=("y", "w")))
        reduced = a.semijoin(b)
        assert reduced == ref_semijoin(a, b)
        joined = reduced.natural_join(b)
        assert joined == ref_join(reduced, b)
        assert joined.project(("x", "w")) == ref_join(reduced, b).project(("x", "w"))


class TestProcessHygiene:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pickle_round_trip_keeps_warm_caches(self, data):
        relation = data.draw(relations(attributes=("u", "v", "w")))
        other = data.draw(relations(attributes=("v", "w", "x")))
        probe = data.draw(mixed_values)
        # Warm columns, key lists, key sets and an index on both sides.
        relation.semijoin(other)
        other.semijoin(relation)
        relation.natural_join(other)
        relation.select_eq({"u": probe})
        warm = set(relation._cache)
        assert {"order", ("key", (1, 2)), ("keyset", (1, 2)), ("index", (0,))} <= warm

        clone, other_clone = pickle.loads(pickle.dumps((relation, other)))
        assert clone == relation and clone.attributes == relation.attributes
        assert set(clone._cache) == warm  # default slot pickling: all of it
        assert clone.semijoin(other_clone) == relation.semijoin(other)
        assert clone.semijoin(other) == relation.semijoin(other)
        assert clone.natural_join(other_clone) == relation.natural_join(other)
        assert clone.select_eq({"u": probe}) == relation.select_eq({"u": probe})
        assert clone.project(("w", "v")) == relation.project(("w", "v"))

    def test_rows_are_selected_not_decoded(self):
        # 1 and True are one key; the kernel must still return the
        # relation's own row objects, not re-decoded lookalikes.
        relation = Relation.from_rows(("a",), [(True,)])
        probe = Relation.from_rows(("a",), [(1,)])
        result = relation.semijoin(probe)
        (row,) = result.rows
        assert row[0] is True

    def test_no_deprecation_warning_from_factories(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Relation.from_rows(("a",), [(1,)])
            Relation.from_columns(("a",), [[1]])
            Relation.from_dicts(("a",), [{"a": 1}])
