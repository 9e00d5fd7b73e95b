"""Property tests for the value-column relation store and constructor family.

Four contract groups:

* **Construction** — ``from_rows`` / ``from_columns`` agree, round-trip
  through ``to_columns``-style access, validate strictly, and a positional
  ``Relation(attrs, rows)`` call raises ``TypeError``.
* **Kernel equivalence** — every column kernel (semijoin, antijoin,
  natural join, project, select_eq, partition) returns exactly what a
  straightforward frozenset/dict reference implementation computes,
  including mixed-type domains where Python equality crosses types
  (``1 == True == 1.0``).
* **Row stores** — whatever constructor and chain of algebra operations a
  relation came through, its ordered store and its set agree, whichever it
  was born with, and every cached column, key list and index aligns.
* **Process hygiene** — every cache holds plain values, so a relation
  pickles by default and arrives with its warm caches, answering the same.
"""

import pickle
import sys
import threading
import warnings
from itertools import chain
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
        parent_order = left._row_order()
        for child, expected in (
            (left.semijoin(right), kept),
            (left.antijoin(right), left.rows - kept),
        ):
            if child is left or not set(left.attributes) & set(right.attributes):
                assert child.rows == expected
                continue  # nothing filtered, or decided without a mask
            # Born ordered — the parent's rows, in the parent's order, none
            # of them hashed — and with nothing else: the parent's warm
            # lists are not copied for a child most of which nobody reads.
            assert list(child._cache) == ["order"]
            order = child._cache["order"]
            assert list(order) == [row for row in parent_order if row in expected]
            assert len(order) == len(expected) and child.rows == expected
            # A column somebody does read is derived on first use from the
            # child's own rows, aligned with its order row for row: the very
            # objects of the row tuples (the NaN object included).
            for position in every:
                column = child._column(position)
                assert type(column) is list and child._column(position) is column
                assert all(map(is_, column, [row[position] for row in order]))
            keys = child._keys(every)
            assert keys == [row if left.arity > 1 else row[0] for row in order]
            assert warmed <= {key for key in child._cache if key[0] in ("col", "key")}

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
            for index, shard in enumerate(shards):
                for row_key in shard._keys(positions):
                    assert home.setdefault(row_key, index) == index

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


def constructed(draw, attributes, values):
    """A relation over *attributes* through any constructor of the family:
    three are born ordered, ``_from_frozen`` is born a set."""
    row = st.tuples(*([values] * len(attributes)))
    rows = draw(st.lists(row, max_size=12))
    how = draw(st.sampled_from(("rows", "columns", "dicts", "frozen", "order")))
    if how == "rows":
        return Relation.from_rows(attributes, rows)
    if how == "columns":
        columns = [[r[p] for r in rows] for p in range(len(attributes))]
        return Relation.from_columns(attributes, columns)
    if how == "dicts":
        return Relation.from_dicts(attributes, [dict(zip(attributes, r)) for r in rows])
    if how == "frozen":
        return Relation._from_frozen(attributes, frozenset(rows))
    return Relation._from_order(attributes, tuple(dict.fromkeys(rows)))


@st.composite
def derived_relations(draw, values=mixed_values_with_nan):
    """A relation reached through any constructor and a chain of algebra
    operations, each fed by freshly constructed operands."""
    relation = constructed(draw, ("u", "v", "w"), values)
    for _ in range(draw(st.integers(0, 4))):
        names = relation.attributes
        op = draw(
            st.sampled_from(
                ("semijoin", "antijoin", "join", "project", "select_eq", "attr_eq",
                 "attr_neq", "union", "difference", "intersection", "rename", "take",
                 "extend", "product")
            )
        )
        if op in ("semijoin", "antijoin", "join"):
            other = constructed(draw, draw(st.sampled_from([("v", "x"), ("w", "v"), ("y",)])), values)
            if op == "join" and len(names) > 4:
                continue
            relation = {
                "semijoin": relation.semijoin,
                "antijoin": relation.antijoin,
                "join": relation.natural_join,
            }[op](other)
        elif op == "project":
            keep = draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
            relation = relation.project(keep)
        elif op == "select_eq":
            relation = relation.select_eq({draw(st.sampled_from(names)): draw(values)})
        elif op in ("attr_eq", "attr_neq") and len(names) > 1:
            left, right = draw(st.permutations(names))[:2]
            select = relation.select_attr_eq if op == "attr_eq" else relation.select_attr_neq
            relation = select(left, right)
        elif op in ("union", "difference", "intersection"):
            other = constructed(draw, tuple(draw(st.permutations(names))), values)
            relation = getattr(relation, op)(other)
        elif op == "rename":
            relation = relation.rename({names[0]: names[0] + "_"})
        elif op == "take":
            mask = bytes(draw(st.lists(st.integers(0, 1), min_size=len(relation), max_size=len(relation))))
            relation = relation._take(mask)
        elif op == "extend" and len(names) < 5:
            relation = relation._extend_positional("e%d" % len(names), 0, repr)
        elif op == "product" and len(names) < 4 and "p" not in names:
            relation = relation.natural_join(constructed(draw, ("p",), values))
    return relation


class TestRowStoreInvariant:
    """A relation is born with one row store — distinct rows in order, or a
    set — and derives the other at most once, on demand.  Whichever came
    first, the two agree and everything cached aligns with the order."""

    @settings(max_examples=200, deadline=None)
    @given(derived_relations())
    def test_the_two_stores_agree_and_every_cached_list_aligns(self, relation):
        born = set(relation._cache) & {"order", "rows"}
        assert born  # at least one store, whatever the producer
        assert len(relation) == relation.cardinality
        assert relation.is_empty() == (len(relation) == 0)
        order, rows = relation._row_order(), relation.rows
        assert type(order) is tuple and type(rows) is frozenset
        assert len(order) == len(rows) == len(relation)
        assert frozenset(order) == rows
        assert tuple(relation) == order  # iteration reads the order
        assert relation._row_order() is order and relation.rows is rows  # once
        for position in range(relation.arity):
            column = relation._column(position)
            assert len(column) == len(order)
            assert all(map(is_, column, [row[position] for row in order]))
        every = tuple(range(relation.arity))
        for positions in (every, every[::-1], every[:1], ()):
            keys = relation._keys(positions)
            if len(positions) == 1:
                expected = [row[positions[0]] for row in order]
            else:
                expected = [tuple(row[p] for p in positions) for row in order]
            assert keys == expected
            assert relation._key_set(positions) == frozenset(expected)
            index = relation._index(positions)
            assert sum(map(len, index.values())) == len(order)
            assert all(row in rows for bucket in index.values() for row in bucket)
            # The key census is the index's keys (the same first-arriving
            # objects: 1 / True / 1.0 and NaN included), in its order, and
            # its bucket sizes.
            counts = relation._counts(positions)
            assert list(counts) == list(index)
            values = list if len(positions) == 1 else chain.from_iterable
            assert all(map(is_, values(counts), values(index)))
            assert list(counts.values()) == list(map(len, index.values()))
            assert relation._counts(positions) is counts  # cached once

    @settings(max_examples=100, deadline=None)
    @given(derived_relations(values=mixed_values))
    def test_pickling_round_trips_whichever_store_exists(self, relation):
        stores = set(relation._cache) & {"order", "rows"}
        clone = pickle.loads(pickle.dumps(relation))
        assert set(clone._cache) & {"order", "rows"} == stores
        if "order" in stores:
            assert clone._row_order() == relation._row_order()  # order survives
        assert clone == relation and clone.attributes == relation.attributes
        assert len(clone) == len(relation) and hash(clone) == hash(relation)

    @pytest.mark.parametrize("born", ["order", "rows"])
    def test_threads_racing_the_lazy_fill_converge(self, born):
        # Both stores are published with setdefault, like every cache slot:
        # racers may each build the missing store, all of them get one object.
        rows = [(i, i % 7) for i in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                if born == "order":
                    relation = Relation.from_rows(("a", "b"), rows)
                    read = lambda r: r.rows  # noqa: E731
                else:
                    relation = Relation._from_frozen(("a", "b"), frozenset(rows))
                    read = Relation._row_order
                twin = relation.rename({"a": "x"})  # shares the cache: the stores too
                barrier = threading.Barrier(6)
                seen = []

                def racer(which):
                    barrier.wait(timeout=10)
                    seen.append(read(which))

                threads = [
                    threading.Thread(target=racer, args=(which,))
                    for which in (relation, twin) * 3
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 6 and all(store is seen[0] for store in seen)
                assert read(relation) is seen[0] and read(twin) is seen[0]
                assert len(seen[0]) == len(rows)
        finally:
            sys.setswitchinterval(interval)

    def test_producers_are_born_with_the_store_they_already_hold(self):
        r = Relation.from_rows(("a", "b"), [(3, 1), (1, 2), (3, 1), (2, 2)])
        s = Relation.from_columns(("b", "c"), [[2, 1, 2], ["x", "y", "x"]])
        assert r._row_order() == ((3, 1), (1, 2), (2, 2))  # arrival order, deduped
        assert s._row_order() == ((2, "x"), (1, "y"))
        ordered = {
            "semijoin": r.semijoin(Relation.from_rows(("b",), [(2,)])),
            "antijoin": r.antijoin(Relation.from_rows(("b",), [(2,)])),
            "project": r.project(("b",)),
            "join": r.natural_join(s),
            "join_keep": r._join_keep(s, ("b",)),
            "select_eq": r.select_eq({"a": 3}),
            "select": r.select(lambda row: row["a"] > 1),
            "extend": r.extend("c", lambda row: row["a"] + row["b"]),
            "product": r.natural_join(Relation.from_rows(("z",), [(0,), (1,)])),
            "unit": Relation.unit(),
            "empty": Relation.empty(("a",)),
        }
        for name, relation in ordered.items():
            assert list(relation._cache)[0] == "order" and "rows" not in relation._cache, name
        assert ordered["project"]._row_order() == ((1,), (2,))
        assert ordered["join"]._row_order() == ((3, 1, "y"), (1, 2, "x"), (2, 2, "x"))
        for name, relation in {
            "union": r.union(Relation.from_rows(("a", "b"), [(9, 9)])),
            "difference": r.difference(Relation.from_rows(("a", "b"), [(3, 1)])),
            "intersection": r.intersection(Relation.from_rows(("b", "a"), [(1, 3)])),
        }.items():
            assert "rows" in relation._cache and "order" not in relation._cache, name
        # Only the set algebra (and .rows / in / == / hash) hashed r's rows.
        assert "rows" in r._cache
        fresh = Relation.from_rows(("a", "b"), [(3, 1), (1, 2)])
        len(fresh), list(fresh), fresh.cardinality, fresh.is_empty(), repr(fresh)
        fresh.project(("a",)), fresh.column("a"), fresh._index((0,)), fresh._key_set((1,))
        assert "rows" not in fresh._cache
        assert (3, 1) in fresh and "rows" in fresh._cache


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
        assert "rows" not in warm  # none of the above hashed a row

        clone, other_clone = pickle.loads(pickle.dumps((relation, other)))
        assert set(clone._cache) == warm  # default slot pickling: all of it
        assert clone == relation and clone.attributes == relation.attributes
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
