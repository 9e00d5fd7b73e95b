"""Kernel-rewrite regression tests.

Property tests asserting that the index-backed / fused join paths agree
with straightforward reference implementations on randomized relations
(heterogeneous value types included), plus unit tests for the trusted
constructor contract and the per-relation index-cache lifetime.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.evaluation.yannakakis import YannakakisEvaluator
from repro.evaluation.naive import NaiveEvaluator
from repro.query.parser import parse_query
from repro.relational import Database, Relation, hash_join, sort_merge_join

# ---------------------------------------------------------------------------
# Reference implementations (the seed's straightforward semantics)
# ---------------------------------------------------------------------------


def reference_natural_join(left: Relation, right: Relation) -> Relation:
    """Nested-loop natural join, the textbook definition."""
    shared = [a for a in left.attributes if a in set(right.attributes)]
    extra = [a for a in right.attributes if a not in set(left.attributes)]
    left_pos = [left.attributes.index(a) for a in shared]
    right_pos = [right.attributes.index(a) for a in shared]
    extra_pos = [right.attributes.index(a) for a in extra]
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            if all(lrow[lp] == rrow[rp] for lp, rp in zip(left_pos, right_pos)):
                rows.append(lrow + tuple(rrow[p] for p in extra_pos))
    return Relation.from_rows(tuple(left.attributes) + tuple(extra), rows)


def reference_semijoin(left: Relation, right: Relation) -> Relation:
    shared = [a for a in left.attributes if a in set(right.attributes)]
    if not shared:
        return left if right.rows else Relation.from_rows(left.attributes)
    left_pos = [left.attributes.index(a) for a in shared]
    right_pos = [right.attributes.index(a) for a in shared]
    right_keys = {tuple(r[p] for p in right_pos) for r in right.rows}
    return Relation.from_rows(
        left.attributes,
        (
            row
            for row in left.rows
            if tuple(row[p] for p in left_pos) in right_keys
        ),
    )


# Mixed value types: ints, strings, tuples — all hashable, not mutually
# comparable (exercises the sort-merge decoration).
_VALUE_POOLS = (
    lambda rng: rng.randrange(6),
    lambda rng: chr(97 + rng.randrange(4)),
    lambda rng: (rng.randrange(3), rng.randrange(3)),
)


def random_relation(rng: random.Random, attributes, n_rows: int) -> Relation:
    rows = {
        tuple(rng.choice(_VALUE_POOLS)(rng) for _ in attributes)
        for _ in range(n_rows)
    }
    return Relation.from_rows(tuple(attributes), rows)


SCHEMAS = [
    (("a", "b"), ("b", "c")),       # one shared column
    (("a", "b", "c"), ("b", "c", "d")),  # two shared columns
    (("a", "b"), ("a", "b")),       # identical schemas → intersection
    (("a", "b"), ("b",)),           # right ⊂ left → semijoin shape
    (("a",), ("b",)),               # disjoint → Cartesian product
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("left_attrs,right_attrs", SCHEMAS)
def test_joins_agree_with_reference(seed, left_attrs, right_attrs):
    rng = random.Random(seed)
    left = random_relation(rng, left_attrs, rng.randrange(0, 25))
    right = random_relation(rng, right_attrs, rng.randrange(0, 25))
    expected = reference_natural_join(left, right)
    assert left.natural_join(right) == expected
    assert hash_join(left, right) == expected
    assert sort_merge_join(left, right) == expected
    # hash_join must emit left-major column order regardless of build side.
    assert hash_join(left, right).attributes == expected.attributes
    assert sort_merge_join(left, right).attributes == expected.attributes


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("left_attrs,right_attrs", SCHEMAS)
def test_semijoin_agrees_with_reference(seed, left_attrs, right_attrs):
    rng = random.Random(100 + seed)
    left = random_relation(rng, left_attrs, rng.randrange(0, 25))
    right = random_relation(rng, right_attrs, rng.randrange(0, 25))
    assert left.semijoin(right) == reference_semijoin(left, right)
    # Antijoin is the complement within left.
    assert left.antijoin(right) == left.difference(reference_semijoin(left, right))


@pytest.mark.parametrize("seed", range(6))
def test_hash_join_smaller_build_side(seed):
    """The build-on-smaller path (|left| < |right|) matches the reference."""
    rng = random.Random(200 + seed)
    small = random_relation(rng, ("a", "b"), 4)
    big = random_relation(rng, ("b", "c"), 30)
    assert hash_join(small, big) == reference_natural_join(small, big)
    assert hash_join(small, big).attributes == ("a", "b", "c")


def test_sort_merge_join_cross_type_numeric_equality():
    """True == 1 == 1.0 must join under sort-merge exactly as under hash."""
    left = Relation.from_rows(("a", "d"), [((1,), True), ((2,), 7)])
    right = Relation.from_rows(("b", "e", "d"), [((1,), "1", 1), ((3,), "x", 7.0)])
    assert sort_merge_join(left, right) == hash_join(left, right)
    assert len(sort_merge_join(left, right)) == 2


def test_select_eq_unhashable_condition_value():
    """An unhashable condition value falls back to a scan, not a TypeError."""
    r = Relation.from_rows(("a", "b"), [(1, 2), (3, 4)])
    assert r.select_eq({"a": [1]}).is_empty()


def test_column_reads_without_building_an_index():
    r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3), (2, 4)])
    born = dict(r._cache)
    assert list(born) == ["order"]  # born ordered: rows in arrival order
    assert r.column("a") == frozenset({1, 2})
    assert r.active_values() == frozenset({1, 2, 3, 4})
    assert list(r.iter_dicts())[0] == {"a": 1, "b": 2}
    # Reads that only iterate pin no index, no column and no row set.
    assert r._cache == born


def test_join_keep_matches_join_then_project():
    rng = random.Random(42)
    left = random_relation(rng, ("a", "b"), 20)
    right = random_relation(rng, ("b", "c", "d"), 20)
    fused = left._join_keep(right, ("b", "c"))
    explicit = left.natural_join(right.project(("b", "c")))
    assert fused == explicit
    assert fused.attributes == explicit.attributes


# ---------------------------------------------------------------------------
# Trusted constructor + index cache lifetime
# ---------------------------------------------------------------------------


class TestTrustedConstructor:
    def test_from_frozen_skips_validation_but_matches_public(self):
        rows = frozenset({(1, 2), (3, 4)})
        trusted = Relation._from_frozen(("a", "b"), rows)
        public = Relation.from_rows(("a", "b"), rows)
        assert trusted == public
        assert trusted.rows is rows  # no re-freezing

    def test_algebra_results_are_normal_relations(self):
        r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3), (2, 3)])
        s = Relation.from_rows(("b", "c"), [(2, "x"), (3, "y")])
        out = r.natural_join(s).project(("a", "c")).select_eq({"a": 1})
        assert isinstance(out, Relation)
        assert out == Relation.from_rows(("a", "c"), [(1, "x"), (1, "y")])


class TestIndexCache:
    def test_index_is_built_once_and_reused(self):
        r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3), (2, 4)])
        first = r._index((0,))
        second = r._index((0,))
        assert first is second
        # One position: raw values; a wrong-arity (tuple) key just misses.
        assert sorted(first[1]) == [(1, 2), (1, 3)]
        assert first.get((1,), ()) == () and first.get((1, 2), ()) == ()
        # No position: everything under (), and no bucket for no rows.
        assert sorted(r._index(())[()]) == sorted(r.rows)
        assert Relation.empty(("a",))._index(()) == {}

    def test_semijoin_reuses_cache_across_repeated_calls(self):
        left = Relation.from_rows(("a", "b"), [(1, 2), (5, 6)])
        right = Relation.from_rows(("b", "c"), [(2, 7), (9, 9)])
        assert list(right._cache) == ["order"]
        first = left.semijoin(right)
        cached = dict(right._cache)
        assert ("keyset", (0,)) in cached  # semijoin built right's key set
        assert "rows" not in cached and "rows" not in left._cache  # hashed no row
        second = left.semijoin(right)
        # Never invalidated (relations are immutable): same cached objects.
        for cache_key, value in cached.items():
            assert right._cache[cache_key] is value
        assert first == second

    def test_join_and_semijoin_share_keys_and_one_index(self):
        left = Relation.from_rows(("a", "b"), [(1, 2), (5, 2)])
        right = Relation.from_rows(("b", "c"), [(2, 7), (3, 8)])
        left.semijoin(right)
        keys = left._cache[("col", 1)]
        assert left.natural_join(right) == Relation.from_rows(
            ("a", "b", "c"), [(1, 2, 7), (5, 2, 7)]
        )
        # The join probed with the very key list the semijoin built ...
        assert left._keys((1,)) is keys and left._cache[("col", 1)] is keys
        # ... into right's one bucket index, which select_eq and the naive
        # search then read without building another.
        index = right._cache[("index", (0,))]
        right.select_eq({"b": 2})
        query = parse_query("Q(c) :- R(2, c).")
        assert NaiveEvaluator().evaluate(query, Database({"R": right})).rows == {(7,)}
        assert right._index((0,)) is index
        assert [key for key in right._cache if key[0] == "index"] == [("index", (0,))]

    def test_rename_shares_index_cache(self):
        r = Relation.from_rows(("a", "b"), [(1, 2), (3, 4)])
        r._index((1,))
        renamed = r.rename({"a": "x"})
        assert renamed._cache is r._cache

    def test_select_eq_uses_index(self):
        r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3), (2, 4)])
        assert r.select_eq({"a": 1}) == Relation.from_rows(("a", "b"), [(1, 2), (1, 3)])
        assert ("index", (0,)) in r._cache
        assert r.select_eq({"a": 1, "b": 3}) == Relation.from_rows(("a", "b"), [(1, 3)])
        assert r.select_eq({"a": 9}).is_empty()  # a miss
        assert r.select_eq({}) == r  # no condition: the empty-position index


class TestValueSets:
    NAN = float("nan")
    ROWS = [(1, "x", 0), (True, "y", 0), (1.0, "x", NAN), (2, "x", NAN), (2, "z", 3)]

    def reference(self, rows, positions, position):
        sets = {}
        for row in rows:
            key = row[positions[0]] if len(positions) == 1 else tuple(
                row[p] for p in positions
            )
            sets.setdefault(key, set()).add(row[position])
        return {key: frozenset(values) for key, values in sets.items()}

    @pytest.mark.parametrize("positions, position", [
        ((), 0), ((), 2), ((0,), 1), ((0,), 2), ((1,), 0), ((0, 1), 2), ((2, 0), 1),
    ])
    def test_value_sets_are_the_buckets_values(self, positions, position):
        r = Relation.from_rows(("a", "b", "c"), self.ROWS)
        sets = r._values(positions, position)
        assert sets == self.reference(self.ROWS, positions, position)
        assert r._values(positions, position) is sets  # cached
        assert set(sets) == set(r._index(positions))  # the index's keys

    def test_one_equality_across_keys_and_values(self):
        r = Relation.from_rows(("a", "b", "c"), self.ROWS)
        # 1, True, 1.0 are one key and one value; the NaN object is itself.
        assert r._values((0,), 1)[True] == {"x", "y"}
        assert r._values((1,), 0)["x"] == {1, 2}
        assert self.NAN in r._values((0,), 2)[2]
        assert r._values((0,), 2).get(float("nan")) is None

    def test_threads_racing_the_cold_fill_converge(self):
        rows = [(i % 50, i) for i in range(3000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                relation = Relation.from_rows(("a", "b"), rows)
                twin = relation._renamed(("x", "y"))
                barrier = threading.Barrier(6)
                seen = []

                def racer(which):
                    barrier.wait(timeout=10)
                    seen.append(which._values((0,), 1))

                threads = [
                    threading.Thread(target=racer, args=(which,))
                    for which in (relation, twin) * 3
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert len(seen) == 6 and all(sets is seen[0] for sets in seen)
                assert relation._values((0,), 1) is seen[0]
        finally:
            sys.setswitchinterval(interval)

    def test_a_renamed_twin_shares_the_value_sets(self):
        r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3)])
        sets = r._values((0,), 1)
        twin = r.rename({"a": "z"})
        assert twin._values((0,), 1) is sets
        assert r._renamed(("p", "q"))._values((0,), 1) is sets


class TestYannakakisFusedPass:
    def test_fused_and_unfused_paths_agree(self):
        from repro.workloads import chain_database, path_query

        db = chain_database(layers=4, width=6, p=0.4, seed=9)
        query = path_query(3, head_arity=2)
        fused = YannakakisEvaluator().evaluate(query, db)
        unfused = YannakakisEvaluator(
            join_algorithm=sort_merge_join
        ).evaluate(query, db)
        assert fused == unfused
