"""Property tests for the sharded execution layer.

The contract under test: every sharded operation agrees exactly with its
unsharded kernel counterpart — for any shard count, any key choice, and in
the presence of empty shards and maximally skewed keys (all rows hashing
into one shard).  Sharding is an execution strategy, never a semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.parallel import (
    ShardedRelation,
    WorkerPool,
    bucket_semijoin,
    parallel_hash_join,
    parallel_select_eq,
    parallel_semijoin,
    shard_relation,
)
from repro.relational.attributes import positions_of
from repro.relational.relation import Relation

SETTINGS = settings(max_examples=40, deadline=None)

values = st.integers(min_value=0, max_value=7)
rows2 = st.sets(st.tuples(values, values), max_size=40)
rows3 = st.sets(st.tuples(values, values, values), max_size=40)
shard_counts = st.integers(min_value=1, max_value=7)
# Where Python equality crosses types: 1 == True == 1.0 must route as one key.
mixed = st.sampled_from([0, 1, True, 1.0, 2, "a", "b", "1", None])
mixed_rows3 = st.sets(st.tuples(mixed, mixed, mixed), max_size=30)
partition_keys = st.sampled_from([("y",), ("y", "z")])


def rel(attributes, rows):
    return Relation.from_rows(attributes, rows)


class TestKernelPartition:
    @SETTINGS
    @given(rows2, shard_counts)
    def test_partition_is_a_partition(self, rows, count):
        relation = rel(("x", "y"), rows)
        shards = relation._partition((1,), count)
        assert len(shards) == count
        assert sum(s.cardinality for s in shards) == relation.cardinality
        assert frozenset().union(*(s.rows for s in shards)) == relation.rows

    @SETTINGS
    @given(mixed_rows3, mixed_rows3, shard_counts, partition_keys)
    def test_partition_routes_whole_buckets(self, left_rows, right_rows, count, key):
        # Routing is by ``hash(key) % count`` and equal keys hash equal
        # (1, True and 1.0 are one key), so a key's whole bucket lands in
        # one shard and two relations partitioned on the same key agree on
        # its shard index — whatever positions the key sits at.
        home = {}
        left, right = rel(("x", "y", "z"), left_rows), rel(("z", "w", "y"), right_rows)
        for relation in (left, right):
            positions = positions_of(relation.attributes, key)
            shards = relation._partition(positions, count)
            assert frozenset().union(*(s.rows for s in shards)) == relation.rows
            assert sum(s.cardinality for s in shards) == relation.cardinality
            for index, shard in enumerate(shards):
                for row_key in shard._keys(positions):
                    assert home.setdefault(row_key, index) == index

    def test_partition_is_cached_and_preseeds_indexes(self):
        relation = rel(("x", "y"), {(i, i % 3) for i in range(30)})
        shards = relation._partition((1,), 4)
        assert relation._partition((1,), 4) is shards
        for shard in shards:
            assert ("index", (1,)) in shard._cache  # born with the key index

    def test_renamed_twins_partition_under_their_own_names(self):
        # Twins share one cache, so a partition cached by one must not be
        # served to the other under the wrong attribute names.
        relation = rel(("x", "y"), {(i, i % 3) for i in range(30)})
        twin = relation._renamed(("a", "b"))
        twin_shards = twin._partition((1,), 4)
        source_shards = relation._partition((1,), 4)
        assert twin._cache is relation._cache
        assert all(shard.attributes == ("a", "b") for shard in twin_shards)
        assert all(shard.attributes == ("x", "y") for shard in source_shards)
        assert twin._partition((1,), 4) is twin_shards
        assert relation._partition((1,), 4) is source_shards
        assert [s.rows for s in twin_shards] == [s.rows for s in source_shards]


class TestShardedRelationAgreement:
    @SETTINGS
    @given(rows2, rows2, shard_counts)
    def test_semijoin_matches_kernel(self, left_rows, right_rows, count):
        left = rel(("x", "y"), left_rows)
        right = rel(("y", "z"), right_rows)
        sharded = ShardedRelation(left, ("y",), count)
        partner = ShardedRelation(right, ("y",), count)
        assert sharded.co_partitioned_with(partner)
        assert sharded.semijoin(partner).to_relation() == left.semijoin(right)
        # Against an unsharded operand too.
        assert sharded.semijoin(right).to_relation() == left.semijoin(right)

    @SETTINGS
    @given(rows2, rows2, shard_counts)
    def test_natural_join_matches_kernel(self, left_rows, right_rows, count):
        left = rel(("x", "y"), left_rows)
        right = rel(("y", "z"), right_rows)
        sharded = ShardedRelation(left, ("y",), count)
        partner = ShardedRelation(right, ("y",), count)
        expected = left.natural_join(right)
        assert sharded.natural_join(partner).to_relation() == expected
        assert sharded.natural_join(right).to_relation() == expected

    @SETTINGS
    @given(rows3, shard_counts)
    def test_project_matches_kernel(self, rows, count):
        relation = rel(("x", "y", "z"), rows)
        sharded = ShardedRelation(relation, ("y",), count)
        kept = sharded.project(("y", "z"))
        assert kept.to_relation() == relation.project(("y", "z"))
        # Key-dropping projection merges (duplicates may cross shards).
        dropped = sharded.project(("x",))
        assert isinstance(dropped, Relation)
        assert dropped == relation.project(("x",))

    @SETTINGS
    @given(rows2, rows2, shard_counts)
    def test_union_of_shards_matches_kernel(self, left_rows, right_rows, count):
        left = rel(("x", "y"), left_rows)
        right = rel(("x", "y"), right_rows)
        sharded = ShardedRelation(left, ("x",), count)
        partner = ShardedRelation(right, ("x",), count)
        assert sharded.union(partner).to_relation() == left.union(right)

    @SETTINGS
    @given(rows2, shard_counts)
    def test_select_eq_matches_kernel(self, rows, count):
        relation = rel(("x", "y"), rows)
        sharded = ShardedRelation(relation, ("x",), count)
        for value in (0, 3, 99):
            expected = relation.select_eq({"x": value})
            assert sharded.select_eq({"x": value}).to_relation() == expected


class TestDrivers:
    @SETTINGS
    @given(rows2, rows2, shard_counts)
    def test_parallel_semijoin(self, left_rows, right_rows, count):
        left = rel(("x", "y"), left_rows)
        right = rel(("y", "z"), right_rows)
        assert parallel_semijoin(left, right, count) == left.semijoin(right)

    @SETTINGS
    @given(rows2, rows2, shard_counts)
    def test_parallel_hash_join(self, left_rows, right_rows, count):
        left = rel(("x", "y"), left_rows)
        right = rel(("y", "z"), right_rows)
        assert parallel_hash_join(left, right, count) == left.natural_join(right)

    @SETTINGS
    @given(rows2, shard_counts, values)
    def test_parallel_select_eq(self, rows, count, value):
        relation = rel(("x", "y"), rows)
        assert parallel_select_eq(relation, {"y": value}, count) == (
            relation.select_eq({"y": value})
        )

    def test_parallel_select_eq_unhashable_probe_routes_to_fallback(self):
        """Regression (ISSUE 10): an unhashable probe key must take the
        kernel's linear-scan fallback — routing hashes the key, which raises
        ``TypeError`` for unhashables — instead of crashing or silently
        returning empty."""
        relation = rel(("x", "y"), {(i, i % 4) for i in range(24)})
        for count in (2, 4, 7):
            result = parallel_select_eq(relation, {"y": [1, 2]}, count)
            assert result == relation.select_eq({"y": [1, 2]})
            assert result.rows == frozenset()

    def test_parallel_select_eq_unhashable_but_equal_probe(self):
        """An unhashable probe that compares ``==`` to stored values must
        select exactly the rows the kernel's linear scan selects."""

        class EqTo:
            """Equal to one target value, but unhashable."""

            __hash__ = None

            def __init__(self, target):
                self.target = target

            def __eq__(self, other):
                return other == self.target

        relation = rel(("x", "y"), {(i, i % 4) for i in range(24)})
        probe = EqTo(3)
        expected = relation.select_eq({"y": probe})
        assert expected.rows == frozenset(
            (i, i % 4) for i in range(24) if i % 4 == 3
        )
        for count in (1, 2, 4, 7):
            assert parallel_select_eq(relation, {"y": probe}, count) == expected
        # Multi-position conditions hit the composite-key path.
        multi = {"x": 7, "y": EqTo(3)}
        expected_multi = relation.select_eq(multi)
        assert expected_multi.rows == frozenset({(7, 3)})
        for count in (2, 5):
            assert parallel_select_eq(relation, multi, count) == expected_multi

    @SETTINGS
    @given(rows2, rows2)
    def test_bucket_semijoin_matches_kernel(self, left_rows, right_rows):
        left = rel(("x", "y"), left_rows)
        right = rel(("y", "z"), right_rows)
        left_positions = positions_of(left.attributes, ("y",))
        right_positions = positions_of(right.attributes, ("y",))
        assert bucket_semijoin(
            left, right, left_positions, right_positions
        ) == left.semijoin(right)

    def test_drivers_under_a_thread_pool(self):
        left = rel(("x", "y"), {(i, i % 5) for i in range(60)})
        right = rel(("y", "z"), {(i % 5, i) for i in range(40) if i % 2})
        with WorkerPool(max_workers=3) as pool:
            assert parallel_semijoin(left, right, 4, pool) == left.semijoin(right)
            assert parallel_hash_join(left, right, 4, pool) == (
                left.natural_join(right)
            )


class TestEdgeCases:
    def test_empty_relation_shards(self):
        empty = Relation.from_rows(("x", "y"))
        sharded = ShardedRelation(empty, ("x",), 4)
        assert sharded.is_empty()
        assert sharded.cardinality == 0
        assert sharded.to_relation() == empty
        other = ShardedRelation(rel(("x", "y"), {(1, 2)}), ("x",), 4)
        assert sharded.semijoin(other).to_relation() == empty
        assert other.semijoin(sharded).to_relation().is_empty()

    def test_skewed_key_lands_in_one_shard(self):
        # Every row shares the join key: one shard holds everything and
        # the other shard pairs are pruned as empty partners.
        skewed = rel(("x", "y"), {(i, 7) for i in range(50)})
        sharded = ShardedRelation(skewed, ("y",), 5)
        occupied = [s for s in sharded.shards if not s.is_empty()]
        assert len(occupied) == 1
        assert occupied[0].cardinality == 50
        right = rel(("y", "z"), {(7, 1), (3, 2)})
        partner = ShardedRelation(right, ("y",), 5)
        assert sharded.semijoin(partner).to_relation() == skewed.semijoin(right)
        drained = rel(("y", "z"), {(3, 2)})
        assert sharded.semijoin(
            ShardedRelation(drained, ("y",), 5)
        ).to_relation() == skewed.semijoin(drained)

    def test_semijoin_identity_returns_self(self):
        left = rel(("x", "y"), {(i, i % 4) for i in range(40)})
        right = rel(("y", "z"), {(i % 4, i) for i in range(40)})
        sharded = ShardedRelation(left, ("y",), 4)
        assert sharded.semijoin(ShardedRelation(right, ("y",), 4)) is sharded

    def test_no_shared_attributes(self):
        left = rel(("x", "y"), {(1, 2), (3, 4)})
        right = rel(("u", "v"), {(9, 9)})
        sharded = ShardedRelation(left, ("x",), 3)
        assert sharded.semijoin(right) is sharded
        empty_right = Relation.from_rows(("u", "v"))
        assert sharded.semijoin(empty_right).to_relation().is_empty()
        assert parallel_semijoin(left, right, 3) == left.semijoin(right)
        assert parallel_hash_join(left, right, 3) == left.natural_join(right)

    def test_non_co_partitioned_operands_still_agree(self):
        left = rel(("x", "y"), {(i, i % 6) for i in range(30)})
        right = rel(("y", "z"), {(i % 6, i) for i in range(20)})
        sharded = ShardedRelation(left, ("y",), 4)
        mismatched = ShardedRelation(right, ("y",), 3)  # different count
        assert not sharded.co_partitioned_with(mismatched)
        assert sharded.semijoin(mismatched).to_relation() == left.semijoin(right)

    def test_shard_relation_helper_and_repr(self):
        relation = rel(("x", "y"), {(1, 2), (2, 2), (3, 1)})
        sharded = shard_relation(relation, ("y",), 2)
        assert sharded.key == ("y",)
        assert sharded.shard_count == 2
        assert "ShardedRelation" in repr(sharded)
