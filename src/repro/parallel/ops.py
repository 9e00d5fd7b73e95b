"""Shard-parallel relational operators: semijoin, hash join, point lookup.

These drivers are the data-parallel counterparts of the kernel operations
the evaluators lean on.  They share one structure:

1. partition both operands by the hash of their shared join key
   (``Relation._partition`` — lazy, cached, shards born with the key
   index preseeded), which *co-partitions* them: equal keys hash equal,
   so rows that can match meet in the shard of the same index and every
   shard pair is an independent task with no cross-shard traffic;
2. run the per-shard kernel across a :class:`~repro.parallel.pool.WorkerPool`
   (inline on one core, threads otherwise);
3. recombine — a C-level ``frozenset().union`` of shard row sets, or the
   operand itself when no shard changed (preserving its warm caches).

The per-shard semijoin kernel is *bucket-centric*: it walks the shard's
cached index buckets (one step per distinct key) instead of its rows (one
step per tuple) and keeps or drops whole buckets.  On single-core
containers this — plus dropping shard pairs whose partner is empty — is
where the measured speedup of the sharded layer comes from; worker fan-out
adds on top when cores exist.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Mapping, Optional, Tuple

from ..relational.attributes import positions_of
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .pool import WorkerPool

#: Shard counts default to a small multiple of the worker budget so the
#: level scheduler always has tasks to steal; see Planner for the
#: data-scale decision of whether to shard at all.
DEFAULT_SHARD_COUNT = 4


def shared_attributes(left: Tuple[str, ...], right: Tuple[str, ...]) -> Tuple[str, ...]:
    """Join attributes, in *left*'s column order.

    This ordering is load-bearing: both sides of a co-partitioned
    operation derive their key positions from it, so equal keys hash to
    the same shard on both sides.
    """
    right_set = set(right)
    return tuple(a for a in left if a in right_set)


# ----------------------------------------------------------------------
# Per-shard kernels
# ----------------------------------------------------------------------


def bucket_semijoin(
    left: Relation,
    right: Relation,
    left_positions: Tuple[int, ...],
    right_positions: Tuple[int, ...],
) -> Relation:
    """``left ⋉ right`` on the given key positions, bucket by bucket.

    Walks *left*'s cached index on the key (one dict probe per distinct
    key, not per row) and keeps whole buckets whose key appears in
    *right*'s index.  Returns *left* itself when nothing is filtered, so
    warm index/partition caches survive the pass.
    """
    if left.is_empty():
        return left
    if right.is_empty():
        return Relation._from_order(left.attributes, ())
    left_index = left._index(left_positions)
    right_index = right._index(right_positions)
    kept = [bucket for key, bucket in left_index.items() if key in right_index]
    if sum(map(len, kept)) == len(left):
        return left
    return Relation._from_order(left.attributes, tuple(chain.from_iterable(kept)))


def _semijoin_task(
    task: Tuple[Relation, Relation, Tuple[int, ...], Tuple[int, ...]],
) -> Relation:
    left_shard, right_shard, left_positions, right_positions = task
    return bucket_semijoin(left_shard, right_shard, left_positions, right_positions)


def _join_task(task: Tuple[Relation, Relation]) -> Optional[Relation]:
    left_shard, right_shard = task
    if left_shard.is_empty() or right_shard.is_empty():
        return None
    return left_shard.natural_join(right_shard)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def parallel_semijoin(
    left: Relation,
    right: Relation,
    shard_count: int = DEFAULT_SHARD_COUNT,
    pool: Optional[WorkerPool] = None,
) -> Relation:
    """Shard-parallel ``left ⋉ right`` (equal to ``Relation.semijoin``).

    Both operands are hash-partitioned on the shared attributes, each
    co-partitioned shard pair is semijoined bucket-by-bucket, and shard
    pairs with an empty partner are dropped without scanning.  With no
    shared attributes this degenerates to the kernel's nonempty test.

    The driver is *cache-adaptive*: sharding an operand costs one pass, so
    the sharded path runs when the probe side's partition is already cached
    (warm — e.g. a base relation semijoined every execution) or when the
    pool has real workers to amortize the split.  A cold operand on a
    one-worker pool uses the bucket kernel if its key index happens to be warm,
    and otherwise falls through to the kernel's row-scan semijoin — the
    layer never pays more than sequential execution would.
    """
    check_cancelled()
    shared = shared_attributes(left.attributes, right.attributes)
    if not shared:
        return left.semijoin(right)
    left_positions = positions_of(left.attributes, shared)
    right_positions = positions_of(right.attributes, shared)
    if shard_count <= 1 or left.is_empty() or right.is_empty():
        return bucket_semijoin(left, right, left_positions, right_positions)
    workers = pool.max_workers if pool is not None else 1
    partition = ("partition", left.attributes, left_positions, shard_count)
    if workers > 1 or partition in left._cache:
        left_shards = left._partition(left_positions, shard_count)
        right_shards = right._partition(right_positions, shard_count)
        tasks = [
            (ls, rs, left_positions, right_positions)
            for ls, rs in zip(left_shards, right_shards)
        ]
        parts = pool_map(pool, _semijoin_task, tasks)
        if all(part is shard for part, shard in zip(parts, left_shards)):
            return left
        return Relation._from_order(left.attributes, tuple(chain.from_iterable(parts)))
    if ("index", left_positions) in left._cache:
        return bucket_semijoin(left, right, left_positions, right_positions)
    return left.semijoin(right)


def parallel_hash_join(
    left: Relation,
    right: Relation,
    shard_count: int = DEFAULT_SHARD_COUNT,
    pool: Optional[WorkerPool] = None,
) -> Relation:
    """Shard-parallel natural join (equal to ``Relation.natural_join``).

    Co-partitions on the shared attributes and joins shard-by-shard; a
    left row's key determines its shard, so shard outputs are disjoint and
    recombination is a plain union.  With no shared attributes the kernel's
    cartesian product runs unsharded.
    """
    shared = shared_attributes(left.attributes, right.attributes)
    if not shared or shard_count <= 1 or left.is_empty() or right.is_empty():
        return left.natural_join(right)
    left_positions = positions_of(left.attributes, shared)
    right_positions = positions_of(right.attributes, shared)
    left_shards = left._partition(left_positions, shard_count)
    right_shards = right._partition(right_positions, shard_count)
    tasks = [
        (ls, rs)
        for ls, rs in zip(left_shards, right_shards)
        if len(ls) and len(rs)
    ]
    parts = [part for part in pool_map(pool, _join_task, tasks) if part is not None]
    if not parts:
        extra = tuple(a for a in right.attributes if a not in set(left.attributes))
        return Relation._from_order(left.attributes + extra, ())
    return Relation._from_order(parts[0].attributes, tuple(chain.from_iterable(parts)))


def parallel_select_eq(
    relation: Relation,
    conditions: Mapping[str, Any],
    shard_count: int = DEFAULT_SHARD_COUNT,
) -> Relation:
    """Sharded point selection (equal to ``Relation.select_eq``).

    The condition key's hash names the one shard that can contain
    matches (``_partition`` routes buckets by ``hash(key) % shard_count``);
    only that shard is probed — partition pruning, so no worker pool is
    involved.  Unhashable condition values fall back to the kernel's
    linear scan.
    """
    if shard_count <= 1 or relation.is_empty():
        return relation.select_eq(conditions)
    positions = positions_of(relation.attributes, tuple(conditions))
    if len(positions) == 1:
        key: Any = next(iter(conditions.values()))
    else:
        key = tuple(conditions.values())
    # Hash the probe *before* partitioning: an unhashable probe routes to
    # the kernel's linear-scan fallback and should not pay for building
    # shards it will not probe.
    try:
        shard_index = hash(key) % shard_count
    except TypeError:
        return relation.select_eq(conditions)
    shard = relation._partition(positions, shard_count)[shard_index]
    bucket = shard._index(positions).get(key, ())
    return Relation._from_order(relation.attributes, bucket)


def pool_map(pool: Optional[WorkerPool], fn, tasks):
    if pool is None:
        return [fn(task) for task in tasks]
    return pool.map(fn, tasks)
