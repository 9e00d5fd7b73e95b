"""Hash-partitioned relations: the :class:`ShardedRelation` value type.

A sharded relation is a :class:`~repro.relational.relation.Relation` split
into ``shard_count`` immutable shard relations by the hash of its values on
chosen *key* attributes (the intended join keys).  Shards come out of the
kernel's lazy partition cache (``Relation._partition``), so they are built
once per (key, count) for a relation's lifetime, each shard carries its key
index preseeded, and re-sharding a relation you already sharded is a cache
lookup.

Co-partitioning contract
------------------------

Two sharded relations are **co-partitioned** when they have equal
``shard_count`` and equal key attribute *names*.  Rows that can join on the
key then meet in the shard of the same index (both sides route by
``hash(key) % shard_count``, and equal keys hash equal within a process),
so a semijoin or natural join between them decomposes into ``shard_count`` independent shard-pair tasks with no
cross-shard traffic — and a shard pair with an empty partner is dropped
without scanning anything.  Against a non-co-partitioned operand, every
shard works against the full operand relation: still correct (a partition
of the left side induces a partition of the result), just without the
pairwise pruning.

Key preservation: operations whose result still contains every key
attribute (semijoin, natural join, key-preserving projections, union)
return a :class:`ShardedRelation` over the same key; a projection that
drops part of the key returns a plain merged :class:`Relation`, since rows
from different shards could collapse and the partition would no longer be
a function of the remaining columns.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from ..relational.attributes import positions_of
from ..relational.relation import Relation
from .ops import DEFAULT_SHARD_COUNT, bucket_semijoin, pool_map, shared_attributes
from .pool import WorkerPool

Operand = Union["ShardedRelation", Relation]


class ShardedRelation:
    """An immutable hash-partitioned view of a relation.

    Parameters
    ----------
    relation:
        The source relation to shard.
    key:
        Nonempty subsequence of the relation's attributes to partition by
        (the intended join key).
    shard_count:
        Number of hash shards (≥ 1).
    """

    __slots__ = ("_attributes", "_key", "_key_positions", "_shards")

    def __init__(
        self,
        relation: Relation,
        key: Sequence[str],
        shard_count: int = DEFAULT_SHARD_COUNT,
    ) -> None:
        key_names = tuple(key)
        if not key_names:
            raise SchemaError("sharding key must name at least one attribute")
        positions = positions_of(relation.attributes, key_names)
        self._attributes = relation.attributes
        self._key = key_names
        self._key_positions = positions
        self._shards = relation._partition(positions, max(1, shard_count))

    @classmethod
    def _from_shards(
        cls,
        attributes: Tuple[str, ...],
        key: Tuple[str, ...],
        shards: Tuple[Relation, ...],
    ) -> "ShardedRelation":
        self = object.__new__(cls)
        self._attributes = attributes
        self._key = key
        self._key_positions = positions_of(attributes, key)
        self._shards = shards
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def key(self) -> Tuple[str, ...]:
        """The partitioning attributes, in relation column order."""
        return self._key

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[Relation, ...]:
        return self._shards

    @property
    def cardinality(self) -> int:
        return sum(shard.cardinality for shard in self._shards)

    def is_empty(self) -> bool:
        return all(shard.is_empty() for shard in self._shards)

    def to_relation(self) -> Relation:
        """Merge the shards back into one relation (C-level union)."""
        return Relation._from_frozen(
            self._attributes,
            frozenset().union(*(shard.rows for shard in self._shards)),
        )

    def co_partitioned_with(self, other: "ShardedRelation") -> bool:
        """Same shard count and same key names — shard-pair tasks align."""
        return self.shard_count == other.shard_count and self._key == other._key

    def __repr__(self) -> str:
        sizes = tuple(shard.cardinality for shard in self._shards)
        return (
            f"ShardedRelation({self._attributes!r}, key={self._key!r}, "
            f"shards={sizes})"
        )

    # ------------------------------------------------------------------
    # Sharded algebra
    # ------------------------------------------------------------------

    def _partner_shards(self, other: Operand) -> Tuple[Relation, ...]:
        """Per-shard right operands: the aligned shards when co-partitioned
        (enabling empty-pair pruning), the full relation everywhere else."""
        if isinstance(other, ShardedRelation):
            if self.co_partitioned_with(other):
                return other._shards
            other = other.to_relation()
        return tuple(other for _ in self._shards)

    def semijoin(
        self, other: Operand, pool: Optional[WorkerPool] = None
    ) -> "ShardedRelation":
        """``self ⋉ other``, shard by shard; result keeps this sharding."""
        shared = shared_attributes(self._attributes, other.attributes)
        if not shared:
            if not other.is_empty():
                return self
            empty = tuple(
                Relation._from_frozen(self._attributes, frozenset())
                for _ in self._shards
            )
            return ShardedRelation._from_shards(self._attributes, self._key, empty)
        partners = self._partner_shards(other)
        left_positions = positions_of(self._attributes, shared)
        right_positions = positions_of(partners[0].attributes, shared)
        tasks = list(zip(self._shards, partners))

        def run(task: Tuple[Relation, Relation]) -> Relation:
            return bucket_semijoin(task[0], task[1], left_positions, right_positions)

        results = tuple(pool_map(pool, run, tasks))
        if all(result is shard for result, shard in zip(results, self._shards)):
            return self
        return ShardedRelation._from_shards(self._attributes, self._key, results)

    def natural_join(
        self, other: Operand, pool: Optional[WorkerPool] = None
    ) -> Operand:
        """Natural join, shard by shard.

        The left shard determines the output shard (left columns survive
        the join), so the result is sharded on this relation's key — except
        for the degenerate no-shared-attribute cartesian case, which merges
        and delegates to the kernel.
        """
        if not shared_attributes(self._attributes, other.attributes):
            if isinstance(other, ShardedRelation):
                other = other.to_relation()
            return self.to_relation().natural_join(other)
        partners = self._partner_shards(other)

        def run(task: Tuple[Relation, Relation]) -> Relation:
            left_shard, right_shard = task
            return left_shard.natural_join(right_shard)

        tasks = list(zip(self._shards, partners))
        results = tuple(pool_map(pool, run, tasks))
        attributes = results[0].attributes
        return ShardedRelation._from_shards(attributes, self._key, results)

    def select_eq(self, conditions: Mapping[str, Any]) -> "ShardedRelation":
        """Per-shard constant selection; the sharding key is preserved."""
        results = tuple(shard.select_eq(conditions) for shard in self._shards)
        return ShardedRelation._from_shards(self._attributes, self._key, results)

    def project(self, attributes: Sequence[str]) -> Operand:
        """Projection.  Key-preserving projections stay sharded; dropping
        any key attribute merges first (cross-shard duplicates collapse)."""
        names = tuple(attributes)
        if set(self._key) <= set(names):
            results = tuple(shard.project(names) for shard in self._shards)
            return ShardedRelation._from_shards(names, self._key, results)
        return self.to_relation().project(names)

    def union(self, other: Operand) -> Operand:
        """Set union; co-partitioned operands combine shard by shard."""
        if isinstance(other, ShardedRelation) and self.co_partitioned_with(other):
            results = tuple(
                left.union(right) for left, right in zip(self._shards, other._shards)
            )
            return ShardedRelation._from_shards(self._attributes, self._key, results)
        merged = other.to_relation() if isinstance(other, ShardedRelation) else other
        return self.to_relation().union(merged)


def shard_relation(
    relation: Relation,
    key: Sequence[str],
    shard_count: int = DEFAULT_SHARD_COUNT,
) -> ShardedRelation:
    """Convenience constructor mirroring the kernel's naming."""
    return ShardedRelation(relation, key, shard_count)
