"""The :class:`Relation` value type: an immutable named-column set of tuples.

This is the substrate every algorithm in the library runs on.  A relation is
a set of rows (Python tuples of hashable values) together with an ordered
tuple of distinct attribute names, one per column.  All operations are
functional: they return new relations and never mutate their inputs, which
keeps the evaluation algorithms (Yannakakis passes, the Theorem 2 bottom-up
merge) easy to reason about and safe to share.

Set semantics are used throughout, matching the paper's model of relational
databases (no duplicate tuples, no ordering).

Kernel notes (see ``docs/kernel.md`` for the full contract):

* construction goes through an explicit family: :meth:`Relation.from_rows`
  (validated), :meth:`Relation.from_columns` (validated, column-major), and
  the *trusted* :meth:`Relation._from_frozen` fast path, which does not
  validate and through which every algebra operation builds its result so
  rows are frozen and validated exactly once;
* there is one equality, the one a Python ``set`` of the raw values
  already has (identity, then ``==``: ``1 == True == 1.0`` are one value,
  a NaN object matches only itself).  The row set, the key sets and the
  bucket index are all hash tables over raw values, and the linear scans
  use :func:`values_equal`, which spells the same test out;
* each relation lazily caches *value columns* — one ``list`` per
  attribute, and one list of keys per join-key position tuple, all
  aligned with one fixed row order — so the kernel ops (semijoin/antijoin
  membership, join probing, projection dedup) are single C-level passes
  over a list instead of per-row tuple indexing.  Operations that filter
  rows (semijoin, antijoin) hand their result the selected slices, so
  derived relations never rebuild them;
* each relation lazily caches **one** hash index per position tuple
  (:meth:`Relation._index`: key → rows).  Joins, ``select_eq``, the naive
  search, the counting fold and the planner's distinct counts all read
  it.  Relations are immutable, so nothing cached is ever invalidated;
* operations that permute or rename columns without touching rows
  (``rename``, and the candidate-relation fast path) share the source
  relation's whole cache, since positional caches only depend on rows;
* the sharding library (``repro.parallel``, off the engine's route — see
  ``docs/parallel.md``) shards relations by ``hash(key) % count`` through
  :meth:`Relation._partition`, a lazy cache like :meth:`Relation._index`:
  shards are built from the cached index on the key positions and each
  shard is born with that index preseeded;
* all lazy caches are safe to fill from concurrent threads (the shared
  engine behind ``repro.service`` does): fills race only on *cold* slots,
  every racer builds an equivalent value from the immutable rows, and the
  publish goes through ``dict.setdefault`` so all callers converge on one
  canonical object (CPython's per-opcode atomicity makes the setdefault
  itself atomic);
* every cache holds plain values, so default slot pickling is right: a
  shipped relation arrives with its warm columns, key sets and indexes.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ArityError, SchemaError
from .attributes import check_attribute_names, positions_of

Row = Tuple[Any, ...]

#: positions → (key → tuple of rows).  Keys are raw values for
#: single-position indexes and tuples of values otherwise.
IndexBuckets = Dict[Any, Tuple[Row, ...]]

_EMPTY_ROWSET: FrozenSet[Row] = frozenset()

#: ``mask.translate(_FLIP_MASK)`` swaps the 0 and 1 bytes of a row mask.
_FLIP_MASK = bytes([1, 0]) + bytes(range(2, 256))


def values_equal(left: Any, right: Any) -> bool:
    """Value equality as dict/frozenset membership defines it.

    Identity first, then ``==`` — the containment test Python's hash
    tables use, and therefore exactly when two values are one key of a
    relation's index or one element of its key set.  Every linear-scan
    comparison in the kernel and the evaluators must use this instead of
    bare ``==``/``!=``: the two differ only on non-reflexive values (NaN
    compares ``!=`` to itself, but a dict key matches itself by identity),
    and bare ``==`` there silently drops rows the hashed fast paths keep.
    """
    return left is right or left == right


class Relation:
    """An immutable relation with named columns and set-of-tuples contents.

    Build relations through the explicit constructor family:
    :meth:`from_rows` (row-major, validated), :meth:`from_columns`
    (column-major, validated), :meth:`from_dicts`, :meth:`unit`,
    :meth:`empty`, or — for trusted pre-frozen data — :meth:`_from_frozen`.

    Examples
    --------
    >>> r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3)])
    >>> r.project(("a",)).rows
    frozenset({(1,)})
    """

    __slots__ = ("_attributes", "_rows", "_cache", "_partitions")

    # ------------------------------------------------------------------
    # Trusted constructor + lazy caches (the kernel's internal contract)
    # ------------------------------------------------------------------

    @classmethod
    def _from_frozen(
        cls, attributes: Tuple[str, ...], rows: FrozenSet[Row]
    ) -> "Relation":
        """Trusted constructor: no validation, no re-freezing.

        Contract — the caller guarantees that *attributes* is a tuple of
        pairwise-distinct nonempty strings (e.g. taken from an existing
        relation or passed through :func:`check_attribute_names`) and that
        *rows* is a frozenset of tuples whose length equals
        ``len(attributes)``.  Every algebra operation routes its result
        through here so each row is tupled, checked and frozen exactly once,
        at the boundary where it first enters the system.
        """
        self = object.__new__(cls)
        self._attributes = attributes
        self._rows = rows
        self._cache = {}
        self._partitions = {}
        return self

    def _index(self, positions: Tuple[int, ...]) -> IndexBuckets:
        """The cached hash index on *positions* (built on first use).

        Maps each key — ``row[p]`` for a single position, ``tuple(row[p]
        for p in positions)`` otherwise — to the tuple of rows having that
        key.  The empty position tuple indexes everything under ``()``.
        This is the relation's only bucket index: joins probe it with
        :meth:`_keys`, and ``select_eq``, the naive search, the counting
        fold and the planner read it too.
        """
        cache_key = ("index", positions)
        found = self._cache.get(cache_key)
        if found is not None:
            return found
        buckets: Dict[Any, List[Row]] = {}
        if len(positions) == 1:
            (p,) = positions
            for row in self._rows:
                key = row[p]
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [row]
                else:
                    bucket.append(row)
        elif not positions:
            if self._rows:
                buckets[()] = list(self._rows)
        else:
            getter = itemgetter(*positions)
            for row in self._rows:
                key = getter(row)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [row]
                else:
                    bucket.append(row)
        frozen_buckets: IndexBuckets = {k: tuple(v) for k, v in buckets.items()}
        # Publish with setdefault: two threads filling the same cold slot
        # concurrently (the shared-engine service does this) both built the
        # same buckets, and every caller must agree on ONE canonical object
        # so downstream identity checks and shard preseeds stay consistent.
        return self._cache.setdefault(cache_key, frozen_buckets)

    # -- value columns --------------------------------------------------

    def _row_order(self) -> Tuple[Row, ...]:
        """The rows in one fixed (arbitrary) order; columns align to it."""
        found = self._cache.get("order")
        if found is None:
            found = self._cache.setdefault("order", tuple(self._rows))
        return found

    def _column(self, position: int) -> List[Any]:
        """Raw values of column *position*, aligned with :meth:`_row_order`."""
        cache_key = ("col", position)
        found = self._cache.get(cache_key)
        if found is None:
            column = list(map(itemgetter(position), self._row_order()))
            found = self._cache.setdefault(cache_key, column)
        return found

    def _keys(self, positions: Tuple[int, ...]) -> List[Any]:
        """Per-row join keys on *positions* in :meth:`_index`'s convention
        (the raw value for a single position, the value tuple otherwise,
        ``()`` for none), aligned with :meth:`_row_order`."""
        if len(positions) == 1:
            return self._column(positions[0])
        cache_key = ("key", positions)
        found = self._cache.get(cache_key)
        if found is None:
            if positions:
                keys = list(map(itemgetter(*positions), self._row_order()))
            else:
                keys = [()] * len(self._rows)
            found = self._cache.setdefault(cache_key, keys)
        return found

    def _key_set(self, positions: Tuple[int, ...]) -> frozenset:
        """The distinct keys on *positions* (semijoin build side)."""
        cache_key = ("keyset", positions)
        found = self._cache.get(cache_key)
        if found is None:
            found = self._cache.setdefault(
                cache_key, frozenset(self._keys(positions))
            )
        return found

    def _take(self, mask: bytes) -> "Relation":
        """The rows whose *mask* byte is nonzero, over the same attributes,
        inheriting the selected slice of every cached column so the child
        never rebuilds what this relation already paid for.

        Trusted: *mask* holds one byte per row, aligned with
        :meth:`_row_order`.  Rows and every cached column go through one
        C-level ``itertools.compress`` each.
        """
        kept = tuple(compress(self._row_order(), mask))
        child = Relation._from_frozen(self._attributes, frozenset(kept))
        child._cache["order"] = kept
        for cache_key, column in list(self._cache.items()):
            if type(cache_key) is tuple and cache_key[0] in ("col", "key"):
                child._cache[cache_key] = list(compress(column, mask))
        return child

    def _partition(
        self, positions: Tuple[int, ...], count: int
    ) -> Tuple["Relation", ...]:
        """Hash-partition into *count* shards by the key on *positions*.

        Shard ``s`` holds the rows whose key (in :meth:`_index`'s
        convention) satisfies ``hash(key) % count == s``.  Built from the
        cached index on *positions* — whole buckets are routed, so every
        key lands in exactly one shard.  Equal keys hash equal, so two
        relations partitioned on join-compatible keys with equal *count*
        are co-partitioned — matching keys meet in the same shard index —
        wherever both are partitioned **in one process** (``str`` hashes
        are salted per process); every driver in ``parallel/ops.py``
        partitions both operands itself before shipping shard pairs.  Each
        shard is a full :class:`Relation` over the same attributes,
        created with its index on *positions* preseeded from the routed
        buckets (sharding never pays the index build twice).  Like
        :meth:`_index`, the result is cached for the relation's lifetime
        and never invalidated.
        """
        if count < 1:
            raise ValueError(f"partition count must be >= 1, got {count}")
        cache_key = (positions, count)
        found = self._partitions.get(cache_key)
        if found is not None:
            return found
        routed: List[Dict[Any, Tuple[Row, ...]]] = [{} for _ in range(count)]
        for key, bucket in self._index(positions).items():
            routed[hash(key) % count][key] = bucket
        shards = []
        for shard_buckets in routed:
            rows = frozenset(
                row for bucket in shard_buckets.values() for row in bucket
            )
            shard = Relation._from_frozen(self._attributes, rows)
            shard._cache[("index", positions)] = shard_buckets
            shards.append(shard)
        frozen_shards = tuple(shards)
        # setdefault, like _index: concurrent cold fills converge on one
        # canonical shard tuple (first writer wins, later fills discarded).
        return self._partitions.setdefault(cache_key, frozen_shards)

    @staticmethod
    def _key_getter(positions: Tuple[int, ...]) -> Callable[[Row], Any]:
        """Row → index key, matching :meth:`_index`'s key convention."""
        if len(positions) == 1:
            (p,) = positions
            return lambda row: row[p]
        if not positions:
            return lambda row: ()
        return itemgetter(*positions)

    def _share_indexes_with(self, other: "Relation") -> "Relation":
        """Share *other*'s whole cache (caller guarantees identical rows).

        The partition cache is *not* shared: cached shards are Relations
        carrying their source's attribute names, which a rename-shaped twin
        must not inherit.  Indexes and value columns are positional and
        only depend on rows, so they transfer.
        """
        self._cache = other._cache
        return self

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The ordered tuple of column names."""
        return self._attributes

    @property
    def rows(self) -> FrozenSet[Row]:
        """The set of rows, as a frozenset of tuples."""
        return self._rows

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self._attributes)

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self._rows)

    def is_empty(self) -> bool:
        """True iff the relation holds no rows."""
        return not self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        """Equality is schema-sensitive but column-order-insensitive.

        Two relations are equal when they have the same attribute *set* and,
        after aligning column order, the same rows.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self._attributes) != set(other._attributes):
            return False
        if self._attributes == other._attributes:
            return self._rows == other._rows
        aligned = other.project(self._attributes)
        return self._rows == aligned._rows

    def __hash__(self) -> int:
        # Order-insensitive: hash over the canonical column order.
        canonical = tuple(sorted(self._attributes))
        if canonical == self._attributes:
            rows = self._rows
        else:
            rows = self.project(canonical)._rows
        return hash((canonical, rows))

    def __repr__(self) -> str:
        preview = sorted(self._rows, key=repr)[:4]
        suffix = ", ..." if len(self._rows) > 4 else ""
        return (
            f"Relation({self._attributes!r}, {len(self._rows)} rows: "
            f"{preview!r}{suffix})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Iterable[Row] = ()
    ) -> "Relation":
        """The validated row-major constructor.

        *attributes* are checked to be distinct nonempty strings; every row
        is tupled, checked against the arity, and frozen.  This is the
        public entry point for untrusted data — algebra results use the
        trusted :meth:`_from_frozen` fast path instead.  Tupling, freezing
        and the arity check are one C-level pass each; the rows are walked
        only to name an offender.
        """
        names = check_attribute_names(attributes)
        arity = len(names)
        frozen = frozenset(map(tuple, rows))
        if set(map(len, frozen)) != {arity}:
            for row in frozen:
                if len(row) != arity:
                    raise ArityError(
                        f"row {row!r} has arity {len(row)}, expected {arity}"
                    )
        return cls._from_frozen(names, frozen)

    @classmethod
    def from_columns(
        cls, attributes: Sequence[str], columns: Sequence[Iterable[Any]]
    ) -> "Relation":
        """The validated column-major constructor: one value sequence per
        attribute, all of equal length.

        ``from_columns((), ())`` is the empty nullary relation (FALSE); the
        nullary TRUE relation has no column-major spelling — use
        :meth:`unit`.
        """
        names = check_attribute_names(attributes)
        materialized = [tuple(column) for column in columns]
        if len(materialized) != len(names):
            raise SchemaError(
                f"{len(names)} attributes but {len(materialized)} columns"
            )
        lengths = {len(column) for column in materialized}
        if len(lengths) > 1:
            raise ArityError(
                f"columns have unequal lengths {sorted(lengths)}"
            )
        if not materialized:
            return cls._from_frozen(names, _EMPTY_ROWSET)
        return cls._from_frozen(names, frozenset(zip(*materialized)))

    @classmethod
    def unit(cls) -> "Relation":
        """The nullary relation containing the empty tuple (logical TRUE)."""
        return cls._from_frozen((), frozenset([()]))

    @classmethod
    def empty(cls, attributes: Sequence[str] = ()) -> "Relation":
        """An empty relation over *attributes* (logical FALSE when nullary)."""
        return cls._from_frozen(check_attribute_names(attributes), _EMPTY_ROWSET)

    @classmethod
    def from_dicts(
        cls, attributes: Sequence[str], dicts: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from mappings ``attribute -> value``."""
        names = tuple(attributes)
        return cls.from_rows(names, (tuple(d[a] for a in names) for d in dicts))

    # ------------------------------------------------------------------
    # Row views
    # ------------------------------------------------------------------

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """Yield each row as an ``attribute -> value`` dict."""
        names = self._attributes
        for row in self._rows:
            yield dict(zip(names, row))

    def column(self, attribute: str) -> FrozenSet[Any]:
        """The set of values appearing in *attribute*'s column."""
        (pos,) = positions_of(self._attributes, (attribute,))
        return frozenset(row[pos] for row in self._rows)

    def active_values(self) -> FrozenSet[Any]:
        """All values appearing anywhere in the relation."""
        return frozenset(v for row in self._rows for v in row)

    # ------------------------------------------------------------------
    # Unary algebra
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Projection π_attributes, preserving the requested column order.

        Duplicate result rows collapse (set semantics).  When the key
        list on the kept columns is already cached the dedupe is one
        ``dict.fromkeys`` over it; otherwise the row tuples are projected
        directly instead of paying to build a list first.  Projecting
        onto the empty attribute list yields the nullary TRUE/FALSE
        relation depending on whether any row exists.
        """
        names = check_attribute_names(attributes)
        if names == self._attributes:
            return self
        positions = positions_of(self._attributes, names)
        if not positions:
            projected = frozenset([()]) if self._rows else _EMPTY_ROWSET
            return Relation._from_frozen(names, projected)
        single = len(positions) == 1
        keys = self._cache.get(
            ("col", positions[0]) if single else ("key", positions)
        )
        if keys is not None:
            # The key list on these columns exists (inherited, or a
            # join/semijoin built it): its distinct keys *are* the projected
            # rows, so per-row work is one C-level dict insert (the first
            # spelling of each equality class wins) and no tuple is rebuilt.
            distinct = dict.fromkeys(keys)
            projected_rows = tuple(zip(distinct)) if single else tuple(distinct)
            out = Relation._from_frozen(names, frozenset(projected_rows))
            out._cache["order"] = projected_rows
            return out
        # No list to reuse: let frozenset dedupe the projected tuples
        # directly (same value equality, same set semantics).
        if single:
            projected = frozenset(zip(map(itemgetter(positions[0]), self._rows)))
        else:
            projected = frozenset(map(itemgetter(*positions), self._rows))
        return Relation._from_frozen(names, projected)

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Relation":
        """Selection by an arbitrary row predicate over attribute dicts."""
        names = self._attributes
        kept = frozenset(
            row for row in self._rows if predicate(dict(zip(names, row)))
        )
        return Relation._from_frozen(names, kept)

    def select_eq(self, conditions: Mapping[str, Any]) -> "Relation":
        """Selection σ_{a=c, ...}: keep rows matching every constant condition.

        Probes the relation's cached index on the condition columns, so
        repeated point selections on the same columns are O(result) after
        the first call.
        """
        positions = positions_of(self._attributes, tuple(conditions))
        if len(positions) == 1:
            key: Any = next(iter(conditions.values()))
        else:
            key = tuple(conditions.values())
        try:
            bucket = self._index(positions).get(key, ())
        except TypeError:
            # Unhashable condition value: fall back to the linear scan so
            # exotic equality (a hashable object equal to an unhashable one)
            # behaves exactly as the pre-index kernel did.
            values = tuple(conditions.values())
            bucket = tuple(
                row
                for row in self._rows
                if all(values_equal(row[p], v) for p, v in zip(positions, values))
            )
        return Relation._from_frozen(self._attributes, frozenset(bucket))

    def select_attr_eq(self, left: str, right: str) -> "Relation":
        """Selection σ_{left = right} between two columns."""
        (lp, rp) = positions_of(self._attributes, (left, right))
        return Relation._from_frozen(
            self._attributes,
            frozenset(row for row in self._rows if values_equal(row[lp], row[rp])),
        )

    def select_attr_neq(self, left: str, right: str) -> "Relation":
        """Selection σ_{left ≠ right} between two columns."""
        (lp, rp) = positions_of(self._attributes, (left, right))
        return Relation._from_frozen(
            self._attributes,
            frozenset(
                row for row in self._rows if not values_equal(row[lp], row[rp])
            ),
        )

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; names absent from *mapping* are kept.

        Raises :class:`SchemaError` if the renaming would create duplicate
        column names.
        """
        new_names = tuple(mapping.get(a, a) for a in self._attributes)
        if new_names == self._attributes:
            return self
        if len(set(new_names)) != len(new_names):
            raise SchemaError(f"rename produces duplicate attributes: {new_names}")
        out = Relation._from_frozen(check_attribute_names(new_names), self._rows)
        # Rows are untouched, so positional caches remain valid — share them.
        return out._share_indexes_with(self)

    def extend(self, attribute: str, fn: Callable[[Dict[str, Any]], Any]) -> "Relation":
        """Append a computed column named *attribute* with value ``fn(row)``.

        Used by the Theorem 2 algorithms to add hashed shadow attributes
        (``t[x'] = h(t[x])`` in the paper's notation).
        """
        if attribute in self._attributes:
            raise SchemaError(f"attribute {attribute!r} already present")
        names = check_attribute_names(self._attributes + (attribute,))
        old = self._attributes
        return Relation._from_frozen(
            names,
            frozenset(row + (fn(dict(zip(old, row))),) for row in self._rows),
        )

    def _extend_positional(
        self, attribute: str, position: int, fn: Callable[[Any], Any]
    ) -> "Relation":
        """Append column *attribute* = ``fn(row[position])`` (positional fast
        path for single-source computed columns; no per-row dicts)."""
        if attribute in self._attributes:
            raise SchemaError(f"attribute {attribute!r} already present")
        names = check_attribute_names(self._attributes + (attribute,))
        return Relation._from_frozen(
            names, frozenset(row + (fn(row[position]),) for row in self._rows)
        )

    # ------------------------------------------------------------------
    # Binary algebra
    # ------------------------------------------------------------------

    def _check_union_compatible(self, other: "Relation") -> "Relation":
        if set(self._attributes) != set(other._attributes):
            raise SchemaError(
                f"incompatible schemas {self._attributes} vs {other._attributes}"
            )
        if self._attributes != other._attributes:
            return other.project(self._attributes)
        return other

    def union(self, other: "Relation") -> "Relation":
        """Set union; schemas must agree as attribute sets."""
        aligned = self._check_union_compatible(other)
        if not aligned._rows:
            return self
        if not self._rows:
            return aligned
        return Relation._from_frozen(self._attributes, self._rows | aligned._rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; schemas must agree as attribute sets."""
        aligned = self._check_union_compatible(other)
        if not aligned._rows:
            return self
        return Relation._from_frozen(self._attributes, self._rows - aligned._rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; schemas must agree as attribute sets."""
        aligned = self._check_union_compatible(other)
        return Relation._from_frozen(self._attributes, self._rows & aligned._rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on all shared attribute names (hash join).

        The result's columns are ``self``'s attributes followed by ``other``'s
        non-shared attributes.  With no shared attributes this degenerates to
        the Cartesian product; with identical schemas, to intersection.

        Probing uses *other*'s cached index on the shared positions, so
        repeated joins against the same relation build its hash table once.
        """
        other_set = set(other._attributes)
        shared = tuple(a for a in self._attributes if a in other_set)
        if not shared:
            return self._cartesian_product(other)
        if other_set <= set(self._attributes) and set(
            self._attributes
        ) <= other_set:
            return self.intersection(other)
        return self._join_keep(other, other._attributes)

    def _join_keep(
        self, other: "Relation", other_keep: Sequence[str]
    ) -> "Relation":
        """Fused join-project: ``self ⋈ π_{other_keep}(other)`` in one pass.

        *other_keep* must be a subset of *other*'s attributes containing all
        attributes shared with ``self``.  The projection of *other* is never
        materialized: build-side suffixes are extracted (and deduplicated)
        straight into hash buckets keyed by join key, so wide build-side
        intermediates never exist.  This is the kernel behind
        the Yannakakis upward pass and the Theorem 2 bottom-up merges.
        """
        self_attrs = self._attributes
        self_set = set(self_attrs)
        shared = tuple(a for a in self_attrs if a in set(other_keep))
        extra = tuple(a for a in other_keep if a not in self_set)
        if not shared:
            # Degenerate: no join columns survive the projection.
            return self.natural_join(other.project(tuple(other_keep)))
        left_pos = positions_of(self_attrs, shared)
        right_pos = positions_of(other._attributes, shared)

        if tuple(other_keep) == other._attributes:
            # Plain natural join: probe other's cached index.
            extra_pos = positions_of(other._attributes, extra)
            buckets = other._index(right_pos)
            if len(extra_pos) == 1:
                (ep,) = extra_pos
                suffix_of = lambda row: (row[ep],)  # noqa: E731
            elif not extra_pos:
                suffix_of = lambda row: ()  # noqa: E731
            else:
                suffix_of = itemgetter(*extra_pos)
        else:
            # True fusion: bucket deduplicated kept suffixes, not full rows.
            extra_pos = positions_of(other._attributes, extra)
            if len(extra_pos) == 1:
                (ep,) = extra_pos
                raw_suffix = lambda row: (row[ep],)  # noqa: E731
            elif not extra_pos:
                raw_suffix = lambda row: ()  # noqa: E731
            else:
                raw_suffix = itemgetter(*extra_pos)
            grouped: Dict[Any, set] = {}
            for row, key in zip(other._row_order(), other._keys(right_pos)):
                group = grouped.get(key)
                if group is None:
                    grouped[key] = {raw_suffix(row)}
                else:
                    group.add(raw_suffix(row))
            buckets = {key: tuple(group) for key, group in grouped.items()}
            suffix_of = lambda suffix: suffix  # noqa: E731

        out: List[Row] = []
        append = out.append
        for row, key in zip(self._row_order(), self._keys(left_pos)):
            bucket = buckets.get(key)
            if bucket:
                for item in bucket:
                    append(row + suffix_of(item))
        return Relation._from_frozen(self_attrs + extra, frozenset(out))

    def _cartesian_product(self, other: "Relation") -> "Relation":
        overlap = set(self._attributes) & set(other._attributes)
        if overlap:
            raise SchemaError(f"product requires disjoint schemas; shared: {overlap}")
        names = check_attribute_names(self._attributes + other._attributes)
        rows = frozenset(a + b for a in self._rows for b in other._rows)
        return Relation._from_frozen(names, rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ``self ⋉ other``: rows of self that join with some row of other.

        The schema of the result equals self's schema.  With no shared
        attributes the semijoin keeps everything iff *other* is nonempty.

        Membership is a probe of *other*'s cached key set with this
        relation's cached key list, mapped at C level into a
        one-byte-per-row mask.  When nothing is filtered, ``self`` is
        returned unchanged so its caches stay live; otherwise the result
        inherits the selected slice of every cached column.
        """
        mask = self._match_mask(other)
        if mask is None:
            if other._rows:
                return self
            return Relation._from_frozen(self._attributes, _EMPTY_ROWSET)
        if 0 not in mask:
            return self
        return self._take(mask)

    def antijoin(self, other: "Relation") -> "Relation":
        """Antijoin ``self ▷ other``: rows of self that join with no row of other."""
        mask = self._match_mask(other)
        if mask is None:
            if other._rows:
                return Relation._from_frozen(self._attributes, _EMPTY_ROWSET)
            return self
        if 1 not in mask:
            return self
        return self._take(mask.translate(_FLIP_MASK))

    def _match_mask(self, other: "Relation") -> Optional[bytes]:
        """One byte per row of :meth:`_row_order`: 1 iff the row's key on
        the attributes shared with *other* occurs in *other*.  ``None``
        when the two share no attribute."""
        other_set = set(other._attributes)
        shared = tuple(a for a in self._attributes if a in other_set)
        if not shared:
            return None
        right_keys = other._key_set(positions_of(other._attributes, shared))
        keys = self._keys(positions_of(self._attributes, shared))
        return bytes(map(right_keys.__contains__, keys))
