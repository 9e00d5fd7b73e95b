"""The :class:`Relation` value type: an immutable named-column set of tuples.

This is the substrate every algorithm in the library runs on.  A relation is
a set of rows (Python tuples of hashable values) together with an ordered
tuple of distinct attribute names, one per column.  All operations are
functional: they return new relations and never mutate their inputs, which
keeps the evaluation algorithms (Yannakakis passes, the Theorem 2 bottom-up
merge) easy to reason about and safe to share.

Set semantics are used throughout, matching the paper's model of relational
databases (no duplicate tuples; row order is never part of a relation's
value, only of how its lists are laid out).

Kernel notes (see ``docs/kernel.md`` for the full contract):

* construction goes through an explicit family: :meth:`Relation.from_rows`
  (validated), :meth:`Relation.from_columns` (validated, column-major), and
  the *trusted* :meth:`Relation._from_order` / :meth:`Relation._from_frozen`
  fast paths, which do not validate and through which every algebra
  operation builds its result so rows are checked exactly once;
* a relation holds **two row stores and is born with one, or with its
  columns**: the distinct rows in order (the row constructors — arrival
  order, deduplicated once with ``dict.fromkeys`` — and every filter,
  projection and join, which hold distinct rows by construction), a
  ``frozenset`` (the set algebra, :meth:`Relation._from_frozen`), or, from
  :meth:`Relation.from_columns` of distinct rows, no row at all: every
  value column.  A missing store is derived at most once, on demand (the
  order from the set or the columns, the set from the order): iteration
  and the index builder read the order, ``len`` and the column and key
  builders read whatever is there, and only :attr:`Relation.rows`,
  ``in``, ``==``, ``hash`` and ``union`` / ``difference`` /
  ``intersection`` ever hash a row into a set;
* there is one equality, the one a Python ``set`` of the raw values
  already has (identity, then ``==``: ``1 == True == 1.0`` are one value,
  a NaN object matches only itself).  The row set, the key sets, the
  bucket index and the value sets are all hash tables over raw values, and
  the linear scans use :func:`values_equal`, which spells the same test
  out;
* each relation lazily caches *value columns* — one ``list`` per
  attribute, and one list of keys per join-key position tuple, all
  aligned with one fixed row order — so the kernel ops (semijoin/antijoin
  membership, join probing, projection dedup) are single C-level passes
  over a list instead of per-row tuple indexing.  A filtered child
  (:meth:`Relation._take`) is born with its rows only and derives a
  column from them if somebody reads one — most are never read;
* each relation lazily caches **one** hash index per position tuple
  (:meth:`Relation._index`: key → rows) for the readers of rows, and a
  *key census* (:meth:`Relation._counts`: key → row count) for the counts
  and the planner.  Built from the index, a *value-set index*
  (:meth:`Relation._values`: key → frozenset of the values at one
  position) lets the naive search close a cycle by intersecting sets.
  Relations are immutable, so nothing cached is ever invalidated;
* operations that rename columns without touching rows (``rename``, the
  candidate-relation fast path: :meth:`Relation._renamed`) share the source
  relation's whole cache — row stores included — since everything in it
  is positional and depends on rows only;
* the sharding library (``repro.parallel``, off the engine's route — see
  ``docs/parallel.md``) shards relations by ``hash(key) % count`` through
  :meth:`Relation._partition`, a lazy cache like :meth:`Relation._index`:
  shards are built from the cached index on the key positions and each
  shard is born with that index preseeded;
* all lazy caches — the missing row store is one — are safe to fill from
  concurrent threads (the shared engine behind ``repro.service`` does):
  fills race only on *cold* slots,
  every racer builds an equivalent value from the immutable rows, and the
  publish goes through ``dict.setdefault`` so all callers converge on one
  canonical object (CPython's per-opcode atomicity makes the setdefault
  itself atomic);
* every cache holds plain values, so default slot pickling is right: a
  shipped relation arrives with whichever row store it has and its warm
  columns, key sets and indexes.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
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

    __slots__ = ("_attributes", "_cache")

    # ------------------------------------------------------------------
    # Trusted constructor + lazy caches (the kernel's internal contract)
    # ------------------------------------------------------------------

    @classmethod
    def _over(cls, attributes: Tuple[str, ...], cache: Dict[Any, Any]) -> "Relation":
        """A relation over *cache*, which holds a row store (see below) and
        may be another relation's: positional caches depend on rows only."""
        self = object.__new__(cls)
        self._attributes = attributes
        self._cache = cache
        return self

    @classmethod
    def _from_frozen(
        cls, attributes: Tuple[str, ...], rows: FrozenSet[Row]
    ) -> "Relation":
        """Trusted constructor, born a *set*: no validation, no re-freezing.

        Contract — the caller guarantees that *attributes* is a tuple of
        pairwise-distinct nonempty strings (e.g. taken from an existing
        relation or passed through :func:`check_attribute_names`) and that
        *rows* is a frozenset of tuples whose length equals
        ``len(attributes)``.  Every algebra operation routes its result
        through here or through :meth:`_from_order`, so each row is tupled,
        checked and deduplicated exactly once, at the boundary where it
        first enters the system.
        """
        return cls._over(attributes, {"rows": rows})

    @classmethod
    def _from_order(
        cls, attributes: Tuple[str, ...], order: Tuple[Row, ...]
    ) -> "Relation":
        """Trusted constructor, born *ordered*: like :meth:`_from_frozen`, but
        *order* is a tuple of pairwise-distinct rows — what a filter, a
        ``dict.fromkeys`` dedupe or a join already holds — and no row is
        hashed until someone asks for :attr:`rows`."""
        return cls._over(attributes, {"order": order})

    def _index(self, positions: Tuple[int, ...]) -> IndexBuckets:
        """The cached hash index on *positions* (built on first use).

        Maps each key — ``row[p]`` for a single position, ``tuple(row[p]
        for p in positions)`` otherwise — to the tuple of rows having that
        key.  The empty position tuple indexes everything under ``()``.
        This is the relation's only bucket index: joins probe it with
        :meth:`_keys`, and ``select_eq`` and the naive search read it too;
        a reader of bucket sizes only reads :meth:`_counts`.
        """
        cache_key = ("index", positions)
        found = self._cache.get(cache_key)
        if found is not None:
            return found
        buckets: Dict[Any, List[Row]] = {}
        order = self._row_order()
        keys = map(itemgetter(*positions), order) if positions else repeat(())
        for row, key in zip(order, keys):
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

    def _counts(self, positions: Tuple[int, ...]) -> Counter:
        """The cached key census: :meth:`_index`'s keys, in its order, each
        → its bucket's size; one C-level pass, no bucket built."""
        cache_key = ("counts", positions)
        found = self._cache.get(cache_key)
        if found is None:
            found = self._cache.setdefault(cache_key, Counter(self._keys(positions)))
        return found

    def _values(
        self, positions: Tuple[int, ...], position: int
    ) -> Dict[Any, FrozenSet[Any]]:
        """The cached value-set index: each key of :meth:`_index` on
        *positions* (same convention) → the frozenset of the values at
        *position* in its bucket.  The naive search intersects these to
        bind a variable that several atoms constrain at once."""
        cache_key = ("values", positions, position)
        found = self._cache.get(cache_key)
        if found is None:
            value = itemgetter(position)
            sets = {
                key: frozenset(map(value, bucket))
                for key, bucket in self._index(positions).items()
            }
            # setdefault, like _index: concurrent cold fills converge.
            found = self._cache.setdefault(cache_key, sets)
        return found

    # -- the two row stores, and the value columns ------------------------

    def _row_order(self) -> Tuple[Row, ...]:
        """The rows in one fixed order — arrival order for a relation born
        ordered or as its columns, the set's for one born a set; columns
        align to it."""
        found = self._cache.get("order")
        if found is None:
            cache = self._cache
            rows = cache.get("rows")
            if rows is None:  # born as its columns: zip them, once
                columns = [cache[("col", p)] for p in range(len(self._attributes))]
                # A list first: tuple(zip(...)) resizes its tuple as it
                # grows, and each resize hands the whole tuple back to the
                # young generation for the collector to walk again.
                order = tuple(list(zip(*columns)))
            else:
                order = tuple(rows)
            found = cache.setdefault("order", order)
        return found

    def _born_columns(self, positions: Iterable[int]) -> Optional[List[List[Any]]]:
        """The columns at *positions* while the relation, born as its
        columns, holds no row store — what a reader zips instead of building
        rows; ``None`` once it holds one, or if it was born with one."""
        cache = self._cache
        if "order" in cache or "rows" in cache:
            return None
        return [cache[("col", p)] for p in positions]

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
            columns = self._born_columns(positions)
            if not positions:
                keys = [()] * len(self)
            elif columns is not None:
                keys = list(zip(*columns))
            else:
                keys = list(map(itemgetter(*positions), self._row_order()))
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

    def _adjacency(
        self, positions: Tuple[int, ...], by: Tuple[int, ...]
    ) -> Dict[Any, Tuple[Any, ...]]:
        """Each key on *positions* → the tuple of its rows' keys on *by*
        (:meth:`_keys`' convention, first-arrival order): what the upward
        pass reads to hand a key filter on *by* up on *positions*."""
        cache_key = ("adj", positions, by)
        found = self._cache.get(cache_key)
        if found is None:
            lists: Dict[Any, List[Any]] = {}
            for key, other in zip(self._keys(positions), self._keys(by)):
                others = lists.get(key)
                if others is None:
                    lists[key] = [other]
                else:
                    others.append(other)
            adjacency = {key: tuple(others) for key, others in lists.items()}
            # setdefault, like _index: concurrent cold fills converge.
            found = self._cache.setdefault(cache_key, adjacency)
        return found

    def _probe_mask(self, positions: Tuple[int, ...], live: Any) -> bytes:
        """One byte per row of :meth:`_row_order`: 1 iff the row's key on
        *positions* is in *live* (a set of keys, or a dict keyed by them)."""
        return bytes(map(live.__contains__, self._keys(positions)))

    def _take(self, mask: bytes) -> "Relation":
        """The rows whose *mask* byte is nonzero, over the same attributes:
        one C-level ``itertools.compress`` over :meth:`_row_order`.

        Trusted: *mask* holds one byte per row, aligned with that order.
        The child is born ordered and inherits nothing else — a column of
        it that somebody reads is rebuilt from its own rows, and most are
        never read.
        """
        return Relation._from_order(
            self._attributes, tuple(compress(self._row_order(), mask))
        )

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
        and never invalidated; its key names the attributes, because
        renamed twins share the cache but each shard carries the names of
        the relation it was cut from.
        """
        if count < 1:
            raise ValueError(f"partition count must be >= 1, got {count}")
        cache_key = ("partition", self._attributes, positions, count)
        found = self._cache.get(cache_key)
        if found is not None:
            return found
        routed: List[Dict[Any, Tuple[Row, ...]]] = [{} for _ in range(count)]
        for key, bucket in self._index(positions).items():
            routed[hash(key) % count][key] = bucket
        shards = []
        for shard_buckets in routed:
            shard = Relation._from_order(
                self._attributes, tuple(chain.from_iterable(shard_buckets.values()))
            )
            shard._cache[("index", positions)] = shard_buckets
            shards.append(shard)
        frozen_shards = tuple(shards)
        # setdefault, like _index: concurrent cold fills converge on one
        # canonical shard tuple (first writer wins, later fills discarded).
        return self._cache.setdefault(cache_key, frozen_shards)

    def _renamed(self, attributes: Tuple[str, ...]) -> "Relation":
        """The same rows under *attributes* (trusted, like
        :meth:`_from_frozen`), sharing this relation's whole cache — both
        row stores included, so whichever twin derives one, both have it.
        Cached partitions are keyed by attribute names (:meth:`_partition`),
        so each twin reads only shards under its own.
        """
        return Relation._over(attributes, self._cache)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The ordered tuple of column names."""
        return self._attributes

    @property
    def rows(self) -> FrozenSet[Row]:
        """The set of rows, as a frozenset of tuples.  A relation born
        ordered hashes its rows here, once; iterate the relation (or take
        its ``len``) to read the rows without that."""
        found = self._cache.get("rows")
        if found is None:
            found = self._cache.setdefault("rows", frozenset(self._row_order()))
        return found

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self._attributes)

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self)

    def is_empty(self) -> bool:
        """True iff the relation holds no rows."""
        return not len(self)

    def __len__(self) -> int:
        cache = self._cache
        if "order" in cache:
            return len(cache["order"])
        # Born a set, or as its columns.
        return len(cache["rows"] if "rows" in cache else cache[("col", 0)])

    def __iter__(self) -> Iterator[Row]:
        return iter(self._row_order())

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self.rows

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
            return self.rows == other.rows
        return self.rows == other.project(self._attributes).rows

    def __hash__(self) -> int:
        # Order-insensitive: hash over the canonical column order.
        canonical = tuple(sorted(self._attributes))
        return hash((canonical, self.project(canonical).rows))

    def __repr__(self) -> str:
        preview = sorted(self, key=repr)[:4]
        suffix = ", ..." if len(self) > 4 else ""
        return (
            f"Relation({self._attributes!r}, {len(self)} rows: "
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
        is tupled, checked against the arity, and deduplicated — the
        relation is born ordered, its rows in *arrival* order.  This is the
        public entry point for untrusted data — algebra results use the
        trusted constructors instead.  Tupling, the dedupe
        (``dict.fromkeys``) and the arity check are one C-level pass each;
        the rows are walked only to name an offender.
        """
        names = check_attribute_names(attributes)
        arity = len(names)
        order = tuple(dict.fromkeys(map(tuple, rows)))
        if set(map(len, order)) != {arity}:
            for row in order:
                if len(row) != arity:
                    raise ArityError(
                        f"row {row!r} has arity {len(row)}, expected {arity}"
                    )
        return cls._from_order(names, order)

    @classmethod
    def from_columns(
        cls, attributes: Sequence[str], columns: Sequence[Iterable[Any]]
    ) -> "Relation":
        """The validated column-major constructor: one value sequence per
        attribute, all of equal length, each copied into a list.

        Distinct rows — one pass of row hashes, no row built — make a
        relation born as those lists, which builds its rows only when
        something reads them; a repeated hash (a duplicate, ``1`` /
        ``True``, ``-0.0`` / ``0.0``, a collision) dedupes the zipped rows
        as :meth:`from_rows` does, and the relation is born ordered.  An
        unhashable value raises ``TypeError``.

        ``from_columns((), ())`` is the empty nullary relation (FALSE); the
        nullary TRUE relation has no column-major spelling — use
        :meth:`unit`.
        """
        names = check_attribute_names(attributes)
        materialized = [list(column) for column in columns]
        if len(materialized) != len(names):
            raise SchemaError(
                f"{len(names)} attributes but {len(materialized)} columns"
            )
        lengths = {len(column) for column in materialized}
        if len(lengths) > 1:
            raise ArityError(
                f"columns have unequal lengths {sorted(lengths)}"
            )
        # zip reuses its result tuple while nothing keeps it, so hashing
        # the rows allocates none (and an unhashable cell raises here).
        hashes = set(map(hash, zip(*materialized)))
        if materialized and len(hashes) == len(materialized[0]):
            return cls._over(
                names, {("col", p): column for p, column in enumerate(materialized)}
            )
        # A repeated hash: a duplicate row (1 / True / 1.0, -0.0 / 0.0) or
        # a collision.  The dedupe tells them apart; born ordered.
        return cls._from_order(names, tuple(dict.fromkeys(zip(*materialized))))

    @classmethod
    def unit(cls) -> "Relation":
        """The nullary relation containing the empty tuple (logical TRUE)."""
        return cls._from_order((), ((),))

    @classmethod
    def empty(cls, attributes: Sequence[str] = ()) -> "Relation":
        """An empty relation over *attributes* (logical FALSE when nullary)."""
        return cls._from_order(check_attribute_names(attributes), ())

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
        for row in self._row_order():
            yield dict(zip(names, row))

    def column(self, attribute: str) -> FrozenSet[Any]:
        """The set of values appearing in *attribute*'s column."""
        (pos,) = positions_of(self._attributes, (attribute,))
        return frozenset(map(itemgetter(pos), self._row_order()))

    def active_values(self) -> FrozenSet[Any]:
        """All values appearing anywhere in the relation."""
        columns = self._born_columns(range(self.arity))
        return frozenset(chain.from_iterable(columns or self._row_order()))

    # ------------------------------------------------------------------
    # Unary algebra
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Projection π_attributes, preserving the requested column order.

        Duplicate result rows collapse (set semantics): the distinct keys
        on the kept columns *are* the projected rows, so the dedupe is one
        ``dict.fromkeys`` (the first spelling of each equality class wins)
        over the key list when a join or semijoin already cached it, and
        over the row tuples projected on the fly otherwise.  Projecting
        onto the empty attribute list yields the nullary TRUE/FALSE
        relation depending on whether any row exists.
        """
        names = check_attribute_names(attributes)
        if names == self._attributes:
            return self
        positions = positions_of(self._attributes, names)
        if not positions:
            return Relation._from_order(names, ((),) if len(self) else ())
        single = len(positions) == 1
        keys = self._cache.get(
            ("col", positions[0]) if single else ("key", positions)
        )
        if keys is None:
            keys = map(itemgetter(*positions), self._row_order())
        distinct = dict.fromkeys(keys)
        return Relation._from_order(
            names, tuple(zip(distinct)) if single else tuple(distinct)
        )

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Relation":
        """Selection by an arbitrary row predicate over attribute dicts."""
        names = self._attributes
        kept = tuple(
            row for row in self._row_order() if predicate(dict(zip(names, row)))
        )
        return Relation._from_order(names, kept)

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
                for row in self._row_order()
                if all(values_equal(row[p], v) for p, v in zip(positions, values))
            )
        return Relation._from_order(self._attributes, bucket)

    def select_attr_eq(self, left: str, right: str) -> "Relation":
        """Selection σ_{left = right} between two columns."""
        (lp, rp) = positions_of(self._attributes, (left, right))
        return Relation._from_order(
            self._attributes,
            tuple(row for row in self._row_order() if values_equal(row[lp], row[rp])),
        )

    def select_attr_neq(self, left: str, right: str) -> "Relation":
        """Selection σ_{left ≠ right} between two columns."""
        (lp, rp) = positions_of(self._attributes, (left, right))
        return Relation._from_order(
            self._attributes,
            tuple(
                row for row in self._row_order() if not values_equal(row[lp], row[rp])
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
        # Rows are untouched, so positional caches remain valid — share them.
        return self._renamed(check_attribute_names(new_names))

    def extend(self, attribute: str, fn: Callable[[Dict[str, Any]], Any]) -> "Relation":
        """Append a computed column named *attribute* with value ``fn(row)``.

        Used by the Theorem 2 algorithms to add hashed shadow attributes
        (``t[x'] = h(t[x])`` in the paper's notation).
        """
        if attribute in self._attributes:
            raise SchemaError(f"attribute {attribute!r} already present")
        names = check_attribute_names(self._attributes + (attribute,))
        old = self._attributes
        return Relation._from_order(
            names,
            tuple(row + (fn(dict(zip(old, row))),) for row in self._row_order()),
        )

    def _extend_positional(
        self, attribute: str, position: int, fn: Callable[[Any], Any]
    ) -> "Relation":
        """Append column *attribute* = ``fn(row[position])`` (positional fast
        path for single-source computed columns; no per-row dicts)."""
        if attribute in self._attributes:
            raise SchemaError(f"attribute {attribute!r} already present")
        names = check_attribute_names(self._attributes + (attribute,))
        return Relation._from_order(
            names, tuple(row + (fn(row[position]),) for row in self._row_order())
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
        if aligned.is_empty():
            return self
        if self.is_empty():
            return aligned
        return Relation._from_frozen(self._attributes, self.rows | aligned.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; schemas must agree as attribute sets."""
        aligned = self._check_union_compatible(other)
        if aligned.is_empty():
            return self
        return Relation._from_frozen(self._attributes, self.rows - aligned.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; schemas must agree as attribute sets."""
        aligned = self._check_union_compatible(other)
        return Relation._from_frozen(self._attributes, self.rows & aligned.rows)

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
        return Relation._from_order(self_attrs + extra, tuple(out))

    def _cartesian_product(self, other: "Relation") -> "Relation":
        overlap = set(self._attributes) & set(other._attributes)
        if overlap:
            raise SchemaError(f"product requires disjoint schemas; shared: {overlap}")
        names = check_attribute_names(self._attributes + other._attributes)
        right = other._row_order()
        return Relation._from_order(
            names, tuple(a + b for a in self._row_order() for b in right)
        )

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ``self ⋉ other``: rows of self that join with some row of other.

        The schema of the result equals self's schema.  With no shared
        attributes the semijoin keeps everything iff *other* is nonempty.

        Membership is a probe of *other*'s cached key set with this
        relation's cached key list, mapped at C level into a
        one-byte-per-row mask.  When nothing is filtered, ``self`` is
        returned unchanged so its caches stay live.
        """
        mask = self._match_mask(other)
        if mask is None:
            return self if len(other) else Relation._from_order(self._attributes, ())
        if 0 not in mask:
            return self
        return self._take(mask)

    def antijoin(self, other: "Relation") -> "Relation":
        """Antijoin ``self ▷ other``: rows of self that join with no row of other."""
        mask = self._match_mask(other)
        if mask is None:
            return Relation._from_order(self._attributes, ()) if len(other) else self
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
        return self._probe_mask(
            positions_of(self._attributes, shared),
            other._key_set(positions_of(other._attributes, shared)),
        )
