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
  rows are frozen and validated exactly once.  The legacy positional
  ``Relation(attributes, rows)`` form still works but warns
  ``DeprecationWarning``;
* the backing store is columnar: each relation lazily dictionary-encodes
  its columns against the process-wide value pool (``relational.columns``)
  into one code array per attribute.  Code equality is value equality
  across all relations, so the kernel ops — semijoin/antijoin membership,
  join bucketing, projection dedup, partition routing — run over small-int
  code arrays instead of re-hashing row values.  Operations that filter or
  slice rows (semijoin, projection) hand their result the selected code
  arrays, so derived relations never pay the encoding again;
* each relation also lazily caches value-keyed hash indexes (column
  positions → key → rows) in :meth:`Relation._index`; ``select_eq`` and the
  explicit index views probe these.  Relations are immutable, so cached
  indexes and code columns are never invalidated;
* operations that permute or rename columns without touching rows
  (``rename``, and the candidate-relation fast path) share the source
  relation's index and column caches, since positional caches only depend
  on rows;
* the sharding library (``repro.parallel``, off the engine's route — see
  ``docs/parallel.md``) shards relations by
  join-key *code* through :meth:`Relation._partition`, a lazy cache exactly
  like :meth:`Relation._index`: shards are built from the cached index on
  the key positions, each shard is born with that index preseeded, and —
  relations being immutable — a cached partition is never invalidated.
  Routing by pool code (``key_code % count``) keeps join-compatible
  relations co-partitioned, because codes are global to the process;
* all lazy caches are safe to fill from concurrent threads (the shared
  engine behind ``repro.service`` does): fills race only on *cold* slots,
  every racer builds an equivalent value from the immutable rows, and the
  publish goes through ``dict.setdefault`` so all callers converge on one
  canonical object (CPython's per-opcode atomicity makes the setdefault
  itself atomic);
* pickling drops the columnar caches: pool codes are meaningless in
  another process (each process grows its own pools), so a shipped
  relation re-encodes lazily on the receiving side.  Value-keyed index
  and partition caches travel, exactly as before.
"""

from __future__ import annotations

import warnings
from array import array
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
from .columns import CODE_TYPECODE, KEYS, VALUES, values_equal

Row = Tuple[Any, ...]

#: positions → (key → tuple of rows).  Keys are raw values for
#: single-position indexes and tuples of values otherwise.
IndexBuckets = Dict[Any, Tuple[Row, ...]]

_EMPTY_ROWSET: FrozenSet[Row] = frozenset()

#: ``mask.translate(_FLIP_MASK)`` swaps the 0 and 1 bytes of a row mask.
_FLIP_MASK = bytes([1, 0]) + bytes(range(2, 256))

_DEPRECATED_INIT = (
    "positional Relation(attributes, rows) construction is deprecated; use "
    "Relation.from_rows(...) / Relation.from_columns(...) (or the trusted "
    "Relation._from_frozen fast path for pre-validated frozensets)"
)


class Relation:
    """An immutable relation with named columns and set-of-tuples contents.

    Build relations through the explicit constructor family:
    :meth:`from_rows` (row-major, validated), :meth:`from_columns`
    (column-major, validated), :meth:`from_dicts`, :meth:`unit`,
    :meth:`empty`, or — for trusted pre-frozen data — :meth:`_from_frozen`.
    The legacy positional form ``Relation(attributes, rows)`` still works
    but emits :class:`DeprecationWarning`.

    Examples
    --------
    >>> r = Relation.from_rows(("a", "b"), [(1, 2), (1, 3)])
    >>> r.project(("a",)).rows
    frozenset({(1,)})
    """

    __slots__ = ("_attributes", "_rows", "_indexes", "_partitions", "_columnar")

    def __init__(self, attributes: Sequence[str], rows: Iterable[Row] = ()) -> None:
        warnings.warn(_DEPRECATED_INIT, DeprecationWarning, stacklevel=2)
        validated = Relation.from_rows(attributes, rows)
        self._attributes = validated._attributes
        self._rows = validated._rows
        self._indexes = {}
        self._partitions = {}
        self._columnar = {}

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
        self._indexes = {}
        self._partitions = {}
        self._columnar = {}
        return self

    def __getstate__(self):
        # The columnar caches hold process-local pool codes; they must not
        # cross a pickle boundary (a worker process has different pools).
        # Value-keyed index/partition caches remain valid anywhere.
        return (self._attributes, self._rows, self._indexes, self._partitions)

    def __setstate__(self, state) -> None:
        self._attributes, self._rows, self._indexes, self._partitions = state
        self._columnar = {}

    def _index(self, positions: Tuple[int, ...]) -> IndexBuckets:
        """The cached hash index on *positions* (built on first use).

        Maps each key — ``row[p]`` for a single position, ``tuple(row[p]
        for p in positions)`` otherwise — to the tuple of rows having that
        key.  The empty position tuple indexes everything under ``()``.
        Relations are immutable, so the cache is never invalidated.
        """
        found = self._indexes.get(positions)
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
        return self._indexes.setdefault(positions, frozen_buckets)

    # -- columnar store -------------------------------------------------

    def _row_order(self) -> Tuple[Row, ...]:
        """The rows in one fixed (arbitrary) order; code arrays align to it."""
        found = self._columnar.get("order")
        if found is None:
            found = self._columnar.setdefault("order", tuple(self._rows))
        return found

    def _code_column(self, position: int) -> array:
        """Pool codes of column *position*, aligned with :meth:`_row_order`."""
        key = ("col", position)
        found = self._columnar.get(key)
        if found is None:
            order = self._row_order()
            column = VALUES.encode_column([row[position] for row in order])
            found = self._columnar.setdefault(key, column)
        return found

    def _key_codes(self, positions: Tuple[int, ...]) -> array:
        """Per-row join-key codes on *positions* (value code for a single
        position, composite KEYS code otherwise), aligned with
        :meth:`_row_order`.  Codes are process-global: equal keys get equal
        codes in every relation."""
        if len(positions) == 1:
            return self._code_column(positions[0])
        key = ("key", positions)
        found = self._columnar.get(key)
        if found is None:
            if positions:
                columns = [self._code_column(p) for p in positions]
                found = KEYS.encode_column(list(zip(*columns)))
            else:
                unit_code = KEYS.encode(())
                found = array(CODE_TYPECODE, [unit_code]) * len(self._rows)
            found = self._columnar.setdefault(key, found)
        return found

    def _key_code_set(self, positions: Tuple[int, ...]) -> frozenset:
        """The distinct key codes on *positions* (semijoin build side)."""
        key = ("keyset", positions)
        found = self._columnar.get(key)
        if found is None:
            found = self._columnar.setdefault(
                key, frozenset(self._key_codes(positions))
            )
        return found

    def _code_buckets(self, positions: Tuple[int, ...]) -> Dict[int, Tuple[Row, ...]]:
        """Key code → rows with that key (join build side; int-keyed twin of
        :meth:`_index`)."""
        cache_key = ("buckets", positions)
        found = self._columnar.get(cache_key)
        if found is None:
            buckets: Dict[int, List[Row]] = {}
            for row, code in zip(self._row_order(), self._key_codes(positions)):
                bucket = buckets.get(code)
                if bucket is None:
                    buckets[code] = [row]
                else:
                    bucket.append(row)
            frozen = {code: tuple(rows) for code, rows in buckets.items()}
            found = self._columnar.setdefault(cache_key, frozen)
        return found

    def _take(self, mask: bytes) -> "Relation":
        """The rows whose *mask* byte is nonzero, over the same attributes,
        inheriting the selected code arrays so the child never re-encodes
        what this relation already paid for.

        Trusted: *mask* holds one byte per row, aligned with
        :meth:`_row_order`.  Rows and every cached code column go through
        one C-level ``itertools.compress`` each (collected into a list
        first: ``array`` presizes from a list but grows item by item from
        an iterator, a third slower).
        """
        kept = tuple(compress(self._row_order(), mask))
        child = Relation._from_frozen(self._attributes, frozenset(kept))
        child._columnar["order"] = kept
        for cache_key, column in list(self._columnar.items()):
            if type(cache_key) is tuple and cache_key[0] in ("col", "key"):
                child._columnar[cache_key] = array(
                    CODE_TYPECODE, list(compress(column, mask))
                )
        return child

    def _partition(
        self, positions: Tuple[int, ...], count: int
    ) -> Tuple["Relation", ...]:
        """Hash-partition into *count* shards by the key on *positions*.

        Shard ``s`` holds the rows whose join-key *pool code* is ``s``
        modulo *count* (the value code for a single position, the composite
        KEYS code otherwise — see ``relational.columns``).  Built from the
        cached index on *positions* — whole buckets are routed, so every
        key lands in exactly one shard, and because pool codes are global
        to the process, two relations partitioned on join-compatible keys
        with equal *count* are co-partitioned: matching keys meet in the
        same shard index.  Each shard is a full :class:`Relation` over the
        same attributes, created with its index on *positions* preseeded
        from the routed buckets (sharding never pays the index build
        twice).  Like :meth:`_index`, the result is cached for the
        relation's lifetime and never invalidated.
        """
        if count < 1:
            raise ValueError(f"partition count must be >= 1, got {count}")
        cache_key = (positions, count)
        found = self._partitions.get(cache_key)
        if found is not None:
            return found
        routed: List[Dict[Any, Tuple[Row, ...]]] = [{} for _ in range(count)]
        if len(positions) == 1:
            encode = VALUES.encode
            for key, bucket in self._index(positions).items():
                routed[encode(key) % count][key] = bucket
        else:
            value_code = VALUES.encode
            key_code = KEYS.encode
            for key, bucket in self._index(positions).items():
                code = key_code(tuple(value_code(v) for v in key))
                routed[code % count][key] = bucket
        shards = []
        for shard_buckets in routed:
            rows = frozenset(
                row for bucket in shard_buckets.values() for row in bucket
            )
            shard = Relation._from_frozen(self._attributes, rows)
            shard._indexes[positions] = shard_buckets
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
        """Share *other*'s index + columnar caches (caller guarantees
        identical rows).

        The partition cache is *not* shared: cached shards are Relations
        carrying their source's attribute names, which a rename-shaped twin
        must not inherit.  Positional indexes and code columns only depend
        on rows, so both transfer.
        """
        self._indexes = other._indexes
        self._columnar = other._columnar
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
        trusted :meth:`_from_frozen` fast path instead.
        """
        names = check_attribute_names(attributes)
        arity = len(names)
        frozen = frozenset(tuple(row) for row in rows)
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

        Duplicate result rows collapse (set semantics).  When the kept
        columns' code arrays are already cached the dedupe runs over key
        codes and value tuples are built only for the distinct rows; a
        cold relation projects its row tuples directly instead of paying
        to intern them.  Projecting onto the empty attribute list yields
        the nullary TRUE/FALSE relation depending on whether any row
        exists.
        """
        names = check_attribute_names(attributes)
        if names == self._attributes:
            return self
        positions = positions_of(self._attributes, names)
        if not positions:
            projected = frozenset([()]) if self._rows else _EMPTY_ROWSET
            return Relation._from_frozen(names, projected)
        columnar = self._columnar
        if ("key", positions) in columnar or all(
            ("col", p) in columnar for p in positions
        ):
            # Codes already exist (a derived relation, or the columns were
            # warmed by a join/semijoin): dedupe by key code — per-row work
            # is one C-level dict insert, and value tuples are built only
            # for one representative row per code (last wins — equal codes
            # mean value-equal projections).  Child code arrays are left
            # to lazy re-encode: every value is already interned, so
            # re-encoding later costs about what preseeding would here.
            order = self._row_order()
            codes = self._key_codes(positions)
            representatives = dict(zip(codes, order)).values()
            if len(positions) == 1:
                (p,) = positions
                projected_rows = tuple(zip(map(itemgetter(p), representatives)))
            else:
                projected_rows = tuple(
                    map(itemgetter(*positions), representatives)
                )
            out = Relation._from_frozen(names, frozenset(projected_rows))
            out._columnar["order"] = projected_rows
            return out
        # Cold relation: interning every value just to dedupe would cost
        # more than the projection itself — let frozenset dedupe the
        # projected tuples directly (value equality, same set semantics).
        if len(positions) == 1:
            (p,) = positions
            projected = frozenset(zip(map(itemgetter(p), self._rows)))
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

        Probing uses *other*'s cached code buckets on the shared positions,
        so repeated joins against the same relation build its hash table
        once — and the table is keyed by small-int pool codes.
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
        straight into hash buckets keyed by join-key pool codes, so wide
        build-side intermediates never exist.  This is the kernel behind
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
            # Plain natural join: probe other's cached code buckets.
            extra_pos = positions_of(other._attributes, extra)
            buckets = other._code_buckets(right_pos)
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
            grouped: Dict[int, set] = {}
            for row, code in zip(other._row_order(), other._key_codes(right_pos)):
                group = grouped.get(code)
                if group is None:
                    grouped[code] = {raw_suffix(row)}
                else:
                    group.add(raw_suffix(row))
            buckets = {code: tuple(group) for code, group in grouped.items()}
            suffix_of = lambda suffix: suffix  # noqa: E731

        out: List[Row] = []
        append = out.append
        for row, code in zip(self._row_order(), self._key_codes(left_pos)):
            bucket = buckets.get(code)
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

        Membership is an int probe of *other*'s cached key-code set against
        this relation's key-code array (codes are process-global, so equal
        keys carry equal codes in both relations), mapped at C level into a
        one-byte-per-row mask.  When nothing is filtered, ``self`` is
        returned unchanged so its caches stay live; otherwise the result
        inherits the selected code columns and never re-encodes.
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
        right_keys = other._key_code_set(positions_of(other._attributes, shared))
        codes = self._key_codes(positions_of(self._attributes, shared))
        return bytes(map(right_keys.__contains__, codes))
