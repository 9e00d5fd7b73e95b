"""The SQL oracle: whole operations answered by the standard library's
``sqlite3``, on no serving route.

:class:`SqliteBackend` loads a :class:`~repro.relational.database.Database`
into tables of value codes, compiles a conjunctive query against them
(:mod:`~.compiler`), binds constants as codes and decodes result codes back
to their representatives.  A backend answers an operation *entirely* or
raises :class:`~repro.errors.BackendError` — there are no partial answers,
so a comparison against it is always a comparison of whole results.

Loading
-------

Each database loads once per backend, keyed by object identity
(``Database`` is unhashable by design).  Every relation of arity ≥ 1
becomes one table ``d<n>_r<m>(c0 BIGINT, ...)`` holding the relation's
value columns (:meth:`Relation._column`) encoded through the oracle's own
code table (:data:`CODES`), with one single-column index per attribute so
the SQL planner can drive joins.  Zero-arity relations are skipped; queries
referencing them fail compilation.  A :mod:`weakref` finalizer drops the
tables when the database object is collected, so long-lived backends do
not accumulate dead tables.

An in-memory SQLite database per backend instance by default; pass a path
to persist tables (codes are process-local, so a persisted file is only
meaningful within one process lifetime — it exists for inspection, not for
sharing).  One lock serializes every statement and
``check_same_thread=False`` lets several threads call one backend.

Canonicalization contract (``docs/backends.md``)
------------------------------------------------

Backend tables store *codes* from the oracle's private :class:`CodeTable`
(:data:`CODES` — the native kernel has no dictionary), so a backend answer
row decodes each code to its representative — the first value interned for
that equality class.  Native answers select original row objects instead.
The two spellings always compare ``==`` (that is the table's invariant),
but they may differ observably: where a database holds ``1`` and ``True``
(equal, one code), the native row may spell the value ``True`` while the
backend spells the representative.  :func:`canonical_row` maps any row
onto the representative spelling, making engine and backend answers
*identical*, not merely equal — which is what the differential harness
compares, and what any byte-level result comparison must apply first.  NaN
follows the same semantics: distinct NaN objects are distinct values
(distinct codes), one NaN object equals itself — exactly frozenset/dict
membership semantics, and the backend reproduces it because codes travel,
not floats.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import BackendError, SqlCompilationError
from ..operations import COUNT, DECIDE, EXECUTE, Operation
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.relation import Relation
from .compiler import CompiledSql, compile_query


class CodeTable:
    """An append-only intern table: hashable value → dense int code.

    Interning goes through a ``dict`` — identity, then ``==``, the
    kernel's own equality — so code equality *is* value equality and
    sqlite's type affinity never decides a comparison.  The table grows
    for the life of the process; it is the oracle's, and nothing on a
    serving route touches it.
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._lock = threading.Lock()

    def encode(self, value: Any) -> int:
        """The code for *value*, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    self._values.append(value)
                    self._codes[value] = code
        return code

    def encode_column(self, values: Iterable[Any]) -> List[int]:
        return list(map(self.encode, values))

    def decode(self, code: int) -> Any:
        """The first-seen representative value for *code*."""
        return self._values[code]


#: The one table every backend instance and :func:`canonical_value` share.
CODES = CodeTable()


class _LoadedDatabase:
    """Physical table names of one loaded database + identity witness."""

    __slots__ = ("tables", "ref")

    def __init__(self, tables: Dict[str, str], ref: "weakref.ref") -> None:
        self.tables = tables
        self.ref = ref


class SqliteBackend:
    """Whole operations pushed down to ``sqlite3`` over code-valued tables."""

    def __init__(self, path: str = ":memory:") -> None:
        self._path = path
        self._lock = threading.RLock()
        self._connection: Optional[sqlite3.Connection] = None
        self._loaded: Dict[int, _LoadedDatabase] = {}
        self._sequence = 0

    # -- connection + loading -------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        if self._connection is None:
            connection = sqlite3.connect(self._path, check_same_thread=False)
            # One round-trip per statement; the adapter never needs
            # transactional batching beyond executemany's implicit one.
            connection.isolation_level = None
            self._connection = connection
        return self._connection

    def load(self, database: Database) -> Dict[str, str]:
        """Ensure *database* is materialized; returns its table map."""
        with self._lock:
            entry = self._loaded.get(id(database))
            if entry is not None and entry.ref() is database:
                return entry.tables
            connection = self._conn()
            prefix = f"d{self._sequence}"
            self._sequence += 1
            tables: Dict[str, str] = {}
            try:
                for number, name in enumerate(database.names()):
                    relation = database[name]
                    if relation.arity == 0:
                        continue
                    table = f"{prefix}_r{number}"
                    columns = ", ".join(
                        f"c{p} BIGINT" for p in range(relation.arity)
                    )
                    connection.execute(f"CREATE TABLE {table} ({columns})")
                    self._insert(connection, table, relation)
                    for p in range(relation.arity):
                        connection.execute(
                            f"CREATE INDEX {table}_i{p} ON {table} (c{p})"
                        )
                    tables[name] = table
            except sqlite3.Error as exc:
                raise BackendError(
                    f"sqlite backend failed loading database: {exc}"
                ) from exc
            entry = _LoadedDatabase(tables, weakref.ref(database))
            # The finalizer must not reference *database* itself, or it
            # would never become collectable; id() is the eviction key.
            weakref.finalize(database, self._evict, id(database))
            self._loaded[id(database)] = entry
            return entry.tables

    @staticmethod
    def _insert(
        connection: sqlite3.Connection, table: str, relation: Relation
    ) -> None:
        if relation.is_empty():
            return
        columns = [
            CODES.encode_column(relation._column(p))
            for p in range(relation.arity)
        ]
        placeholders = ", ".join("?" for _ in columns)
        connection.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})",
            list(zip(*columns)),
        )

    def _evict(self, database_id: int) -> None:
        with self._lock:
            entry = self._loaded.pop(database_id, None)
            if entry is None or self._connection is None:
                return
            try:
                for table in entry.tables.values():
                    self._connection.execute(f"DROP TABLE IF EXISTS {table}")
            except Exception:
                # Finalizer context: the connection may already be closed.
                pass

    @property
    def loaded_databases(self) -> int:
        """How many databases currently hold tables (tests/diagnostics)."""
        with self._lock:
            return len(self._loaded)

    # -- capability probing ---------------------------------------------

    def sql_for(self, query: ConjunctiveQuery) -> CompiledSql:
        """The logical compilation of *query* (``explain``'s rendering)."""
        return compile_query(query)

    def supports(self, query: ConjunctiveQuery) -> bool:
        """Does *query* lie inside the pushdown fragment?"""
        try:
            compile_query(query)
        except SqlCompilationError:
            return False
        return True

    # -- execution ------------------------------------------------------

    def _compile(self, query: ConjunctiveQuery, database: Database) -> CompiledSql:
        for atom in query.atoms:
            database[atom.relation]  # SchemaError on unknown names, as native
        return compile_query(query, table_names=self.load(database))

    def _fetch(self, sql: str, params: Tuple[Any, ...]) -> List[Tuple[int, ...]]:
        bound = self._bind(params)
        with self._lock:
            try:
                return self._conn().execute(sql, bound).fetchall()
            except sqlite3.Error as exc:
                raise BackendError(f"sqlite backend failed: {exc}") from exc

    @staticmethod
    def _bind(params: Tuple[Any, ...]) -> Tuple[int, ...]:
        try:
            return tuple(CODES.encode(value) for value in params)
        except TypeError as exc:
            raise SqlCompilationError(
                f"unhashable constant cannot be encoded: {exc}"
            ) from exc

    def execute(self, query: ConjunctiveQuery, database: Database) -> Relation:
        """Q(d) with attributes ``o0..``, rows in representative spelling."""
        compiled = self._compile(query, database)
        if compiled.select_sql is None:
            rows = frozenset([()]) if self._decide(compiled) else frozenset()
            return Relation._from_frozen((), rows)
        fetched = self._fetch(compiled.select_sql, compiled.select_params)
        decode = CODES.decode
        return Relation._from_frozen(
            compiled.head_attributes,
            frozenset(tuple(decode(code) for code in row) for row in fetched),
        )

    def decide(self, query: ConjunctiveQuery, database: Database) -> bool:
        return self._decide(self._compile(query, database))

    def _decide(self, compiled: CompiledSql) -> bool:
        return bool(self._fetch(compiled.exists_sql, compiled.exists_params)[0][0])

    def count(self, query: ConjunctiveQuery, database: Database) -> int:
        compiled = self._compile(query, database)
        return int(self._fetch(compiled.count_sql, compiled.count_params)[0][0])

    def run(self, operation: Operation, database: Database) -> Any:
        """Serve one operation natively, or raise :class:`BackendError`.

        ``execute``/``decide``/``count`` push down directly.  Forced
        evaluators, ``explain``, ``grouped_count`` and ``forall`` are engine
        business and raise.
        """
        kind = operation.kind
        if kind in (EXECUTE, DECIDE):
            if operation.option("evaluator") is not None:
                raise BackendError(
                    "operations forcing a native evaluator are not pushdown-"
                    "eligible"
                )
            method = self.execute if kind == EXECUTE else self.decide
            return method(operation.query, database)
        if kind == COUNT:
            return self.count(operation.query, database)
        raise BackendError(f"operation kind {kind!r} is not pushdown-eligible")

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Drop every table and the connection (idempotent)."""
        with self._lock:
            self._loaded.clear()
            if self._connection is not None:
                try:
                    self._connection.close()
                finally:
                    self._connection = None

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Canonicalization helpers (the differential harness's comparison basis)
# ----------------------------------------------------------------------


def canonical_value(value: Any) -> Any:
    """The :data:`CODES` representative of *value*'s equality class.

    Interns on first sight, so the representative is stable for the rest
    of the process — calling this on both sides of a comparison is what
    makes ``1`` vs ``True`` vs ``1.0`` spellings literally identical.
    """
    return CODES.decode(CODES.encode(value))


def canonical_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(canonical_value(value) for value in row)


def canonical_rows(rows: Iterable[Sequence[Any]]) -> frozenset:
    return frozenset(canonical_row(row) for row in rows)


def canonical_relation(relation: Relation) -> Relation:
    """*relation* with every value in representative spelling."""
    return Relation._from_frozen(relation.attributes, canonical_rows(relation))


__all__ = [
    "CODES",
    "CodeTable",
    "SqliteBackend",
    "canonical_relation",
    "canonical_row",
    "canonical_rows",
    "canonical_value",
]
