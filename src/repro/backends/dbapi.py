"""Shared DBAPI adapter machinery behind the concrete SQL backends.

:class:`DbApiBackend` implements the whole :class:`~.base.SqlBackend`
surface over an abstract ``_connect()``: loading a
:class:`~repro.relational.database.Database` into code-valued tables,
compiling against the physical table map, binding constants as codes,
and decoding result codes back to their representatives.  A
concrete adapter (:mod:`repro.backends.sqlite`) supplies a connection and
the driver's error types — nothing else.

Loading
-------

Each database loads once per backend, keyed by object identity
(``Database`` is unhashable by design).  Every relation of arity ≥ 1
becomes one table ``d<n>_r<m>(c0 BIGINT, ...)`` holding the relation's
value columns (:meth:`Relation._column`) encoded through the oracle's own
code table (:data:`~.base.CODES`), with one single-column index per
attribute so the SQL planner can drive joins.  Zero-arity relations are
skipped; queries referencing them fail compilation.
A :mod:`weakref` finalizer drops the tables when the database object is
collected, so long-lived backends do not accumulate dead tables.

Concurrency: one lock serializes every statement — DBAPI connections are
not generally thread-safe, and a harness may call a backend from several
threads.  Serializing keeps the adapter trivially correct.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Optional, Tuple

from ..errors import BackendError, SqlCompilationError
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.relation import Relation
from .base import CODES, SqlBackend
from .compiler import CompiledSql, compile_query


class _LoadedDatabase:
    """Physical table names of one loaded database + identity witness."""

    __slots__ = ("tables", "ref")

    def __init__(self, tables: Dict[str, str], ref: "weakref.ref") -> None:
        self.tables = tables
        self.ref = ref


class DbApiBackend(SqlBackend):
    """Everything adapter-generic; subclasses provide the connection."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._connection: Optional[Any] = None
        self._loaded: Dict[int, _LoadedDatabase] = {}
        self._sequence = 0

    # -- driver hooks ---------------------------------------------------

    def _connect(self) -> Any:
        raise NotImplementedError

    def _driver_errors(self) -> Tuple[type, ...]:
        """Driver exception types wrapped into :class:`BackendError`."""
        return (Exception,)

    # -- connection + loading -------------------------------------------

    def _conn(self) -> Any:
        if self._connection is None:
            self._connection = self._connect()
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
            except self._driver_errors() as exc:
                raise BackendError(
                    f"{self.name} backend failed loading database: {exc}"
                ) from exc
            entry = _LoadedDatabase(tables, weakref.ref(database))
            # The finalizer must not reference *database* itself, or it
            # would never become collectable; id() is the eviction key.
            weakref.finalize(database, self._evict, id(database))
            self._loaded[id(database)] = entry
            return entry.tables

    @staticmethod
    def _insert(connection: Any, table: str, relation: Relation) -> None:
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

    # -- execution ------------------------------------------------------

    def _prepare(
        self, query: ConjunctiveQuery, database: Database
    ) -> CompiledSql:
        for atom in query.atoms:
            database[atom.relation]  # SchemaError on unknown names, as native
        return compile_query(query, table_names=self.load(database))

    def _fetch_value(self, sql: str, params: Tuple[Any, ...]) -> Any:
        bound = self._bind(params)
        with self._lock:
            try:
                cursor = self._conn().execute(sql, bound)
                return cursor.fetchone()[0]
            except self._driver_errors() as exc:
                raise BackendError(f"{self.name} backend failed: {exc}") from exc

    @staticmethod
    def _bind(params: Tuple[Any, ...]) -> Tuple[int, ...]:
        try:
            return tuple(CODES.encode(value) for value in params)
        except TypeError as exc:
            raise SqlCompilationError(
                f"unhashable constant cannot be encoded: {exc}"
            ) from exc

    def execute(self, query: ConjunctiveQuery, database: Database) -> Relation:
        compiled = self._prepare(query, database)
        if compiled.select_sql is None:
            nonempty = bool(self._fetch_value(compiled.exists_sql, compiled.exists_params))
            rows = frozenset([()]) if nonempty else frozenset()
            return Relation._from_frozen((), rows)
        bound = self._bind(compiled.select_params)
        with self._lock:
            try:
                cursor = self._conn().execute(compiled.select_sql, bound)
                fetched = cursor.fetchall()
            except self._driver_errors() as exc:
                raise BackendError(f"{self.name} backend failed: {exc}") from exc
        decode = CODES.decode
        return Relation._from_frozen(
            compiled.head_attributes,
            frozenset(tuple(decode(code) for code in row) for row in fetched),
        )

    def decide(self, query: ConjunctiveQuery, database: Database) -> bool:
        compiled = self._prepare(query, database)
        return bool(self._fetch_value(compiled.exists_sql, compiled.exists_params))

    def count(self, query: ConjunctiveQuery, database: Database) -> int:
        compiled = self._prepare(query, database)
        return int(self._fetch_value(compiled.count_sql, compiled.count_params))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._loaded.clear()
            if self._connection is not None:
                try:
                    self._connection.close()
                finally:
                    self._connection = None


__all__ = ["DbApiBackend"]
