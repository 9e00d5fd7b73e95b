"""The backend driver interface and the answer canonicalization contract.

A :class:`SqlBackend` executes whole :class:`~repro.operations.Operation`\\ s
against an independent SQL engine — the oracle side of the differential
harness, on no serving route.  Adapters (``sqlite3`` in-process) implement
``load``/``execute``/``decide``/``count``; this base class supplies the
generic ``run``/``run_batch`` dispatch every other layer of the repo uses,
plus compile-based capability probing.

Canonicalization contract (``docs/backends.md``)
------------------------------------------------

Backend tables store *codes* from the oracle's private :class:`CodeTable`
(:data:`CODES`, below — the native kernel has no dictionary), so a backend
answer row decodes each code to its representative — the first value
interned for that equality class.  Native answers select original row
objects instead.  The two spellings always compare ``==`` (that is the
table's invariant), but they may differ observably: where a database holds
``1`` and ``True`` (equal, one code), the native row may spell the value
``True`` while the backend spells the representative.
:func:`canonical_row` maps any row onto the representative spelling,
making engine and backend answers *identical*, not merely equal — which is
what the differential harness compares, and what any byte-level result
comparison must apply first.  NaN follows the same semantics: distinct NaN
objects are distinct values (distinct codes), one NaN object equals itself
— exactly frozenset/dict membership semantics, and the backend reproduces
it because codes travel, not floats.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..errors import BackendError, SqlCompilationError
from ..operations import (
    AGG_COUNT,
    AGG_EXISTS,
    AGGREGATE,
    COUNT,
    DECIDE,
    EXECUTE,
    Operation,
)
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


class SqlBackend:
    """Driver interface every pushdown adapter implements.

    Subclasses provide ``load`` plus the three typed entry points; the
    base class turns them into the generic operation surface.  A backend
    answers an operation *entirely* or raises :class:`BackendError` —
    there are no partial/hybrid answers, so a comparison against it is
    always a comparison of whole results.
    """

    #: Short adapter name, shown in :class:`BackendError` messages.
    name = "sql"

    # -- adapter surface ------------------------------------------------

    def load(self, database: Database) -> None:
        """Materialize *database* as backend tables (idempotent)."""
        raise NotImplementedError

    def execute(self, query: ConjunctiveQuery, database: Database) -> Relation:
        """Q(d) with attributes ``o0..``, rows in representative spelling."""
        raise NotImplementedError

    def decide(self, query: ConjunctiveQuery, database: Database) -> bool:
        raise NotImplementedError

    def count(self, query: ConjunctiveQuery, database: Database) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release driver resources (idempotent)."""

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

    # -- the generic operation surface ----------------------------------

    def run(self, operation: Operation, database: Database) -> Any:
        """Serve one operation natively, or raise :class:`BackendError`.

        ``execute``/``decide``/``count`` push down directly; ``aggregate``
        modes ``count``/``exists`` are the same two statements.  Forced
        evaluators, ``explain``, and the remaining aggregate modes are
        engine business and raise.
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
        if kind == AGGREGATE:
            mode = operation.option("mode")
            if mode == AGG_COUNT:
                return self.count(operation.query, database)
            if mode == AGG_EXISTS:
                return self.decide(operation.query, database)
            raise BackendError(
                f"aggregate mode {mode!r} is not pushdown-eligible"
            )
        raise BackendError(f"operation kind {kind!r} is not pushdown-eligible")

    def run_batch(
        self, operations: Sequence[Operation], database: Database
    ) -> List[Any]:
        return [self.run(operation, database) for operation in operations]

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "SqlBackend":
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
    "SqlBackend",
    "canonical_relation",
    "canonical_row",
    "canonical_rows",
    "canonical_value",
]
