"""The SQL oracle: whole operations answered by an independent SQL engine.

A :class:`~.base.SqlBackend` executes whole operations against an
independent SQL engine over tables of value codes, and the
:mod:`~.compiler` turns conjunctive queries into single-statement
``SELECT DISTINCT`` / ``EXISTS`` / ``COUNT`` pushdowns.  Nothing here is
on a serving route: the engine never calls a backend.  The package is the
reference the differential tests (``tests/test_differential_sql.py``) and
the e2e benchmark's native-vs-sqlite A/B compare the engine against.
See ``docs/backends.md``.
"""

from .base import (
    SqlBackend,
    canonical_relation,
    canonical_row,
    canonical_rows,
    canonical_value,
)
from .compiler import CompiledSql, compile_query
from .dbapi import DbApiBackend
from .sqlite import SqliteBackend

__all__ = [
    "CompiledSql",
    "DbApiBackend",
    "SqlBackend",
    "SqliteBackend",
    "canonical_relation",
    "canonical_row",
    "canonical_rows",
    "canonical_value",
    "compile_query",
]
