"""The SQL oracle: whole operations answered by an independent SQL engine.

:class:`~.sqlite.SqliteBackend` executes whole operations against
``sqlite3`` over tables of value codes, and the :mod:`~.compiler` turns
conjunctive queries into single-statement ``SELECT DISTINCT`` / ``EXISTS``
/ ``COUNT`` pushdowns.  Nothing here is on a serving route: the engine
never calls a backend.  The package is the reference the differential
tests (``tests/test_differential_sql.py``) and the e2e benchmark's
native-vs-sqlite A/B compare the engine against.  See
``docs/backends.md``.
"""

from .compiler import CompiledSql, compile_query
from .sqlite import (
    SqliteBackend,
    canonical_relation,
    canonical_row,
    canonical_rows,
    canonical_value,
)

__all__ = [
    "CompiledSql",
    "SqliteBackend",
    "canonical_relation",
    "canonical_row",
    "canonical_rows",
    "canonical_value",
    "compile_query",
]
