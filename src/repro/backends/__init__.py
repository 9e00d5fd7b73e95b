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

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "CompiledSql": "compiler",
        "compile_query": "compiler",
        "SqliteBackend": "sqlite",
        "canonical_relation": "sqlite",
        "canonical_row": "sqlite",
        "canonical_rows": "sqlite",
        "canonical_value": "sqlite",
    },
)
