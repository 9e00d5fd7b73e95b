"""The in-process ``sqlite3`` pushdown adapter (stdlib, always available).

An in-memory SQLite database per backend instance by default; pass a
path to persist tables across processes (codes are process-local, so a
persisted file is only meaningful within one process lifetime — it
exists for inspection, not for sharing).

``check_same_thread=False`` plus the :class:`~.dbapi.DbApiBackend` lock
makes the adapter safe to call from several threads.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Tuple

from .dbapi import DbApiBackend


class SqliteBackend(DbApiBackend):
    """SQL pushdown through the standard library's ``sqlite3``."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self._path = path

    def _connect(self) -> Any:
        connection = sqlite3.connect(self._path, check_same_thread=False)
        # One round-trip per statement; the adapter never needs
        # transactional batching beyond executemany's implicit one.
        connection.isolation_level = None
        return connection

    def _driver_errors(self) -> Tuple[type, ...]:
        return (sqlite3.Error,)


__all__ = ["SqliteBackend"]
