"""Relational database substrate: relations, schemas, databases, joins.

This package implements the data model of the paper's §3 — a database
``d = [D; R1, ..., Rm]`` — together with the relational algebra every
evaluation algorithm in the library is written against.
"""

from .attributes import HASH_PREFIX, hashed, is_hashed, unhashed
from .algebra import divide, join_all, project_join, union_all
from .database import Database
from .io import (
    database_from_json,
    database_to_json,
    load_database_csv,
    load_database_json,
    save_database_csv,
    save_database_json,
)
from .joins import (
    JOIN_ALGORITHMS,
    get_join_algorithm,
    hash_join,
    sort_merge_join,
)
from .relation import Relation
from .schema import DatabaseSchema, RelationSchema

__all__ = [
    "Database",
    "DatabaseSchema",
    "HASH_PREFIX",
    "JOIN_ALGORITHMS",
    "Relation",
    "RelationSchema",
    "database_from_json",
    "database_to_json",
    "divide",
    "load_database_csv",
    "load_database_json",
    "save_database_csv",
    "save_database_json",
    "get_join_algorithm",
    "hash_join",
    "hashed",
    "is_hashed",
    "join_all",
    "project_join",
    "sort_merge_join",
    "unhashed",
    "union_all",
]
