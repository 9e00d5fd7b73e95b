"""Relational database substrate: relations, schemas, databases, joins.

This package implements the data model of the paper's §3 — a database
``d = [D; R1, ..., Rm]`` — together with the relational algebra every
evaluation algorithm in the library is written against.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "HASH_PREFIX": "attributes",
        "hashed": "attributes",
        "is_hashed": "attributes",
        "unhashed": "attributes",
        "divide": "algebra",
        "Database": "database",
        "database_from_json": "io",
        "database_to_json": "io",
        "load_database_csv": "io",
        "load_database_json": "io",
        "save_database_csv": "io",
        "save_database_json": "io",
        "hash_join": "joins",
        "sort_merge_join": "joins",
        "Relation": "relation",
        "DatabaseSchema": "schema",
        "RelationSchema": "schema",
    },
)
