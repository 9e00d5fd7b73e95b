"""Loading and saving databases (CSV directories and JSON documents).

A :class:`~repro.relational.database.Database` round-trips through:

* a *directory of CSV files*, one ``<relation>.csv`` per relation with a
  header row of attribute names — the interchange format for external
  datasets;
* a single *JSON document* — convenient for fixtures and examples.

Values are strings or numbers.  CSV cells are parsed back as ``int`` when
they look like integers (the common case for the paper's workloads) and
kept as strings otherwise; JSON preserves types natively.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Union

from ..errors import SchemaError
from .database import Database
from .relation import Relation

PathLike = Union[str, Path]


def _parse_cell(cell: str) -> Any:
    text = cell
    if text and (text.isdigit() or (text[0] == "-" and text[1:].isdigit())):
        return int(text)
    return text


def save_database_csv(database: Database, directory: PathLike) -> None:
    """Write one ``<name>.csv`` per relation into *directory* (created)."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name in database.names():
        relation = database[name]
        with open(root / f"{name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(relation.attributes)
            for row in sorted(relation, key=repr):
                writer.writerow(row)


def load_database_csv(directory: PathLike) -> Database:
    """Read every ``*.csv`` in *directory* as a relation (header = schema)."""
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"not a directory: {root}")
    relations: Dict[str, Relation] = {}
    for path in sorted(root.glob("*.csv")):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path.name}: missing header row") from None
            rows = [tuple(_parse_cell(c) for c in row) for row in reader]
        relations[path.stem] = Relation.from_rows(tuple(header), rows)
    if not relations:
        raise SchemaError(f"no .csv files in {root}")
    return Database(relations)


def database_to_json(database: Database) -> str:
    """Serialize to a JSON document (attributes + rows per relation)."""
    document = {
        "relations": {
            name: {
                "attributes": list(database[name].attributes),
                "rows": [list(row) for row in sorted(database[name], key=repr)],
            }
            for name in database.names()
        },
        "domain": sorted(database.domain(), key=repr),
    }
    return json.dumps(document, indent=2, default=str)


def database_from_json(text: str) -> Database:
    """Inverse of :func:`database_to_json`.

    The domain is restored only when every declared value is JSON-representable
    verbatim; otherwise the active domain is used.
    """
    document = json.loads(text)
    if "relations" not in document:
        raise SchemaError("JSON document lacks a 'relations' key")
    relations: Dict[str, Relation] = {}
    for name, payload in document["relations"].items():
        relations[name] = Relation.from_rows(
            tuple(payload["attributes"]),
            (tuple(row) for row in payload["rows"]),
        )
    database = Database(relations)
    declared = document.get("domain")
    if declared is not None:
        try:
            return Database(relations, domain=declared)
        except SchemaError:
            return database  # lossy domain (e.g. stringified values)
    return database


def save_database_json(database: Database, path: PathLike) -> None:
    """Write :func:`database_to_json` output to *path*."""
    Path(path).write_text(database_to_json(database))


def load_database_json(path: PathLike) -> Database:
    """Read a database from a JSON file."""
    return database_from_json(Path(path).read_text())
