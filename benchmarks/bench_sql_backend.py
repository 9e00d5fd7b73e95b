"""SQLBACK — what the sqlite3 oracle costs: table load and per-channel calls.

The SQL backend is the differential oracle, on no serving route; this
benchmark prices it so the differential suites stay affordable.  Tables are
loaded once per ``Database`` (amortized across every query against it),
then each channel (execute / decide / count) is a straight SQL round-trip,
timed next to the native engine answering the same operation.

No row asserts a winner: the committed baseline pins the *costs* (load,
per-call latency on both sides) against regression, not the ranking.

Usage::

    PYTHONPATH=src python benchmarks/bench_sql_backend.py
    PYTHONPATH=src python benchmarks/bench_sql_backend.py --smoke  # CI

``--smoke`` shrinks the workloads and skips the sanity assertions;
``--json PATH`` writes the machine-readable report
(``BENCH_sql_backend.json`` by default in full mode).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro import QueryEngine, SqliteBackend
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.workloads import chain_database, path_query, star_database, star_query


def load_section(smoke: bool, repeats: int) -> Dict[str, Any]:
    """One-time table build: the cost every later call amortizes."""
    layers, width = (4, 8) if smoke else (6, 24)
    database = chain_database(layers=layers, width=width, p=0.6, seed=11)

    def load_fresh():
        with SqliteBackend() as backend:
            backend.load(database)
            return backend.loaded_databases

    seconds, loaded = time_thunk(load_fresh, repeats=repeats)
    assert loaded == 1
    return {
        "rows": database.size(),
        "load_seconds": seconds,
    }


def channel_rows(smoke: bool, repeats: int) -> List[Dict[str, Any]]:
    """execute/decide/count head-to-head, warm caches on both sides."""
    layers, width = (4, 8) if smoke else (6, 20)
    # Star stays modest on purpose: SELECT DISTINCT hub enumerates the
    # full leaf cross-product (fanout/2)^arms per hub before deduping,
    # while the native side semijoins it away — and a benchmark must
    # terminate on both sides.
    arms, fanout = (4, 6) if smoke else (4, 12)
    cases = [
        ("path3_execute", path_query(3, head_arity=1),
         chain_database(layers=layers, width=width, p=0.5, seed=7)),
        ("star_count", star_query(arms), star_database(arms, fanout, seed=3)),
    ]
    records: List[Dict[str, Any]] = []
    engine = QueryEngine()
    backend = SqliteBackend()
    for name, query, database in cases:
        native_result = engine.execute(query, database)  # warm plan cache
        pushed_result = backend.execute(query, database)  # warm tables
        assert native_result == pushed_result
        native: Dict[str, float] = {}
        pushed: Dict[str, float] = {}
        native["execute"], _ = time_thunk(
            lambda: engine.execute(query, database), repeats=repeats
        )
        pushed["execute"], _ = time_thunk(
            lambda: backend.execute(query, database), repeats=repeats
        )
        native["decide"], _ = time_thunk(
            lambda: engine.decide(query, database), repeats=repeats
        )
        pushed["decide"], _ = time_thunk(
            lambda: backend.decide(query, database), repeats=repeats
        )
        native["count"], native_count = time_thunk(
            lambda: engine.count(query, database), repeats=repeats
        )
        pushed["count"], pushed_count = time_thunk(
            lambda: backend.count(query, database), repeats=repeats
        )
        assert native_count == pushed_count
        for channel in ("execute", "decide", "count"):
            records.append(
                {
                    "name": f"{name}:{channel}",
                    "answers": native_result.cardinality,
                    "native_seconds": native[channel],
                    "backend_seconds": pushed[channel],
                    "backend_speedup": round(
                        speedup(native[channel], pushed[channel]), 2
                    ),
                }
            )
    backend.close()
    engine.close()
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink workloads and skip the default JSON write — the CI "
        "configuration (timings stay best-of-3 for the regression gate)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3

    load = load_section(args.smoke, repeats)
    channels = channel_rows(args.smoke, repeats)

    print_table(
        ("workload:channel", "answers", "native s", "sqlite s", "sqlite speedup"),
        [
            (
                r["name"],
                r["answers"],
                r["native_seconds"],
                r["backend_seconds"],
                r["backend_speedup"],
            )
            for r in channels
        ],
        title=f"Native vs the sqlite3 oracle (best of {repeats}, warm)",
    )
    print_table(
        ("rows", "load s"),
        [(load["rows"], load["load_seconds"])],
        title="One-time table load (fresh backend per repeat)",
    )

    if not args.smoke:
        # Sanity, not ranking: every channel answered on both sides.
        for record in channels:
            assert record["native_seconds"] > 0 and record["backend_seconds"] > 0

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_sql_backend.json"
    payload = json_report_payload(
        "sql_backend",
        smoke=args.smoke,
        repeats=repeats,
        load=load,
        channels=channels,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
