"""ACYCLIC ROUTE — one pass and a read-off, and what ``run_batch`` adds.

What this file measures:

* the engine's one acyclic route
  (:class:`~repro.evaluation.yannakakis.YannakakisEvaluator`, join tree
  rooted at the head) as absolute ``execute`` / ``decide`` / ``count`` times
  per workload — three inputs of 2k–225k rows and the small PR 2 workload —
  next to the bottom-up semijoin pass alone (``pass_seconds``): with the
  head inside one atom ``execute`` and ``count`` are that pass plus a
  read-off of the root, and a satisfiable ``decide`` finds its first
  witness long before it;
* ``decide`` on an unsatisfiable adversary — a 5-hop path over a 5-layer
  chain, where every 4-hop prefix exists — which spends the whole
  first-witness budget and then pays the pass: the linear worst case;
* a ≥32-member same-shape batch through ``run_batch`` against per-member
  execution (N-wide lifting through a parameter relation), ≥2× faster;
* the groups ``run_batch`` does *not* lift — too few members, ``≠``
  members, ``count`` — under ``QueryEngine()`` and ``parallel=False``:
  both run them as a plain loop on the calling thread, so the two columns
  read the same (``docs/performance.md``, "PR 24", has what the thread
  fan-out that used to sit there cost).

Single queries take the same route with and without ``parallel=``, so the
acyclic leaves are absolute times, not a ratio between two engines.

Usage::

    PYTHONPATH=src python benchmarks/bench_acyclic_route.py
    PYTHONPATH=src python benchmarks/bench_acyclic_route.py --smoke  # CI

``--smoke`` skips the perf assertions (CI machines are noisy; the
regression gate applies its own tolerance instead); ``--json PATH`` writes
the machine-readable report (``BENCH_acyclic_route.json`` by default in
full mode).
"""

from __future__ import annotations

import argparse
import sys
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import Database, QueryEngine, YannakakisEvaluator
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.operations import COUNT, EXECUTE, operations_of
from repro.query.parser import parse_query
from repro.workloads import chain_database, path_query, star_database, star_query


#: Interleaved rounds of the acyclic leaves in a full run (a smoke run
#: takes 3): each round times one call of every operation in turn.
FULL_ROUNDS = 15

#: How long an operation runs untimed before each of its timed calls.
WARM_SECONDS = 1e-3


def acyclic_workloads() -> List[Dict[str, Any]]:
    """Acyclic instances from 200 to 225k input rows."""
    return [
        {
            "name": "path4_dense_w64",
            "query": path_query(4, head_arity=1),
            "database": chain_database(layers=5, width=64, p=0.5, seed=7),
        },
        {
            "name": "path4_selective_w48",
            "query": path_query(4, head_arity=1),
            "database": chain_database(layers=5, width=48, p=0.25, seed=7),
        },
        {
            "name": "star5_fanout300",
            "query": star_query(5),
            "database": star_database(5, 300, seed=3),
        },
        {
            "name": "path4_small_w16",
            "query": path_query(4, head_arity=1),
            "database": chain_database(layers=5, width=16, p=0.25, seed=3),
        },
    ]


def run_acyclic(rounds: int) -> List[Dict[str, Any]]:
    """Absolute execute / decide / count times on each acyclic workload,
    and the bottom-up pass on its own: the best of *rounds* interleaved
    rounds.

    The full-run checks compare these timings with each other, and on the
    small leaves they are 50-110 µs, which one call on a shared machine
    can miss by ~2×.  So each round times one call of every operation in
    turn, each after ``WARM_SECONDS`` of untimed calls of the same
    operation: the timings a check compares are taken close together, and
    each follows its own operation rather than what another left in the
    caches and the allocator."""
    reducer = YannakakisEvaluator()
    records: List[Dict[str, Any]] = []
    for item in acyclic_workloads():
        query, database = item["query"], item["database"]
        engine = QueryEngine()
        # Warm the engine (plan cache, kernel indexes) and pin that the
        # three operations tell one story before timing.
        answers = engine.execute(query, database)
        assert engine.count(query, database) == answers.cardinality, item["name"]
        assert engine.decide(query, database) == (not answers.is_empty()), item["name"]

        operations = {
            "execute_seconds": lambda: engine.execute(query, database),
            "decide_seconds": lambda: engine.decide(query, database),
            "count_seconds": lambda: engine.count(query, database),
            "pass_seconds": lambda: reducer.reduce_bottom_up(query, database),
        }
        best = dict.fromkeys(operations, float("inf"))
        for _ in range(rounds):
            for name, operation in operations.items():
                warm_until = perf_counter() + WARM_SECONDS
                operation()
                while perf_counter() < warm_until:
                    operation()
                seconds, _ = time_thunk(operation, repeats=1)
                best[name] = min(best[name], seconds)
        records.append(
            {
                "name": item["name"],
                "input_rows": sum(
                    database[name].cardinality for name in database.names()
                ),
                "output_rows": answers.cardinality,
                **best,
            }
        )
    return records


def fixed_degree_chain(layers: int, width: int, degree: int) -> Database:
    """A layered DAG in which every node of a layer has exactly *degree*
    successors in the next, so every path extends to the last layer."""
    return Database.from_tuples(
        {
            "E": [
                (layer * width + i, (layer + 1) * width + (i * degree + j) % width)
                for layer in range(layers - 1)
                for i in range(width)
                for j in range(degree)
            ]
        }
    )


def run_unsatisfiable(repeats: int) -> List[Dict[str, Any]]:
    """``decide`` where no witness exists but every proper prefix of one
    does: the first-witness search spends its whole budget, then the
    bottom-up pass (timed alone beside it) gives the answer."""
    query = path_query(5, head_arity=0)
    reducer = YannakakisEvaluator()
    records: List[Dict[str, Any]] = []
    for width in (500, 1000):
        database = fixed_degree_chain(layers=5, width=width, degree=5)
        engine = QueryEngine()
        assert engine.decide(query, database) is False
        assert engine.plan_for(query, database).evaluator == "yannakakis"
        decide_seconds, _ = time_thunk(
            lambda: engine.decide(query, database), repeats=repeats
        )
        pass_seconds, _ = time_thunk(
            lambda: reducer.reduce_bottom_up(query, database), repeats=repeats
        )
        records.append(
            {
                "name": f"path5_unsat_w{width}",
                "input_rows": database["E"].cardinality,
                "decide_unsat_seconds": decide_seconds,
                "pass_seconds": pass_seconds,
            }
        )
    return records


def run_batch(repeats: int, batch_size: int = 48) -> Dict[str, Any]:
    """N-wide lifted batch vs sequential per-member execution."""
    database = chain_database(layers=5, width=48, p=0.25, seed=7)
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    starts = (starts * (batch_size // len(starts) + 1))[:batch_size]
    batch = [query.decision_instance((value,)) for value in starts]

    sequential = QueryEngine(parallel=False)
    wide = QueryEngine()
    operations = operations_of(EXECUTE, batch)
    reference = sequential.run_batch(operations, database)
    assert wide.run_batch(operations, database) == reference

    seq_seconds, _ = time_thunk(
        lambda: sequential.run_batch(operations, database), repeats=repeats
    )
    wide_seconds, _ = time_thunk(
        lambda: wide.run_batch(operations, database), repeats=repeats
    )
    return {
        "batch_size": len(batch),
        "sequential_seconds": seq_seconds,
        "wide_seconds": wide_seconds,
        "batch_speedup": round(speedup(seq_seconds, wide_seconds), 2),
    }


def run_unlifted(calls: int = 15) -> List[Dict[str, Any]]:
    """The groups ``run_batch`` runs member by member, and the lifted one
    beside them: median of *calls* ``run_batch`` calls per engine flavor.

    ``QueryEngine()`` and ``parallel=False`` differ only in N-wide lifting,
    so on every row but the last they run the same loop.
    """
    database = chain_database(layers=5, width=200, p=0.05, seed=3)
    starts = sorted({row[0] for row in database["E"].rows})
    path = path_query(4, head_arity=1)

    def acyclic(size: int) -> List[Any]:
        return [path.decision_instance((value,)) for value in starts[:size]]

    unequal = [
        parse_query(f"Q(b) :- E({value},b), E(b,c), E(c,d), b != d.")
        for value in starts[:16]
    ]
    groups = [
        ("acyclic_execute_6", operations_of(EXECUTE, acyclic(6))),
        ("acyclic_count_6", operations_of(COUNT, acyclic(6))),
        ("neq_execute_16", operations_of(EXECUTE, unequal)),
        ("neq_count_16", operations_of(COUNT, unequal)),
        ("acyclic_count_32", operations_of(COUNT, acyclic(32))),
        ("acyclic_execute_32_lifted", operations_of(EXECUTE, acyclic(32))),
    ]
    plain, default = QueryEngine(parallel=False), QueryEngine()

    def median_seconds(engine: QueryEngine, operations: Any) -> float:
        return median(
            time_thunk(lambda: engine.run_batch(operations, database), repeats=1)[0]
            for _ in range(calls)
        )

    records: List[Dict[str, Any]] = []
    for name, operations in groups:
        # The first call of each flavor warms its plan cache and pins that
        # the two agree before anything is timed.
        assert plain.run_batch(operations, database) == default.run_batch(
            operations, database
        ), name
        records.append(
            {
                "name": name,
                "members": len(operations),
                "plain_seconds": median_seconds(plain, operations),
                "default_seconds": median_seconds(default, operations),
            }
        )
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip perf assertions and the default JSON write — the CI "
        "configuration (timings are best-of-3, the acyclic leaves 3 "
        "interleaved rounds, for the regression gate)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3
    rounds = repeats if args.smoke else FULL_ROUNDS

    acyclic = run_acyclic(rounds)
    unsatisfiable = run_unsatisfiable(repeats)
    batch = run_batch(repeats)
    batch["unlifted"] = run_unlifted()

    print_table(
        (
            "workload",
            "rows in",
            "rows out",
            "execute s",
            "decide s",
            "count s",
            "pass s",
        ),
        [
            (
                r["name"],
                r["input_rows"],
                r["output_rows"],
                r["execute_seconds"],
                r["decide_seconds"],
                r["count_seconds"],
                r["pass_seconds"],
            )
            for r in acyclic
        ],
        title=f"The acyclic route, one engine (best of {rounds} interleaved)",
    )
    print_table(
        ("adversary", "rows in", "decide s", "pass s"),
        [
            (
                r["name"],
                r["input_rows"],
                r["decide_unsat_seconds"],
                r["pass_seconds"],
            )
            for r in unsatisfiable
        ],
        title="decide with no witness: budget spent, then the pass",
    )
    print_table(
        ("batch size", "sequential s", "N-wide s", "speedup"),
        [
            (
                batch["batch_size"],
                batch["sequential_seconds"],
                batch["wide_seconds"],
                batch["batch_speedup"],
            )
        ],
        title="run_batch: N-wide lifted execution vs per-member",
    )
    print_table(
        ("group", "members", "parallel=False s", "QueryEngine() s"),
        [
            (r["name"], r["members"], r["plain_seconds"], r["default_seconds"])
            for r in batch["unlifted"]
        ],
        title="run_batch groups that do not lift (median of 15), and one that does",
    )

    if not args.smoke:
        assert batch["batch_speedup"] >= 2.0, batch
        # Every workload here has its head inside one atom: count is the
        # pass plus a read-off of the root's cached key set, and execute adds
        # one projection of the root onto the head column (a third of the
        # pass on the star, whose semijoins filter nothing and so copy
        # nothing).
        for record in acyclic:
            assert record["count_seconds"] <= 1.3 * record["pass_seconds"], record
            assert record["execute_seconds"] <= 1.5 * record["count_seconds"], record
        # A spent first-witness budget must stay a small tax on the pass.
        for record in unsatisfiable:
            assert (
                record["decide_unsat_seconds"] <= 1.3 * record["pass_seconds"]
            ), record

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_acyclic_route.json"
    payload = json_report_payload(
        "acyclic_route",
        smoke=args.smoke,
        repeats=repeats,
        rounds=rounds,
        acyclic=acyclic,
        unsatisfiable=unsatisfiable,
        batch=batch,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
