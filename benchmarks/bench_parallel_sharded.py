"""PARALLEL — the acyclic route, N-wide batch lifting, and the pool modes.

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
* with ``--assert-multicore``, serial vs thread vs process pools on
  compute-bound tasks.

Single queries take the same route with and without ``parallel=``, so the
acyclic leaves are absolute times, not a ratio between two engines.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_sharded.py
    PYTHONPATH=src python benchmarks/bench_parallel_sharded.py --smoke  # CI

``--smoke`` skips the perf assertions (CI machines are noisy; the
regression gate applies its own tolerance instead); ``--json PATH`` writes
the machine-readable report (``BENCH_parallel_sharded.json`` by default in
full mode).

The multicore CI job adds ``--assert-multicore --max-workers $(nproc)``:
that runs an extra serial-vs-threads-vs-processes comparison and asserts
the best real pool beats serial execution — the ROADMAP's multicore
fan-out measurement, meaningless on a 1-CPU container (where every pool
collapses to serial) and therefore kept out of the committed baseline and
the regression gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro import Database, NaiveEvaluator, QueryEngine, YannakakisEvaluator
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.operations import EXECUTE, operations_of
from repro.parallel import WorkerPool, default_worker_count
from repro.parallel.pool import PROCESSES, SERIAL, THREADS
from repro.workloads import chain_database, path_query, star_database, star_query


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


def run_acyclic(repeats: int) -> List[Dict[str, Any]]:
    """Absolute execute / decide / count times on each acyclic workload,
    and the bottom-up pass on its own."""
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

        execute_seconds, _ = time_thunk(
            lambda: engine.execute(query, database), repeats=repeats
        )
        decide_seconds, _ = time_thunk(
            lambda: engine.decide(query, database), repeats=repeats
        )
        count_seconds, _ = time_thunk(
            lambda: engine.count(query, database), repeats=repeats
        )
        pass_seconds, _ = time_thunk(
            lambda: reducer.reduce_bottom_up(query, database), repeats=repeats
        )
        records.append(
            {
                "name": item["name"],
                "input_rows": sum(
                    database[name].cardinality for name in database.names()
                ),
                "output_rows": answers.cardinality,
                "execute_seconds": execute_seconds,
                "decide_seconds": decide_seconds,
                "count_seconds": count_seconds,
                "pass_seconds": pass_seconds,
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


#: Tasks of the multicore fan-out measurement (one per seed).
_POOL_MODE_SEEDS = tuple(range(8))


def _naive_unsat_decide_task(seed: int) -> bool:
    """One compute-bound task: full backtracking search with no answer.

    A length-5 path query on a 5-layer chain is unsatisfiable, so the
    naive engine explores the entire search space — heavy CPU, trivial
    result.  The task builds its own database from the seed, so only an
    integer crosses the process boundary: this measures task fan-out, not
    serialization.  Module-level with a picklable argument, as the
    process pool requires.
    """
    database = chain_database(layers=5, width=32, p=0.3, seed=seed)
    query = path_query(5, head_arity=1)
    return NaiveEvaluator().decide(query, database)


def run_pool_modes(
    repeats: int, max_workers: Optional[int]
) -> Dict[str, Any]:
    """Serial vs thread-pool vs process-pool on compute-bound tasks.

    The ROADMAP's multicore fan-out measurement.  What real cores add is
    *task* parallelism, and for pure-Python search that means the process
    pool (threads stay interpreter-bound and are reported to show exactly
    that).  Only meaningful with > 1 core — on the 1-CPU dev container
    every mode degrades to inline execution plus overhead.
    """
    workers = max_workers or default_worker_count()
    expected = [False] * len(_POOL_MODE_SEEDS)
    timings: Dict[str, float] = {}
    for mode in (SERIAL, THREADS, PROCESSES):
        pool = WorkerPool(1 if mode == SERIAL else workers, mode)
        assert (
            pool.map(_naive_unsat_decide_task, _POOL_MODE_SEEDS) == expected
        ), f"pool mode {mode} diverged"
        timings[mode], _ = time_thunk(
            lambda: pool.map(_naive_unsat_decide_task, _POOL_MODE_SEEDS),
            repeats=repeats,
        )
        pool.close()
    return {
        "workload": "naive_unsat_path5_w32",
        "tasks": len(_POOL_MODE_SEEDS),
        "workers": workers,
        "serial_seconds": timings[SERIAL],
        "threads_seconds": timings[THREADS],
        "processes_seconds": timings[PROCESSES],
        "threads_speedup": round(speedup(timings[SERIAL], timings[THREADS]), 2),
        "processes_speedup": round(
            speedup(timings[SERIAL], timings[PROCESSES]), 2
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip perf assertions and the default JSON write — the CI "
        "configuration (timings stay best-of-3 for the regression gate)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker budget for the pool-mode comparison (the multicore "
        "CI job passes the runner's core count)",
    )
    parser.add_argument(
        "--assert-multicore",
        action="store_true",
        help="run the serial/threads/processes comparison and assert the "
        "best real pool beats serial on the large workload (needs >1 core)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3

    acyclic = run_acyclic(repeats)
    unsatisfiable = run_unsatisfiable(repeats)
    batch = run_batch(repeats)
    pool_modes = (
        run_pool_modes(repeats, args.max_workers)
        if args.assert_multicore
        else None
    )

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
        title=f"The acyclic route, one engine (best of {repeats})",
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

    if pool_modes is not None:
        print_table(
            (
                "tasks",
                "workers",
                "serial s",
                "threads s",
                "processes s",
                "thr ×",
                "proc ×",
            ),
            [
                (
                    pool_modes["tasks"],
                    pool_modes["workers"],
                    pool_modes["serial_seconds"],
                    pool_modes["threads_seconds"],
                    pool_modes["processes_seconds"],
                    pool_modes["threads_speedup"],
                    pool_modes["processes_speedup"],
                )
            ],
            title=(
                "Pool modes on compute-bound search tasks "
                "(multicore fan-out measurement)"
            ),
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
    if pool_modes is not None:
        # The multicore claim: with real cores, the best real pool beats
        # serial on the compute-bound workload (the process pool — pure
        # Python search stays interpreter-bound under threads, which the
        # report shows), and the thread pool costs no pathological
        # overhead.
        best = min(
            pool_modes["threads_seconds"], pool_modes["processes_seconds"]
        )
        assert best < pool_modes["serial_seconds"], pool_modes
        assert pool_modes["threads_seconds"] < pool_modes["serial_seconds"] * 2.0, (
            pool_modes
        )

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_parallel_sharded.json"
    sections: Dict[str, Any] = {
        "workers": default_worker_count(),
        "acyclic": acyclic,
        "unsatisfiable": unsatisfiable,
        "batch": batch,
    }
    if pool_modes is not None:
        # Only present under --assert-multicore, which the bench-gate job
        # never passes: the committed baseline comes from a 1-CPU
        # container where pool-mode timings are meaningless, so these
        # leaves must never reach the regression comparison.
        sections["pool_modes"] = pool_modes
    payload = json_report_payload(
        "parallel_sharded",
        smoke=args.smoke,
        repeats=repeats,
        **sections,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
