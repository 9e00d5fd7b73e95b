"""KERNEL — micro-benchmarks for the columnar relational kernel.

Times the four primitive operations every engine in the library bottoms out
in — project, semijoin, natural join, and point index probes — at n ∈
{1e3, 1e4, 1e5}, plus the two end-to-end acceptance workloads the kernel
rewrite targets (the Yannakakis path query and the naive clique query).
``semijoin_*`` and ``natural_join`` join on the two-attribute key ``(b, c)``
(every probe hashes a tuple); their ``_1key`` twins join on ``b`` alone (a
probe hashes the raw value), the only key shape the e2e workloads read.
``reduce_read_off`` is the shape ``bulk_acyclic`` serves, past its sizes: a
warm ``evaluate`` of the 4-hop path with the head inside the root atom (one
upward pass on survivor masks, one ``_take``, one projection) on layered
chains of 20 k / 320 k / 1.28 M edges with the e2e generator's fixed
out-degree 5, reported in seconds with the log-log growth exponent between
sizes — linear in the input is 1.0.
Results are written as machine-readable JSON (``BENCH_relation_kernel.json``
by default) via :func:`repro.benchlib.write_json_report` so future PRs can
track the perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_relation_kernel.py
    PYTHONPATH=src python benchmarks/bench_relation_kernel.py --smoke  # CI, <60s

``--smoke`` restricts the sweep to n ≤ 1e4 and the chains to the first two
sizes (still best-of-3 — the CI regression gate compares against the
committed best-of-3 baseline) and skips the JSON write unless
``--json``/``--output`` is given explicitly.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Any, Dict, List, Optional

from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.evaluation import NaiveEvaluator, YannakakisEvaluator
from repro.parametric.problems import CliqueInstance
from repro.reductions import clique_to_cq
from repro.query import parse_query
from repro.relational import Database, Relation
from repro.workloads import chain_database, path_query, random_graph

#: Seed-kernel numbers for the acceptance workloads, measured on this
#: container immediately before the columnar-kernel rewrite (best of 3).
#: Kept so every rerun reports the speedup-over-seed trajectory.
SEED_BASELINE_SECONDS = {
    "yannakakis_path_len4_width16": 4.549e-3,
    "naive_clique_n24_k3": 1.904e-2,
}

FULL_SIZES = (1_000, 10_000, 100_000)
SMOKE_SIZES = (1_000, 10_000)

#: Edges of the layered chains of ``reduce_read_off`` (5 layers, out-degree 5).
FULL_CHAIN_EDGES = (20_000, 320_000, 1_280_000)
SMOKE_CHAIN_EDGES = FULL_CHAIN_EDGES[:2]


def _make_pair(n: int, seed: int = 7) -> tuple:
    """Two joinable three-column relations with ~unit join selectivity."""
    rng = random.Random(seed)
    domain = max(n, 16)
    left = Relation.from_rows(
        ("a", "b", "c"),
        {
            (rng.randrange(domain), rng.randrange(domain), rng.randrange(domain))
            for _ in range(n)
        },
    )
    right = Relation.from_rows(
        ("b", "c", "d"),
        {
            (rng.randrange(domain), rng.randrange(domain), rng.randrange(domain))
            for _ in range(n)
        },
    )
    return left, right


def run_micro(sizes, repeats: int) -> List[Dict[str, Any]]:
    """Time each kernel primitive at each size; returns one record per cell."""
    records: List[Dict[str, Any]] = []
    for n in sizes:
        left, right = _make_pair(n)
        rng = random.Random(11)
        probe_keys = [rng.randrange(max(n, 16)) for _ in range(1_000)]

        def project():
            return left.project(("a",))

        def semijoin_cold():
            # A fresh build side defeats the per-relation index cache, so
            # this includes one index construction.
            fresh = Relation._from_frozen(right.attributes, right.rows)
            return left.semijoin(fresh)

        # Same rows with ``c`` renamed away: shares only ``b`` with left.
        right_b = right.rename({"c": "e"})
        left.semijoin(right)  # pre-warm: key lists and right's key set
        left.semijoin(right_b)

        def semijoin_warm():
            return left.semijoin(right)

        def semijoin_warm_1key():
            return left.semijoin(right_b)

        def join():
            return left.natural_join(right)

        def join_1key():
            return left.natural_join(right_b)

        def index_probe():
            total = 0
            for key in probe_keys:
                total += len(left.select_eq({"a": key}))
            return total

        cells = {
            "project": project,
            "semijoin_cold": semijoin_cold,
            "semijoin_warm": semijoin_warm,
            "semijoin_warm_1key": semijoin_warm_1key,
            "natural_join": join,
            "natural_join_1key": join_1key,
            "index_probe_1k": index_probe,
        }
        for op, thunk in cells.items():
            seconds, _ = time_thunk(thunk, repeats=repeats)
            records.append({"op": op, "n": n, "seconds": seconds})
    return records


def _chain(edges: int, layers: int = 5, degree: int = 5, seed: int = 5) -> Database:
    """A layered chain with a fixed out-degree, like ``benchmarks/e2e``'s:
    row counts and path counts depend on the size alone."""
    width = edges // ((layers - 1) * degree)
    rng = random.Random(seed)
    nodes = list(range(layers * width))  # one int object per node
    rows = [
        (nodes[layer * width + node], nodes[(layer + 1) * width + target])
        for layer in range(layers - 1)
        for node in range(width)
        for target in rng.sample(range(width), degree)
    ]
    return Database({"E": Relation.from_rows(("s", "t"), rows)})


def run_reduce_read_off(sizes, repeats: int) -> Dict[str, Any]:
    """Warm head-in-root ``evaluate`` of the 4-hop path per chain size, and
    the growth exponent ``log(t2 / t1) / log(n2 / n1)`` between sizes."""
    query = parse_query("Q(a, b) :- E(a, b), E(b, c), E(c, d), E(d, e).")
    evaluator = YannakakisEvaluator()
    records: List[Dict[str, Any]] = []
    for edges in sizes:
        database = _chain(edges)
        evaluator.evaluate(query, database)  # warm the key lists and key sets
        seconds, answer = time_thunk(
            lambda: evaluator.evaluate(query, database), repeats=repeats
        )
        records.append(
            {"op": "reduce_read_off_4hop", "n": edges, "seconds": seconds,
             "rows_out": len(answer)}
        )
    exponents = {
        f"{a['n']}->{b['n']}": round(
            math.log(b["seconds"] / a["seconds"]) / math.log(b["n"] / a["n"]), 3
        )
        for a, b in zip(records, records[1:])
    }
    return {"records": records, "growth_exponent": exponents}


def run_acceptance(repeats: int) -> Dict[str, float]:
    """The two end-to-end workloads the acceptance criteria are pinned to."""
    db = chain_database(layers=5, width=16, p=0.25, seed=3)
    query = path_query(4, head_arity=1)
    yann_seconds, _ = time_thunk(
        lambda: YannakakisEvaluator().evaluate(query, db), repeats=repeats
    )

    graph = random_graph(24, 0.5, seed=0)
    instance = clique_to_cq(CliqueInstance(graph, 3))
    naive_seconds, _ = time_thunk(
        lambda: NaiveEvaluator().satisfying_assignments(
            instance.query, instance.database
        ),
        repeats=repeats,
    )
    return {
        "yannakakis_path_len4_width16": yann_seconds,
        "naive_clique_n24_k3": naive_seconds,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes (n <= 1e4), still best-of-3 — the <60s CI "
        "configuration",
    )
    parser.add_argument(
        "--output", default=None,
        help="deprecated alias for --json (default BENCH_relation_kernel.json; "
        "omitted in --smoke mode unless given)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    # Best-of-3 even in smoke mode: the CI regression gate compares these
    # numbers against the committed best-of-3 baseline, and single-shot
    # timings are too noisy to gate on.
    repeats = 3

    micro = run_micro(sizes, repeats)
    reduce_read_off = run_reduce_read_off(
        SMOKE_CHAIN_EDGES if args.smoke else FULL_CHAIN_EDGES, repeats
    )
    acceptance = run_acceptance(repeats)

    by_op: Dict[str, List] = {}
    for record in micro:
        by_op.setdefault(record["op"], []).append(record)
    print_table(
        ("op",) + tuple(f"n={n}" for n in sizes),
        [
            (op,) + tuple(r["seconds"] for r in sorted(rows, key=lambda r: r["n"]))
            for op, rows in by_op.items()
        ],
        title="Relational kernel micro-benchmarks (seconds, best of "
        f"{repeats})",
    )
    print_table(
        ("edges", "seconds", "rows out"),
        [(r["n"], r["seconds"], r["rows_out"]) for r in reduce_read_off["records"]],
        title="Warm 4-hop reduce + read-off (growth exponents "
        f"{reduce_read_off['growth_exponent']})",
    )
    print_table(
        ("workload", "seed s", "now s", "speedup"),
        [
            (
                name,
                SEED_BASELINE_SECONDS[name],
                seconds,
                speedup(SEED_BASELINE_SECONDS[name], seconds),
            )
            for name, seconds in acceptance.items()
        ],
        title="Acceptance workloads vs the seed kernel",
    )

    output = args.json or args.output
    if output is None and not args.smoke:
        output = "BENCH_relation_kernel.json"
    payload = json_report_payload(
        "relation_kernel",
        smoke=args.smoke,
        repeats=repeats,
        microbenchmarks=micro,
        reduce_read_off=reduce_read_off,
        acceptance_workloads={
            name: {
                "seed_seconds": SEED_BASELINE_SECONDS[name],
                "kernel_seconds": seconds,
                "speedup_over_seed": round(
                    speedup(SEED_BASELINE_SECONDS[name], seconds), 2
                ),
            }
            for name, seconds in acceptance.items()
        },
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
