"""ENGINE — the adaptive planner on a mixed structural workload.

The acceptance claim of the engine PR: on a workload mixing acyclic,
cyclic/bounded-treewidth, inequality and redundant-atom queries, the
adaptive ``QueryEngine`` (analyze → plan → cache → dispatch) matches the
best hand-picked evaluator per query (within noise), while the plan cache
makes repeat executions of a parameterized query measurably cheaper than
the first.  The always-naive total is recorded next to the engine's as a
timing, not as a ratio: it is a strawman, and the ratio moves whenever the
strawman's constant does.

Every timing — hand-picked baselines included — runs through
``QueryEngine.execute``, and a hand-picked row forces ``evaluator=...``.
A forced evaluator overrides the route and nothing else: the request looks
up its planned shape, runs the plan's program or join order, and is
recorded, exactly as a planned request does.  So engine / best compares
one path with itself, differing only in the route.  The hand-picked routes
are the ones the engine can run: ``naive`` everywhere, ``yannakakis`` on
the acyclic leaves.  The class evaluators of the cyclic, ``≠`` and
redundant leaves (bag joins, colour coding, parameter-v grouping) are
library evaluators, not routes; they lost every one of these leaves by
13–3 300× when they were (``docs/performance.md``).
The calls of a leaf are interleaved: each of the best-of-3 rounds times
one call of every hand-picked route, the plan's own last, and then one
planned call, so on a right pick the two timings engine / best compares are
taken back to back.  Each timed call of a hand-picked route follows
``WARM_SECONDS`` of untimed calls of that route; the planned call follows
its forced twin.  A single call of 12–200 µs on a shared machine varies by
up to ~2× from one call to the next, so only calls taken back to back are
compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_adaptive.py
    PYTHONPATH=src python benchmarks/bench_engine_adaptive.py --smoke  # CI

``--smoke`` keeps one perf assertion, that no query runs more than the
planner's baseline margin (4×) slower than its best hand-picked route, and
skips the rest (CI machines are noisy; the regression gate applies its own
tolerance instead); ``--json PATH`` writes
the machine-readable report (``BENCH_engine_adaptive.json`` by default in
full mode).
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import Database, QueryEngine
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.engine import NAIVE
from repro.engine.planner import _BASELINE_MARGIN
from repro.operations import EXECUTE, operations_of
from repro.parametric.problems import CliqueInstance
from repro.query import Atom, ConjunctiveQuery
from repro.query.terms import Variable
from repro.reductions import clique_to_cq
from repro.workloads import (
    chain_database,
    cycle_query,
    path_neq_query,
    path_query,
    random_graph,
    star_database,
    star_query,
)

#: How long a route runs untimed before each of its timed calls.
WARM_SECONDS = 1e-3


def _graph_db(n: int, p: float, seed: int) -> Database:
    """A symmetric edge relation over a random graph."""
    edges = list(random_graph(n, p, seed=seed).edges())
    return Database.from_tuples({"E": edges + [(b, a) for a, b in edges]})


def _redundant_clique_query() -> Tuple[ConjunctiveQuery, Database]:
    """A 5-clique asked twice (relations E and F per edge): 20 atoms but
    only 10 distinct variable sets — the parameter-v grouping workload."""
    edges = list(random_graph(10, 0.6, seed=4).edges())
    rows = edges + [(b, a) for a, b in edges]
    database = Database.from_tuples({"E": rows, "F": rows})
    variables = [Variable(f"x{i}") for i in range(5)]
    atoms = []
    for i, j in combinations(range(5), 2):
        atoms.append(Atom("E", (variables[i], variables[j])))
        atoms.append(Atom("F", (variables[i], variables[j])))
    return ConjunctiveQuery((), atoms, head_name="K5"), database


def mixed_workload() -> List[Dict[str, Any]]:
    """(name, query, database, hand-picked evaluator candidates)."""
    triangle = clique_to_cq(CliqueInstance(random_graph(24, 0.5, seed=0), 3))
    k5_query, k5_db = _redundant_clique_query()
    return [
        {
            "name": "path4_acyclic",
            "query": path_query(4, head_arity=1),
            "database": chain_database(layers=5, width=16, p=0.25, seed=3),
            "candidates": ("naive", "yannakakis"),
        },
        {
            "name": "path5_wide",
            "query": path_query(5, head_arity=1),
            "database": chain_database(layers=6, width=24, p=0.25, seed=3),
            "candidates": ("naive", "yannakakis"),
        },
        {
            "name": "star4_acyclic",
            "query": star_query(4),
            "database": star_database(4, 16, seed=1),
            "candidates": ("naive", "yannakakis"),
        },
        {
            "name": "triangle_clique_n24",
            "query": triangle.query,
            "database": triangle.database,
            "candidates": ("naive",),
        },
        {
            "name": "cycle4_n60",
            "query": cycle_query(4),
            "database": _graph_db(60, 0.15, seed=2),
            "candidates": ("naive",),
        },
        {
            "name": "cycle6_n40",
            "query": cycle_query(6),
            "database": _graph_db(40, 0.15, seed=2),
            "candidates": ("naive",),
        },
        {
            "name": "path3_neq2",
            "query": path_neq_query(3, 2, seed=1),
            "database": chain_database(layers=5, width=16, p=0.25, seed=3),
            "candidates": ("naive",),
        },
        {
            "name": "redundant_k5",
            "query": k5_query,
            "database": k5_db,
            "candidates": ("naive",),
        },
    ]


def run_mixed(
    engine: QueryEngine, repeats: int
) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    """Per-query adaptive-vs-hand-picked timings + workload totals."""
    records: List[Dict[str, Any]] = []
    engine_total = 0.0
    naive_total = 0.0
    for item in mixed_workload():
        query, database = item["query"], item["database"]
        plan = engine.plan_for(query, database)
        # The hand-picked routes, the plan's own last, then ``None`` — the
        # planned request — so the two timings engine / best compares on a
        # right pick are taken back to back.
        routes = (
            *sorted(item["candidates"], key=lambda route: route == plan.evaluator),
            None,
        )

        def run(route: Optional[str]) -> Any:
            return engine.execute(query, database, evaluator=route)

        reference = run(routes[0])  # warms the kernel's indexes too
        for route in routes[1:]:
            assert run(route) == reference, f"{item['name']}: {route} disagrees"
        best = dict.fromkeys(routes, float("inf"))
        for _ in range(repeats):
            for route in routes:
                if route is not None:
                    # Untimed calls of the route first, for WARM_SECONDS:
                    # the timed call then follows its own route, not what a
                    # slower one left in the caches and the allocator.  The
                    # planned call needs none; it follows its forced twin.
                    warm_until = perf_counter() + WARM_SECONDS
                    run(route)
                    while perf_counter() < warm_until:
                        run(route)
                seconds, _ = time_thunk(lambda: run(route), repeats=1)
                best[route] = min(best[route], seconds)
        engine_seconds = best.pop(None)
        evaluators = best

        best_evaluator = min(evaluators, key=evaluators.get)
        best_seconds = evaluators[best_evaluator]
        records.append(
            {
                "name": item["name"],
                "class": plan.structural_class,
                "chosen": plan.evaluator,
                "evaluators": {
                    name: {"seconds": seconds}
                    for name, seconds in evaluators.items()
                },
                "best_evaluator": best_evaluator,
                "best_seconds": best_seconds,
                "engine_seconds": engine_seconds,
                "engine_over_best": round(
                    engine_seconds / max(best_seconds, 1e-9), 3
                ),
            }
        )
        engine_total += engine_seconds
        naive_total += evaluators[NAIVE]
    overall = {
        "engine_total_seconds": engine_total,
        "always_naive_total_seconds": naive_total,
    }
    return records, overall


def run_plan_cache(repeats: int) -> Dict[str, Any]:
    """Parameterized-query amortization: first execution (analysis + cost
    model + cache miss) vs repeats under other constant bindings (hits)."""
    database = chain_database(layers=5, width=16, p=0.25, seed=3)
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})

    # Warm the kernel's per-relation data indexes with a throwaway engine so
    # the measured difference below is *planning*, not index construction.
    QueryEngine().contains(query, database, (starts[0],))

    engine = QueryEngine()
    first_seconds, _ = time_thunk(
        lambda: engine.contains(query, database, (starts[0],)), repeats=1
    )
    bindings = (starts * ((repeats * 40) // len(starts) + 1))[: repeats * 40]

    def run_bindings():
        for value in bindings:
            engine.contains(query, database, (value,))

    total_seconds, _ = time_thunk(run_bindings, repeats=1)
    repeat_seconds = total_seconds / len(bindings)
    stats = engine.stats()["cache"]
    return {
        "first_execution_seconds": first_seconds,
        "repeat_execution_seconds": repeat_seconds,
        "first_over_repeat": round(first_seconds / max(repeat_seconds, 1e-9), 2),
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def run_batch(repeats: int) -> Dict[str, Any]:
    """Same-shape batches: one plan for the whole batch vs per-query plans."""
    database = chain_database(layers=5, width=16, p=0.25, seed=3)
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})[:24]
    batch = [query.decision_instance((value,)) for value in starts]

    operations = operations_of(EXECUTE, batch)
    batch_seconds, results = time_thunk(
        lambda: QueryEngine().run_batch(operations, database), repeats=repeats
    )

    def fresh_engines():
        return [QueryEngine().execute(member, database) for member in batch]

    fresh_seconds, fresh_results = time_thunk(fresh_engines, repeats=repeats)
    assert results == fresh_results
    return {
        "batch_size": len(batch),
        "batched_seconds": batch_seconds,
        "fresh_engine_per_query_seconds": fresh_seconds,
        "amortization_factor": round(
            speedup(fresh_seconds, batch_seconds), 2
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="keep only the baseline-margin check, skip the other perf "
        "assertions and the default JSON write — the CI configuration "
        "(timings stay best-of-3 for the regression gate)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    # Best-of-3 in smoke mode too: the CI gate compares these timings
    # against the committed best-of-3 baseline and single shots are noise.
    repeats = 3

    engine = QueryEngine()
    records, overall = run_mixed(engine, repeats)
    cache_section = run_plan_cache(repeats)
    batch_section = run_batch(repeats)

    print_table(
        (
            "query",
            "class",
            "chosen",
            "best hand-picked",
            "best s",
            "engine s",
            "engine/best",
        ),
        [
            (
                r["name"],
                r["class"],
                r["chosen"],
                r["best_evaluator"],
                r["best_seconds"],
                r["engine_seconds"],
                r["engine_over_best"],
            )
            for r in records
        ],
        title=f"Adaptive engine vs hand-picked evaluators (best of {repeats})",
    )
    print_table(
        ("engine total s", "always-naive total s"),
        [
            (
                overall["engine_total_seconds"],
                overall["always_naive_total_seconds"],
            )
        ],
        title="Mixed workload totals",
    )
    print_table(
        ("first exec s", "repeat exec s", "first/repeat", "hits", "misses"),
        [
            (
                cache_section["first_execution_seconds"],
                cache_section["repeat_execution_seconds"],
                cache_section["first_over_repeat"],
                cache_section["hits"],
                cache_section["misses"],
            )
        ],
        title="Plan cache: parameterized path query over its bindings",
    )
    print_table(
        ("batch size", "batched s", "fresh-engine s", "amortization"),
        [
            (
                batch_section["batch_size"],
                batch_section["batched_seconds"],
                batch_section["fresh_engine_per_query_seconds"],
                batch_section["amortization_factor"],
            )
        ],
        title="execute_batch: shape-grouped planning",
    )

    # Every run, smoke included: no leaf may run more than the planner's
    # baseline margin slower than its best hand-picked route.  That is the
    # part of the full-run check that is not noise — a wrong route shows up
    # as 10–600× (the boolean cycles while the search was charged in full),
    # a right one as run-to-run spread around 1.
    worst = max(records, key=lambda r: r["engine_over_best"])
    assert worst["engine_over_best"] <= _BASELINE_MARGIN, worst
    if not args.smoke:
        # Full-run acceptance: the adaptive engine stays close to the best
        # hand-picked evaluator everywhere.  Wherever the plan is right,
        # engine / best is a ratio of two timings of one request path — the
        # forced run looks up, runs and records the same plan, on the route
        # the plan names — so the 1.25 is run-to-run noise, not headroom
        # for a wrong pick.
        assert worst["engine_over_best"] <= 1.25, worst
        assert (
            cache_section["repeat_execution_seconds"]
            < cache_section["first_execution_seconds"]
        ), cache_section

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_engine_adaptive.json"
    payload = json_report_payload(
        "engine_adaptive",
        smoke=args.smoke,
        repeats=repeats,
        queries=records,
        overall=overall,
        plan_cache=cache_section,
        batch=batch_section,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
