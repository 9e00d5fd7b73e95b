"""SERVICE — concurrent clients on one shared engine.

What this file measures of the async service front-end:

* **concurrent clients** — N clients multiplexed onto one
  ``QueryService`` (one plan cache, single-flight coalescing of hot
  queries, batching of queued same-shape requests) finishing a mixed
  workload, as an absolute time (what sharing is worth against a server
  is the e2e benchmark's question, ``benchmarks/e2e``);
* **a same-shape flood batches itself** — distinct-constant same-shape
  requests submitted concurrently queue up behind the dispatchers, join
  one group and run through N-wide lifted executions, beating the same
  requests awaited one at a time (each its own dispatch) with no batching
  knob anywhere;
* **single-flight is exact** — N identical concurrent queries cost one
  plan and one execution (asserted in every mode; this is correctness,
  not a timing).

Results are checked against sequential ``QueryEngine(parallel=False)``
execution for every scenario before anything is timed.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_async.py
    PYTHONPATH=src python benchmarks/bench_service_async.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_service_async.py --coalesce-only

``--smoke`` shrinks the workload and skips the perf assertions (the CI
regression gate applies its own tolerance); ``--coalesce-only`` runs just
the single-flight check (the dedicated CI smoke step).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any, Dict, List, Optional

from repro import QueryEngine, QueryService
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.workloads import chain_database, path_query


def build_workload(clients: int, per_client: int, database) -> List[List]:
    """Per client, a list of decision instances: half *hot* (identical
    across clients — what single-flight and the plan cache exist for),
    half client-specific."""
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    hot = starts[:4]
    workload = []
    for client in range(clients):
        requests = []
        for i in range(per_client):
            if i % 2 == 0:
                value = hot[(i // 2) % len(hot)]
            else:
                value = starts[(client * per_client + i) % len(starts)]
            requests.append(query.decision_instance((value,)))
        workload.append(requests)
    return workload


async def shared_run(workload: List[List], database) -> List[List]:
    """All clients against one QueryService."""
    async with QueryService() as service:

        async def client(requests):
            return [await service.execute(q, database) for q in requests]

        return list(
            await asyncio.gather(*(client(requests) for requests in workload))
        )


def run_concurrent_clients(
    repeats: int, clients: int, per_client: int
) -> Dict[str, Any]:
    database = chain_database(layers=5, width=48, p=0.25, seed=7)
    workload = build_workload(clients, per_client, database)

    sequential = QueryEngine(parallel=False)
    reference = [
        [sequential.execute(q, database) for q in requests]
        for requests in workload
    ]
    shared = asyncio.run(shared_run(workload, database))
    assert shared == reference, "shared service diverged from sequential"

    shared_seconds, _ = time_thunk(
        lambda: asyncio.run(shared_run(workload, database)), repeats=repeats
    )
    return {
        "clients": clients,
        "requests": clients * per_client,
        "shared_seconds": shared_seconds,
    }


def run_flood(repeats: int, requests: int) -> Dict[str, Any]:
    """Same-shape flood: submitted concurrently vs awaited one at a time."""
    database = chain_database(layers=5, width=48, p=0.25, seed=7)
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    instances = [
        query.decision_instance((starts[i % len(starts)],))
        for i in range(requests)
    ]

    async def flood(concurrent: bool):
        async with QueryService() as service:
            if concurrent:
                results = list(
                    await asyncio.gather(
                        *(service.execute(q, database) for q in instances)
                    )
                )
            else:
                results = [await service.execute(q, database) for q in instances]
            return results, (await service.stats()).service

    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]
    results, counters = asyncio.run(flood(True))
    assert results == reference
    assert counters.max_group > 1, counters  # the backlog batched itself
    results, alone = asyncio.run(flood(False))
    assert results == reference
    assert alone.batched == 0 and alone.groups == len(instances), alone

    concurrent_seconds, _ = time_thunk(
        lambda: asyncio.run(flood(True)), repeats=repeats
    )
    one_at_a_time_seconds, _ = time_thunk(
        lambda: asyncio.run(flood(False)), repeats=repeats
    )
    return {
        "requests": len(instances),
        "groups": counters.groups,
        "max_group": counters.max_group,
        "one_at_a_time_seconds": one_at_a_time_seconds,
        "concurrent_seconds": concurrent_seconds,
        "batching_speedup": round(
            speedup(one_at_a_time_seconds, concurrent_seconds), 2
        ),
    }


def run_single_flight_check(requests: int = 32) -> Dict[str, Any]:
    """N identical concurrent queries → 1 plan, 1 execution.  Asserted in
    every mode — this is the coalescing contract CI smokes."""
    database = chain_database(layers=5, width=32, p=0.3, seed=11)
    query = path_query(4, head_arity=1)

    async def scenario():
        async with QueryService() as service:
            results = await asyncio.gather(
                *(service.execute(query, database) for _ in range(requests))
            )
            return results, await service.stats()

    results, stats = asyncio.run(scenario())
    assert all(result == results[0] for result in results)
    assert stats.engine.executions == 1, stats.engine.executions
    assert stats.engine.cache.misses == 1, stats.engine.cache
    assert stats.service.coalesced == requests - 1, stats.service
    return {
        "requests": requests,
        "engine_executions": stats.engine.executions,
        "plans": stats.engine.cache.misses,
        "coalesced": stats.service.coalesced,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip perf assertions — the CI configuration (workload sizes "
        "and best-of-3 timings stay identical for the regression gate)",
    )
    parser.add_argument(
        "--coalesce-only",
        action="store_true",
        help="run only the single-flight/coalescing check and exit",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3

    single_flight = run_single_flight_check()
    print_table(
        ("requests", "engine executions", "plans", "coalesced"),
        [
            (
                single_flight["requests"],
                single_flight["engine_executions"],
                single_flight["plans"],
                single_flight["coalesced"],
            )
        ],
        title="Single-flight: N identical concurrent queries → 1 plan, 1 execution",
    )
    if args.coalesce_only:
        print("\nsingle-flight/coalescing check passed")
        return 0

    # Smoke keeps every workload at full size: the regression gate
    # compares leaves by path, so shrinking a smoke workload would make
    # its timings incomparable to the committed full-run baseline and
    # silently gate nothing (the whole suite runs in a few seconds
    # anyway).  --smoke only skips the perf assertions.
    clients, per_client, flood_requests = 32, 8, 64

    concurrent = run_concurrent_clients(repeats, clients, per_client)
    flood = run_flood(repeats, flood_requests)

    print_table(
        ("clients", "requests", "shared s"),
        [
            (
                concurrent["clients"],
                concurrent["requests"],
                concurrent["shared_seconds"],
            )
        ],
        title=f"Concurrent clients on one shared QueryService (best of {repeats})",
    )
    print_table(
        (
            "requests",
            "groups",
            "max group",
            "one at a time s",
            "concurrent s",
            "speedup",
        ),
        [
            (
                flood["requests"],
                flood["groups"],
                flood["max_group"],
                flood["one_at_a_time_seconds"],
                flood["concurrent_seconds"],
                flood["batching_speedup"],
            )
        ],
        title="Same-shape flood: submitted concurrently vs awaited one at a time",
    )

    if not args.smoke:
        assert flood["batching_speedup"] >= 1.2, flood

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_service_async.json"
    payload = json_report_payload(
        "service_async",
        smoke=args.smoke,
        repeats=repeats,
        concurrent_clients=concurrent,
        flood=flood,
        single_flight=single_flight,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
