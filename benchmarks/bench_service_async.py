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
  not a timing);
* **what the service adds to one request** — the same distinct
  operations awaited one at a time, through ``engine.run`` and through
  ``QueryService.run`` from text: ``service_overhead_us`` is the
  difference per request.  Every text repeats, as on the wire, so after
  a warm-up pass every lookup hits the parse memo; a second leg sends
  texts that are all distinct, so every lookup misses and parses.  The
  record runs on one CPU, as the e2e benchmark does: a request hops from
  the event loop to a worker thread and back, and a hop across idle CPUs
  costs a wake-up latency that swings with the machine, not the code.

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
import contextlib
import os
import sys
import time
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
from repro.operations import DECIDE, Operation
from repro.query.parser import parse_query
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
            return results, (await service.stats())["service"]

    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]
    results, counters = asyncio.run(flood(True))
    assert results == reference
    assert counters["max_group"] > 1, counters  # the backlog batched itself
    results, alone = asyncio.run(flood(False))
    assert results == reference
    assert alone["batched"] == 0 and alone["groups"] == len(instances), alone

    concurrent_seconds, _ = time_thunk(
        lambda: asyncio.run(flood(True)), repeats=repeats
    )
    one_at_a_time_seconds, _ = time_thunk(
        lambda: asyncio.run(flood(False)), repeats=repeats
    )
    return {
        "requests": len(instances),
        "groups": counters["groups"],
        "max_group": counters["max_group"],
        "one_at_a_time_seconds": one_at_a_time_seconds,
        "concurrent_seconds": concurrent_seconds,
        "batching_speedup": round(
            speedup(one_at_a_time_seconds, concurrent_seconds), 2
        ),
    }


@contextlib.contextmanager
def one_cpu():
    """Run the block on this thread's lowest CPU; threads it starts inherit
    the mask.  A no-op where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def run_per_request(repeats: int, distinct: int, rounds: int) -> Dict[str, Any]:
    """Engine vs service per request, awaited one at a time on one CPU
    (best of *repeats* for each leg)."""
    database = chain_database(layers=5, width=48, p=0.25, seed=7)
    starts = sorted({row[0] for row in database["E"].rows})[:distinct]
    body = "E({}, x1), E(x1, x2), E(x2, x3), E(x3, x4)."

    def texts(head: str):
        return [f"{head}() :- " + body.format(start) for start in starts]

    repeated = [Operation(DECIDE, text) for text in texts("ANS")] * rounds
    parsed = [Operation(DECIDE, parse_query(op.query)) for op in repeated]
    # The head name is cosmetic: these decide exactly what ``repeated``
    # does, but no text occurs twice across all repeats.
    fresh = [
        [
            Operation(DECIDE, text)
            for index in range(rounds)
            for text in texts(f"Q{repeat}x{index}")
        ]
        for repeat in range(repeats + 1)
    ]

    async def scenario():
        async with QueryService() as service:
            engine = service.engine
            answers = [engine.run(op, database) for op in parsed]
            assert [await service.run(op, database) for op in repeated] == answers
            assert [await service.run(op, database) for op in fresh[0]] == answers
            legs = ("engine", "service", "service_all_distinct")
            best = dict.fromkeys(legs, float("inf"))
            for repeat in range(1, repeats + 1):
                start = time.perf_counter()
                for op in parsed:
                    engine.run(op, database)
                middle = time.perf_counter()
                for op in repeated:
                    await service.run(op, database)
                end = time.perf_counter()
                for op in fresh[repeat]:
                    await service.run(op, database)
                last = time.perf_counter()
                best["engine"] = min(best["engine"], middle - start)
                best["service"] = min(best["service"], end - middle)
                best["service_all_distinct"] = min(
                    best["service_all_distinct"], last - end
                )
            return best

    with one_cpu():
        best = asyncio.run(scenario())
    requests = len(repeated)
    return {
        "requests": requests,
        "distinct_texts": len(starts),
        "engine_seconds": best["engine"],
        "service_seconds": best["service"],
        "service_all_distinct_seconds": best["service_all_distinct"],
        "service_overhead_us": round(
            (best["service"] - best["engine"]) / requests * 1e6, 1
        ),
        "parse_miss_us": round(
            (best["service_all_distinct"] - best["service"]) / requests * 1e6, 1
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
    assert stats["engine"]["executions"] == 1, stats["engine"]["executions"]
    assert stats["engine"]["cache"]["misses"] == 1, stats["engine"]["cache"]
    assert stats["service"]["coalesced"] == requests - 1, stats["service"]
    return {
        "requests": requests,
        "engine_executions": stats["engine"]["executions"],
        "plans": stats["engine"]["cache"]["misses"],
        "coalesced": stats["service"]["coalesced"],
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
    per_request = run_per_request(5, distinct=32, rounds=8)

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
    print_table(
        (
            "requests",
            "engine s",
            "service s",
            "all-distinct s",
            "overhead us/req",
            "parse miss us/req",
        ),
        [
            (
                per_request["requests"],
                per_request["engine_seconds"],
                per_request["service_seconds"],
                per_request["service_all_distinct_seconds"],
                per_request["service_overhead_us"],
                per_request["parse_miss_us"],
            )
        ],
        title="One request at a time: engine.run vs QueryService.run from text "
        "(best of 5)",
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
        per_request=per_request,
        single_flight=single_flight,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
