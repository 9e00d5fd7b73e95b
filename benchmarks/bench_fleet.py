"""FLEET — a supervised 2-worker fleet beside the single-server baseline.

The fleet's claim is availability, not speed:

* **availability under kill** — SIGKILLing one worker mid-flood loses
  **zero** client requests: failover re-routes the idempotent
  operations to the survivor while the supervisor respawns the victim;
* **what routing costs** — the same threaded client flood through
  ``FleetRouter`` across the 2-worker fleet and against one subprocess
  ``QueryServer``, as two absolute times.  No ratio is asserted: on the
  2-core sandbox the fleet runs the flood at 0.8–0.9× of the single
  server (its workers split what one server's single-flight map
  coalesces), so a second process is bought for surviving a kill.

Results are byte-compared against sequential ``QueryEngine(parallel=False)``
execution before anything is timed; worker spawn time is excluded from
the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke  # CI

``--smoke`` keeps workload sizes identical (the regression gate compares
leaves by path) and only leaves ``BENCH_fleet.json`` unwritten; the
availability assertions hold in both modes.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro import QueryEngine
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    time_thunk,
)
from repro.fleet import FleetRouter, FleetSupervisor
from repro.operations import Operation
from repro.protocol import QueryClient
from repro.relational.io import save_database_json
from repro.workloads import chain_database
from repro.workloads.queries import path_query

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_protocol_server import ServerProcess  # noqa: E402 — shared harness

WORKERS = 2
CLIENTS = 8
PER_CLIENT = 8


def build_workload(database) -> List[List[Operation]]:
    """Per client thread: one wide pair-enumerating execute (the CPU
    anchor, ~100 ms sequential) plus a hot/private decision mix — the
    protocol bench's shape, heavy enough that evaluation cost dominates
    the loopback wire and the worker count is what's being measured."""
    wide = path_query(3, head_arity=2)
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    hot = starts[:4]
    workload = []
    for client in range(CLIENTS):
        operations = [Operation.execute(wide)]
        for i in range(PER_CLIENT):
            if i % 2 == 0:
                value = hot[(i // 2) % len(hot)]
            else:
                value = starts[(client * PER_CLIENT + i) % len(starts)]
            operations.append(Operation.decide(query.decision_instance((value,))))
        workload.append(operations)
    return workload


def threaded_flood(run_lane, lanes: int):
    """Drive *lanes* client threads; returns (per-lane results, errors)."""
    results: List[Optional[List]] = [None] * lanes
    errors: List[BaseException] = []

    def lane_thread(lane: int) -> None:
        try:
            results[lane] = run_lane(lane)
        except BaseException as exc:  # noqa: BLE001 — availability verdict
            errors.append(exc)

    threads = [
        threading.Thread(target=lane_thread, args=(lane,)) for lane in range(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


def fleet_flood(router: FleetRouter, workload: List[List[Operation]]):
    def run_lane(lane: int) -> List:
        return [router.run(operation, "chain") for operation in workload[lane]]

    results, errors = threaded_flood(run_lane, len(workload))
    if errors:
        raise errors[0]
    return results


def single_server_flood(host: str, port: int, workload: List[List[Operation]]):
    def run_lane(lane: int) -> List:
        with QueryClient(host, port) as client:
            return [client.run(operation, "chain") for operation in workload[lane]]

    results, errors = threaded_flood(run_lane, len(workload))
    if errors:
        raise errors[0]
    return results


def run_fleet_vs_single(
    repeats: int, database, database_path: str
) -> Dict[str, Any]:
    workload = build_workload(database)
    sequential = QueryEngine(parallel=False)
    reference = [
        [sequential.run(operation, database) for operation in lane]
        for lane in workload
    ]

    def check(results) -> None:
        for got_list, want_list in zip(results, reference):
            for got, want in zip(got_list, want_list):
                assert got == want, "fleet diverged from sequential"
                if hasattr(want, "rows"):
                    assert got.rows == want.rows, "row order diverged"

    with FleetSupervisor({"chain": database_path}, workers=WORKERS) as supervisor:
        with FleetRouter(supervisor) as router:
            check(fleet_flood(router, workload))
            fleet_seconds, _ = time_thunk(
                lambda: fleet_flood(router, workload), repeats=repeats
            )
            routed = router.stats()["routed"]

    with ServerProcess(database_path) as server:
        check(single_server_flood(server.host, server.port, workload))
        single_seconds, _ = time_thunk(
            lambda: single_server_flood(server.host, server.port, workload),
            repeats=repeats,
        )

    return {
        "workers": WORKERS,
        "clients": CLIENTS,
        "requests": CLIENTS * (PER_CLIENT + 1),
        "fleet_seconds": fleet_seconds,
        "single_server_seconds": single_seconds,
        "workers_used": len(routed),
    }


def run_availability_under_kill(
    database, database_path: str, kill_after: float
) -> Dict[str, Any]:
    """SIGKILL one worker *kill_after* seconds into the flood — half the
    time the undisturbed flood was just measured to take, so the kill
    lands mid-flood however fast the machine is: count answered vs failed
    requests.

    Not a timing comparison (respawn backoff makes the elapsed time
    noisy by design) — the gated metric is availability: every request
    must answer, byte-identical to the sequential reference.
    """
    workload = build_workload(database)
    sequential = QueryEngine(parallel=False)
    reference = [
        [sequential.run(operation, database) for operation in lane]
        for lane in workload
    ]

    with FleetSupervisor({"chain": database_path}, workers=WORKERS) as supervisor:
        victim = supervisor.stats()["workers"][0]["pid"]
        with FleetRouter(supervisor) as router:
            timer = threading.Timer(
                kill_after, os.kill, args=(victim, signal.SIGKILL)
            )
            started = time.perf_counter()
            timer.start()
            try:
                results, errors = threaded_flood(
                    lambda lane: [
                        router.run(operation, "chain")
                        for operation in workload[lane]
                    ],
                    len(workload),
                )
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - started
            failovers = router.stats()["failovers"]

    answered = sum(len(lane) for lane in results if lane is not None)
    total = CLIENTS * (PER_CLIENT + 1)
    byte_identical = all(
        got == want and (not hasattr(want, "rows") or got.rows == want.rows)
        for got_list, want_list in zip(results, reference)
        if got_list is not None
        for got, want in zip(got_list, want_list)
    )
    return {
        "workers": WORKERS,
        "requests": total,
        "answered": answered,
        "failed": total - answered + len(errors),
        "availability": round(answered / total, 4),
        "byte_identical": byte_identical,
        "failovers": failovers,
        "elapsed_under_kill": round(elapsed, 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the CI configuration: do not write BENCH_fleet.json by default "
        "(workload sizes and best-of timings stay identical for the gate)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3

    # Narrower than bench_protocol_server's database: each lane anchors
    # on a pair-enumerating execute, and the per-request evaluation cost
    # (~100 ms) has to dominate the loopback wire for the two times to
    # measure the servers rather than TCP.
    database = chain_database(layers=6, width=40, p=0.22, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        database_path = os.path.join(tmp, "chain.json")
        save_database_json(database, database_path)
        comparison = run_fleet_vs_single(repeats, database, database_path)
        availability = run_availability_under_kill(
            database, database_path, kill_after=comparison["fleet_seconds"] / 2
        )

    print_table(
        ("workers", "clients", "requests", "fleet s", "single s"),
        [
            (
                comparison["workers"],
                comparison["clients"],
                comparison["requests"],
                comparison["fleet_seconds"],
                comparison["single_server_seconds"],
            )
        ],
        title=(
            f"{CLIENTS} threaded clients: {WORKERS}-worker fleet, and one "
            f"subprocess QueryServer (best of {repeats})"
        ),
    )
    print_table(
        ("requests", "answered", "failed", "availability", "failovers"),
        [
            (
                availability["requests"],
                availability["answered"],
                availability["failed"],
                availability["availability"],
                availability["failovers"],
            )
        ],
        title="Availability under SIGKILL of one worker mid-flood",
    )

    # Availability is the acceptance bar, smoke or not: a kill mid-flood
    # must lose nothing — and must have landed mid-flood (requests failed
    # over), or the run showed nothing.
    assert availability["failovers"] >= 1, availability
    assert availability["failed"] == 0, availability
    assert availability["availability"] == 1.0, availability
    assert availability["byte_identical"], availability

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_fleet.json"
    payload = json_report_payload(
        "fleet",
        smoke=args.smoke,
        repeats=repeats,
        fleet_vs_single=comparison,
        availability_under_kill=availability,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
