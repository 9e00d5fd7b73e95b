"""RESILIENCE — what the safety rails cost when idle and buy when needed.

The acceptance claims of the resilience layer:

* **faults-off overhead within noise** — the cooperative cancellation
  machinery (token activation, evaluator check-points, the deadline-aware
  waiter) costs no measurable wall-clock on a no-fault workload: against
  one server armed with a never-firing fault plan, the same TCP flood is
  timed plain and with every request carrying a far-away deadline (the
  bound, ``OVERHEAD_BOUND``, is derived from the ratio's own spread);
* **deadlines abort on time** — an adversarial cyclic query whose search
  runs for seconds answers ``deadline_exceeded`` within 2× its budget,
  wire time included;
* **retries heal injected faults** — with the server dropping
  connections on a deterministic schedule, a retrying client still gets
  byte-correct results for every request, and the healed run's cost is
  reported next to the clean run's.

Results are byte-compared against sequential ``QueryEngine(parallel=False)``
execution before anything is timed; server processes are spawned once per
configuration and excluded from the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke  # CI

``--smoke`` keeps workload sizes identical (the regression gate compares
leaves by path) and skips only the perf assertions.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from bench_protocol_server import ServerProcess

from repro import Database, QueryEngine
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    time_thunk,
)
from repro.protocol import AsyncQueryClient, RemoteQueryError
from repro.relational.io import save_database_json
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.faults import FAULTS_ENV_VAR
from repro.workloads import chain_database
from repro.workloads.queries import path_query

FLOOD_REQUESTS = 48
RETRY_REQUESTS = 24
DEADLINE = 0.5
OVERHEAD_STRIDE = 2
OVERHEAD_REPEATS = 8
#: Bound on ``overhead_ratio``, the median of the per-pair guarded / plain
#: ratios, derived from its spread with no fault and no deadline ever
#: firing: 20 server processes of this exact section (2-core x86-64 VM,
#: Python 3.11) read median 1.013, standard deviation 0.059, range
#: 0.887-1.152 (single pairs: 0.71-1.40).  Median + 3 sd = 1.19, so 1.20
#: is the smallest bound that an idle machinery passes ~always; a cost of
#: the machinery itself above ~20 % trips it.
OVERHEAD_BOUND = 1.20


def build_flood(database) -> List:
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    return [
        query.decision_instance((starts[i % len(starts)],))
        for i in range(FLOOD_REQUESTS)
    ]


def build_overhead_flood(database) -> List:
    """Distinct decision instances across three path lengths.

    Coalescing can't collapse distinct instances, so the flood's engine
    work scales with its size and the timed region is long enough
    (hundreds of milliseconds) for the overhead ratio to be stable.
    """
    starts = sorted({row[0] for row in database["E"].rows})[::OVERHEAD_STRIDE]
    return [
        path_query(length, head_arity=1).decision_instance((start,))
        for length in (3, 4, 5)
        for start in starts
    ]


def adversarial_database() -> Database:
    """A dense digraph whose 6-cycle query, head on opposite corners, has
    every one of its 100 × 100 head pairs as an answer: the search runs
    2.4–4 s (2-CPU x86-64 VM, Python 3.11), ≥ 4× ``DEADLINE`` — the
    workload deadlines exist to bound.  ``tests/conftest.py`` builds the
    same."""
    rng = random.Random(11)
    rows = {(rng.randrange(100), rng.randrange(100)) for _ in range(4000)}
    return Database.from_tuples({"E": sorted(rows)})


ADVERSARIAL_QUERY = (
    "Q(x1, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x6), E(x6, x1)."
)


async def flood_run(
    instances: List, host: str, port: int, deadline: Optional[float]
) -> List:
    async with await AsyncQueryClient.connect(host, port) as client:
        return list(
            await asyncio.gather(
                *(
                    client.execute(query, "chain", deadline=deadline)
                    for query in instances
                )
            )
        )


def run_no_fault_overhead(database, database_path: str) -> Dict[str, Any]:
    """The same flood, plain vs deadline'd, on one fault-armed server.

    The server runs the way a resilient deployment would: every fault
    site configured but none ever reached, so the per-response site
    checks are live.  Against that single process, a plain flood and a
    flood carrying a far-away deadline on every request run back to back
    for ``OVERHEAD_REPEATS`` pairs, the first of a pair alternating, and
    the median of the per-pair ratios is reported.

    One process on purpose: separate bare/armed server processes carry
    a per-process placement bias (cores, memory layout) of a few
    percent for their whole life, which interleaving cannot cancel and
    which would drown the machinery cost being measured here.
    """
    instances = build_overhead_flood(database)
    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]

    # Armed but silent: every site configured, none ever reached.
    idle_plan = FaultPlan(
        {site: {"after": 10**9} for site in ("pool.worker_crash", "server.delay")}
    )

    previous = os.environ.pop(FAULTS_ENV_VAR, None)
    os.environ[FAULTS_ENV_VAR] = idle_plan.to_env()
    try:
        server_cm = ServerProcess(database_path)
    finally:
        os.environ.pop(FAULTS_ENV_VAR, None)
        if previous is not None:
            os.environ[FAULTS_ENV_VAR] = previous
    with server_cm as server:
        configs = [("plain", None), ("guarded", 60.0)]
        samples: Dict[str, List[float]] = {"plain": [], "guarded": []}
        ratios: List[float] = []
        for label, deadline in configs:
            results = asyncio.run(
                flood_run(instances, server.host, server.port, deadline)
            )
            assert results == reference, f"{label} flood diverged from sequential"
        for repeat in range(OVERHEAD_REPEATS):
            # Whichever flood runs second in a pair reads ~1 % slower;
            # alternating which goes first cancels that bias.
            for label, deadline in (configs if repeat % 2 else configs[::-1]):
                started = time.monotonic()
                asyncio.run(
                    flood_run(instances, server.host, server.port, deadline)
                )
                samples[label].append(time.monotonic() - started)
            ratios.append(samples["guarded"][-1] / samples["plain"][-1])
    return {
        "requests": len(instances),
        "plain_seconds": round(statistics.median(samples["plain"]), 4),
        "guarded_seconds": round(statistics.median(samples["guarded"]), 4),
        "overhead_ratio": round(statistics.median(ratios), 3),
    }


async def deadline_probe(host: str, port: int) -> Dict[str, Any]:
    async with await AsyncQueryClient.connect(host, port) as client:
        started = time.monotonic()
        code = None
        try:
            await client.execute(ADVERSARIAL_QUERY, "chain", deadline=DEADLINE)
        except RemoteQueryError as error:
            code = error.code
        elapsed = time.monotonic() - started
        # The lane is free again: a trivial query answers promptly.
        followup_started = time.monotonic()
        await client.execute("Q(x) :- E(x, y).", "chain", deadline=30.0)
        followup = time.monotonic() - followup_started
    return {"code": code, "elapsed": elapsed, "followup_seconds": followup}


def run_deadline_abort(slow_path: str) -> Dict[str, Any]:
    with ServerProcess(slow_path) as server:
        probe = asyncio.run(deadline_probe(server.host, server.port))
    assert probe["code"] == "deadline_exceeded", probe
    return {
        "deadline_seconds": DEADLINE,
        "abort_seconds": round(probe["elapsed"], 4),
        "abort_ratio": round(probe["elapsed"] / DEADLINE, 3),
        "followup_seconds": round(probe["followup_seconds"], 4),
    }


async def retry_run(instances: List, host: str, port: int) -> Dict[str, Any]:
    client = await AsyncQueryClient.connect(
        host,
        port,
        retry=RetryPolicy(max_attempts=6, base_delay=0.02),
        rng=random.Random(17),
    )
    try:
        results = []
        for query in instances:
            results.append(await client.execute(query, "chain"))
        return {"results": results, "reconnects": client.reconnects}
    finally:
        await client.aclose()


def run_fault_recovery(repeats: int, database, database_path: str) -> Dict[str, Any]:
    """Dropped connections on a schedule vs a clean run, retries healing."""
    instances = build_flood(database)[:RETRY_REQUESTS]
    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]

    with ServerProcess(database_path) as server:
        clean_seconds, clean = time_thunk(
            lambda: asyncio.run(retry_run(instances, server.host, server.port)),
            repeats=repeats,
        )
        assert clean["results"] == reference, "clean retry run diverged"

    drop_plan = FaultPlan({"server.drop": {"after": 4, "times": 3}})
    previous = os.environ.pop(FAULTS_ENV_VAR, None)
    os.environ[FAULTS_ENV_VAR] = drop_plan.to_env()
    try:
        with ServerProcess(database_path) as server:
            started = time.monotonic()
            healed = asyncio.run(retry_run(instances, server.host, server.port))
            faulted_seconds = time.monotonic() - started
    finally:
        os.environ.pop(FAULTS_ENV_VAR, None)
        if previous is not None:
            os.environ[FAULTS_ENV_VAR] = previous
    assert healed["results"] == reference, "faulted retry run diverged"
    assert healed["reconnects"] >= 1, healed["reconnects"]
    return {
        "requests": len(instances),
        "injected_drops": 3,
        "clean_seconds": round(clean_seconds, 4),
        "faulted_seconds": round(faulted_seconds, 4),
        "reconnects": healed["reconnects"],
        "recovery_ratio": round(faulted_seconds / clean_seconds, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="skip perf assertions — workload sizes and best-of-3 timings "
        "stay identical for the regression gate",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    repeats = 3

    # Overhead section: per-request evaluation (~20 ms sequential) has to
    # dominate the fixed per-request cost of the deadline waiter (one
    # ``wait_for`` + ``shield`` pair, ~0.1 ms) for the ratio to measure
    # the machinery rather than event-loop scheduling noise.
    heavy = chain_database(layers=6, width=140, p=0.18, seed=7)
    database = chain_database(layers=6, width=72, p=0.22, seed=7)
    slow_db = adversarial_database()
    with tempfile.TemporaryDirectory() as tmp:
        heavy_path = os.path.join(tmp, "heavy.json")
        database_path = os.path.join(tmp, "chain.json")
        slow_path = os.path.join(tmp, "slow.json")
        save_database_json(heavy, heavy_path)
        save_database_json(database, database_path)
        save_database_json(slow_db, slow_path)
        overhead = run_no_fault_overhead(heavy, heavy_path)
        deadline = run_deadline_abort(slow_path)
        recovery = run_fault_recovery(repeats, database, database_path)

    print_table(
        ("requests", "plain s", "guarded s", "overhead"),
        [
            (
                overhead["requests"],
                overhead["plain_seconds"],
                overhead["guarded_seconds"],
                overhead["overhead_ratio"],
            )
        ],
        title=(
            f"No-fault overhead: plain vs deadline'd flood on a fault-armed "
            f"server (median of {OVERHEAD_REPEATS})"
        ),
    )
    print_table(
        ("deadline s", "abort s", "ratio", "follow-up s"),
        [
            (
                deadline["deadline_seconds"],
                deadline["abort_seconds"],
                deadline["abort_ratio"],
                deadline["followup_seconds"],
            )
        ],
        title="Deadline abort: adversarial cyclic query over the wire",
    )
    print_table(
        ("requests", "drops", "clean s", "faulted s", "reconnects", "ratio"),
        [
            (
                recovery["requests"],
                recovery["injected_drops"],
                recovery["clean_seconds"],
                recovery["faulted_seconds"],
                recovery["reconnects"],
                recovery["recovery_ratio"],
            )
        ],
        title="Fault recovery: injected connection drops healed by client retry",
    )

    if not args.smoke:
        assert overhead["overhead_ratio"] < OVERHEAD_BOUND, overhead
        assert deadline["abort_ratio"] < 2.0, deadline

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_resilience.json"
    payload = json_report_payload(
        "resilience",
        smoke=args.smoke,
        repeats=repeats,
        no_fault_overhead=overhead,
        deadline_abort=deadline,
        fault_recovery=recovery,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
