"""PROTOCOL — a real server process over TCP.

What this file measures of the networked protocol layer:

* **concurrent TCP clients** — N clients multiplexed onto one
  *subprocess* ``QueryServer`` (one plan cache, single-flight, backlog
  batching, fairness lanes — plus real wire costs: JSON framing, loopback
  TCP, process isolation) finishing the mixed workload, as an absolute
  time with the server's coalesced / batched counts beside it (the
  end-to-end cost of a request is the e2e benchmark's question,
  ``benchmarks/e2e``);
* **backlog batching survives the wire** — a same-shape flood pipelined
  over one connection queues up behind the server's dispatchers, joins
  one group and runs through N-wide lifted executions, beating the same
  requests sent one at a time over the same connection;
* **binary relation frames shrink bulk payloads and are no slower** — a
  connection that negotiates the ``relation-columns-v2`` framing (each
  integer column one fixed-width array, any other column one JSON array)
  receives the same result relations in measurably fewer bytes than the
  JSON lines, in no more time (``binary_over_json`` <= 1.0: the ROADMAP's
  condition for keeping the framing), with equal decoded results.

Results are compared against sequential ``QueryEngine(parallel=False)``
execution before anything is timed; server processes are spawned once per
configuration and excluded from the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_protocol_server.py
    PYTHONPATH=src python benchmarks/bench_protocol_server.py --smoke  # CI

``--smoke`` keeps workload sizes identical (the regression gate compares
leaves by path) and skips only the perf assertions.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

import repro
from repro import QueryEngine
from repro.benchlib import (
    add_json_argument,
    emit_json_report,
    json_report_payload,
    print_table,
    speedup,
    time_thunk,
)
from repro.protocol import (
    AsyncQueryClient,
    QueryClient,
    Response,
    encode,
    encode_binary,
    encode_relation,
)
from repro.relational.io import save_database_json
from repro.workloads import chain_database
from repro.workloads.queries import path_query

CLIENTS = 16
PER_CLIENT = 8
FLOOD_REQUESTS = 64
BULK_REQUESTS = 24


def build_workload(clients: int, per_client: int, database) -> List[List]:
    """Per client, a list of decision instances: half *hot* (identical
    across clients — what single-flight and the plan cache exist for),
    half client-specific.  The same mix ``bench_service_async`` uses,
    now crossing a process boundary."""
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


class ServerProcess:
    """A ``repro.protocol.server`` subprocess bound to a free port."""

    def __init__(self, database_path: str) -> None:
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.protocol.server",
                "--port",
                "0",
                "--database",
                f"chain={database_path}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        ready = self.process.stdout.readline()
        if not ready.startswith("QUERYSERVER READY"):
            stderr = ""
            if self.process.poll() is not None:
                stderr = self.process.stderr.read()
            raise RuntimeError(f"server failed to start: {ready!r} {stderr}")
        self.host = "127.0.0.1"
        self.port = int(ready.rsplit("port=", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                self.process.kill()
                self.process.communicate()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


async def tcp_clients_run(workload: List[List], host: str, port: int) -> List[List]:
    """Every client on its own TCP connection, requests sent in order."""
    clients = [
        await AsyncQueryClient.connect(host, port) for _ in range(len(workload))
    ]

    async def one_client(client, requests):
        return [await client.execute(query, "chain") for query in requests]

    try:
        return list(
            await asyncio.gather(
                *(
                    one_client(client, requests)
                    for client, requests in zip(clients, workload)
                )
            )
        )
    finally:
        for client in clients:
            await client.aclose()


def run_concurrent_clients(
    repeats: int, database, database_path: str
) -> Dict[str, Any]:
    workload = build_workload(CLIENTS, PER_CLIENT, database)
    sequential = QueryEngine(parallel=False)
    reference = [
        [sequential.execute(q, database) for q in requests] for requests in workload
    ]

    with ServerProcess(database_path) as server:
        shared = asyncio.run(tcp_clients_run(workload, server.host, server.port))
        for got_list, want_list in zip(shared, reference):
            for got, want in zip(got_list, want_list):
                assert got == want and got.rows == want.rows, (
                    "server diverged from sequential"
                )
        shared_seconds, _ = time_thunk(
            lambda: asyncio.run(
                tcp_clients_run(workload, server.host, server.port)
            ),
            repeats=repeats,
        )
        with QueryClient(server.host, server.port) as probe:
            stats = probe.stats()

    return {
        "clients": CLIENTS,
        "requests": CLIENTS * PER_CLIENT,
        "shared_seconds": shared_seconds,
        "coalesced": stats["service"]["coalesced"],
        "batched": stats["service"]["batched"],
    }


async def flood_run(instances: List, host: str, port: int, pipelined: bool) -> List:
    async with await AsyncQueryClient.connect(host, port) as client:
        if pipelined:
            return list(
                await asyncio.gather(
                    *(client.execute(query, "chain") for query in instances)
                )
            )
        return [await client.execute(query, "chain") for query in instances]


def run_flood(repeats: int, database, database_path: str) -> Dict[str, Any]:
    """Same-shape flood on one connection: pipelined vs one at a time."""
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in database["E"].rows})
    instances = [
        query.decision_instance((starts[i % len(starts)],))
        for i in range(FLOOD_REQUESTS)
    ]
    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]

    timings = {}
    with ServerProcess(database_path) as server:
        for label, pipelined in [("pipelined", True), ("one_at_a_time", False)]:
            flood = asyncio.run(
                flood_run(instances, server.host, server.port, pipelined)
            )
            assert flood == reference, f"{label} flood diverged from sequential"
            timings[label], _ = time_thunk(
                lambda pipelined=pipelined: asyncio.run(
                    flood_run(instances, server.host, server.port, pipelined)
                ),
                repeats=repeats,
            )
        with QueryClient(server.host, server.port) as probe:
            max_group = probe.stats()["service"]["max_group"]
    assert max_group > 1, max_group  # the pipelined backlog batched itself
    return {
        "requests": len(instances),
        "max_group": max_group,
        "one_at_a_time_seconds": timings["one_at_a_time"],
        "pipelined_seconds": timings["pipelined"],
        "batching_speedup": round(
            speedup(timings["one_at_a_time"], timings["pipelined"]), 2
        ),
    }


async def bulk_run(instances: List, host: str, port: int, binary: bool) -> List:
    async with await AsyncQueryClient.connect(
        host, port, binary_frames=binary
    ) as client:
        assert client.binary_frames == binary
        return list(
            await asyncio.gather(
                *(client.execute(query, "chain") for query in instances)
            )
        )


def run_binary_frames(
    repeats: int, database, database_path: str
) -> Dict[str, Any]:
    """Bulk result relations over one connection: JSON lines vs the
    negotiated binary relation framing, same server process."""
    instances = [
        path_query(length, head_arity=2) for length in (2, 3, 4)
    ] * (BULK_REQUESTS // 3)
    sequential = QueryEngine(parallel=False)
    reference = [sequential.execute(q, database) for q in instances]

    with ServerProcess(database_path) as server:
        json_results = asyncio.run(
            bulk_run(instances, server.host, server.port, binary=False)
        )
        binary_results = asyncio.run(
            bulk_run(instances, server.host, server.port, binary=True)
        )
        assert json_results == reference, "JSON bulk run diverged from sequential"
        assert binary_results == reference, "binary bulk run diverged"
        # Best of *repeats* each, taken in turn: the two timings are read
        # as a ratio, and a core that changes speed must hit both alike.
        best = {False: float("inf"), True: float("inf")}
        for _ in range(repeats):
            for binary in best:
                seconds, _ = time_thunk(
                    lambda: asyncio.run(
                        bulk_run(instances, server.host, server.port, binary=binary)
                    ),
                    repeats=1,
                )
                best[binary] = min(best[binary], seconds)
        json_seconds, binary_seconds = best[False], best[True]

    # Payload accounting: the exact bytes each framing puts on the wire
    # for the result relations of this workload.
    json_bytes = 0
    binary_bytes = 0
    for index, relation in enumerate(reference):
        response = Response(
            id=index, kind="relation", result=encode_relation(relation)
        )
        line = encode(response)
        frame = encode_binary(response)
        json_bytes += len(line)
        binary_bytes += len(frame) if frame is not None else len(line)
    return {
        "requests": len(instances),
        "json_seconds": json_seconds,
        "binary_seconds": binary_seconds,
        "binary_over_json": round(binary_seconds / json_seconds, 2),
        "json_payload_bytes": json_bytes,
        "binary_payload_bytes": binary_bytes,
        "payload_ratio": round(binary_bytes / json_bytes, 3),
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

    database = chain_database(layers=6, width=72, p=0.22, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        database_path = os.path.join(tmp, "chain.json")
        save_database_json(database, database_path)
        concurrent = run_concurrent_clients(repeats, database, database_path)
        flood = run_flood(repeats, database, database_path)
        frames = run_binary_frames(repeats, database, database_path)

    print_table(
        ("clients", "requests", "shared TCP s", "coalesced", "batched"),
        [
            (
                concurrent["clients"],
                concurrent["requests"],
                concurrent["shared_seconds"],
                concurrent["coalesced"],
                concurrent["batched"],
            )
        ],
        title=(
            f"{CLIENTS} TCP clients on one subprocess QueryServer "
            f"(best of {repeats})"
        ),
    )
    print_table(
        ("requests", "max group", "one at a time s", "pipelined s", "speedup"),
        [
            (
                flood["requests"],
                flood["max_group"],
                flood["one_at_a_time_seconds"],
                flood["pipelined_seconds"],
                flood["batching_speedup"],
            )
        ],
        title="Same-shape flood over one connection: pipelined vs one at a time",
    )
    print_table(
        (
            "requests", "json s", "binary s", "binary/json",
            "json bytes", "binary bytes", "ratio",
        ),
        [
            (
                frames["requests"],
                frames["json_seconds"],
                frames["binary_seconds"],
                frames["binary_over_json"],
                frames["json_payload_bytes"],
                frames["binary_payload_bytes"],
                frames["payload_ratio"],
            )
        ],
        title="Bulk result relations: JSON lines vs negotiated binary frames",
    )

    if not args.smoke:
        assert flood["batching_speedup"] >= 1.2, flood
        assert frames["payload_ratio"] <= 0.75, frames
        assert frames["binary_over_json"] <= 1.0, frames

    output = args.json
    if output is None and not args.smoke:
        output = "BENCH_protocol_server.json"
    payload = json_report_payload(
        "protocol_server",
        smoke=args.smoke,
        repeats=repeats,
        concurrent_clients=concurrent,
        flood=flood,
        binary_frames=frames,
    )
    emit_json_report(output, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
