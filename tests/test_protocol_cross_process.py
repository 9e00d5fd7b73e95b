"""Cross-process stress: the real server in a subprocess, clients over TCP.

This is the gap the protocol layer exists to close — PR 4's stress suites
ran clients and service in one interpreter.  Here the server is spawned
as a genuinely separate process (``python -m repro.protocol.server``) and
16 concurrent TCP clients drive it from worker threads; every response is
byte-compared (identical attribute order, identical row sets) against
sequential in-process ``QueryEngine(parallel=False)`` answers, and
single-flight coalescing of the cross-client hot queries is observed
through the wire ``stats`` op.
"""

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro import QueryEngine
from repro.protocol import QueryClient
from repro.relational.io import save_database_json
from repro.workloads import chain_database
from repro.workloads.queries import path_query

CLIENTS = 16
PER_CLIENT = 8
READY_TIMEOUT = 60


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


@pytest.fixture(scope="module")
def server_process(chain_db, tmp_path_factory):
    """A real ``repro.protocol.server`` subprocess serving the workload."""
    path = tmp_path_factory.mktemp("protocol") / "chain.json"
    save_database_json(chain_db, str(path))
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.protocol.server",
            "--port",
            "0",
            "--database",
            f"chain={path}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready = process.stdout.readline()
        assert ready.startswith("QUERYSERVER READY"), (
            ready,
            process.stderr.read() if process.poll() is not None else "",
        )
        port = int(ready.rsplit("port=", 1)[1])
        yield ("127.0.0.1", port)
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()


def build_workload(chain_db):
    """Per client, a mix of hot (cross-client identical) and private
    decision instances plus a full evaluation — the shape mix the
    in-process stress uses, now crossing a process boundary."""
    query = path_query(4, head_arity=1)
    wide = path_query(3, head_arity=2)
    starts = sorted({row[0] for row in chain_db["E"].rows})
    hot = starts[:4]
    workload = []
    for client_index in range(CLIENTS):
        requests = []
        for i in range(PER_CLIENT):
            if i % 4 == 0:
                requests.append(("execute", wide))
            elif i % 2 == 0:
                value = hot[(i // 2) % len(hot)]
                requests.append(("decide", query.decision_instance((value,))))
            else:
                value = starts[(client_index * PER_CLIENT + i) % len(starts)]
                requests.append(("execute", query.decision_instance((value,))))
        workload.append(requests)
    return workload


def test_16_tcp_clients_match_sequential_byte_for_byte(server_process, chain_db):
    host, port = server_process
    workload = build_workload(chain_db)
    sequential = QueryEngine(parallel=False)
    reference = [
        [
            sequential.execute(query, chain_db)
            if kind == "execute"
            else sequential.decide(query, chain_db)
            for kind, query in requests
        ]
        for requests in workload
    ]

    results = [None] * CLIENTS
    errors = []

    def client_worker(index, requests):
        try:
            with QueryClient(host, port) as client:
                answers = []
                for kind, query in requests:
                    if kind == "execute":
                        answers.append(client.execute(query, "chain"))
                    else:
                        answers.append(client.decide(query, "chain"))
                results[index] = answers
        except BaseException as exc:  # noqa: BLE001 - surfaced by the assert
            errors.append((index, exc))

    threads = [
        threading.Thread(target=client_worker, args=(index, requests))
        for index, requests in enumerate(workload)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(READY_TIMEOUT)
    assert errors == []
    for got_list, want_list in zip(results, reference):
        assert got_list is not None
        for got, want in zip(got_list, want_list):
            assert got == want
            if hasattr(want, "rows"):
                # Byte-for-byte: same attribute tuple, same row set.
                assert got.attributes == want.attributes
                assert got.rows == want.rows

    with QueryClient(host, port) as client:
        stats = client.stats()
    counters = stats["service"]
    total = CLIENTS * PER_CLIENT
    assert counters["submitted"] + counters["coalesced"] >= total
    assert counters["failed"] == 0
    assert len(stats["clients"]) >= CLIENTS


def test_cross_process_hot_flood_coalesces(server_process, chain_db):
    """All 16 clients fire the same decision instance concurrently; the
    wire stats must show single-flight absorbing cross-process traffic
    (executions strictly below requests)."""
    host, port = server_process
    query = path_query(4, head_arity=1)
    starts = sorted({row[0] for row in chain_db["E"].rows})
    hot_instance = query.decision_instance((starts[0],))

    with QueryClient(host, port) as probe:
        before = probe.stats()

    barrier = threading.Barrier(CLIENTS)
    outcomes = [None] * CLIENTS
    errors = []

    def worker(index):
        try:
            with QueryClient(host, port) as client:
                barrier.wait(timeout=READY_TIMEOUT)
                answers = [
                    client.decide(hot_instance, "chain") for _ in range(4)
                ]
                outcomes[index] = answers
        except BaseException as exc:  # noqa: BLE001
            errors.append((index, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(READY_TIMEOUT)
    assert errors == []

    sequential = QueryEngine(parallel=False)
    want = sequential.decide(hot_instance, chain_db)
    assert all(answers == [want] * 4 for answers in outcomes)

    with QueryClient(host, port) as probe:
        after = probe.stats()
    requests = (
        after["service"]["submitted"]
        + after["service"]["coalesced"]
        - before["service"]["submitted"]
        - before["service"]["coalesced"]
    )
    work = (
        after["service"]["submitted"] - before["service"]["submitted"],
        after["service"]["coalesced"] - before["service"]["coalesced"],
        after["engine"]["executions"] - before["engine"]["executions"],
    )
    assert requests == CLIENTS * 4
    # Micro-batching plus single-flight: far fewer executions than
    # requests.  (Coalescing proper is also asserted in-process; across
    # processes, arrival jitter means we pin the aggregate effect.)
    assert work[2] < requests, work


def test_cross_process_counting_matches_local(server_process, chain_db):
    """Counting and aggregation over the subprocess boundary: 8 clients mix
    count/decide/forall/grouped_count and mixed-kind ``run_batch`` frames;
    every answer must equal the local sequential engine's."""
    from repro.operations import Operation

    host, port = server_process
    query = path_query(3, head_arity=2)
    sequential = QueryEngine(parallel=False)
    want_count = sequential.count(query, chain_db)
    want_grouped = sequential.grouped_count(query, chain_db, ("x0",))
    want_decide = sequential.decide(query, chain_db)
    want_forall = sequential.forall(query, chain_db)
    want_rows = sequential.execute(query, chain_db)
    assert want_count == want_rows.cardinality

    workers = 8
    outcomes = [None] * workers
    errors = []

    def worker(index):
        try:
            with QueryClient(host, port) as client:
                outcomes[index] = (
                    client.count(query, "chain"),
                    client.grouped_count(query, "chain", ("x0",)),
                    client.decide(query, "chain"),
                    client.forall(query, "chain"),
                    client.run_batch(
                        [
                            Operation.count(query),
                            Operation.execute(query),
                            Operation.decide(query),
                        ],
                        "chain",
                    ),
                )
        except BaseException as exc:  # noqa: BLE001
            errors.append((index, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(READY_TIMEOUT)
    assert errors == []
    for outcome in outcomes:
        assert outcome is not None
        count, grouped, decided, forall, batch = outcome
        assert count == want_count
        assert grouped == want_grouped
        assert grouped.rows == want_grouped.rows
        assert decided is want_decide
        assert forall is want_forall
        assert batch[0] == want_count
        assert batch[1] == want_rows and batch[1].rows == want_rows.rows
        assert batch[2] is True
