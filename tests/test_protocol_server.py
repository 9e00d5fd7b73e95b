"""In-process protocol tests: a real TCP server on localhost, asyncio end.

Covers the wire facade (every op against sequential-engine references),
the structured error taxonomy (connections survive every failure), the
per-client fairness and backpressure semantics the FairQueue provides,
graceful drain, and both client flavors.  The *cross-process* stress —
the same server in a real subprocess — lives in
``test_protocol_cross_process.py``.
"""

import asyncio
import os
import threading

import pytest

from repro import QueryEngine
from repro.protocol import (
    AsyncQueryClient,
    QueryClient,
    QueryServer,
    RemoteQueryError,
)
from repro.workloads import chain_database, star_database
from repro.operations import COUNT, DECIDE, EXECUTE, operations_of
from repro.workloads.queries import path_query, star_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


@pytest.fixture(scope="module")
def star_db():
    return star_database(3, 120, seed=5)


@pytest.fixture(scope="module")
def sequential():
    return QueryEngine(parallel=False)


def run(coroutine):
    return asyncio.run(coroutine)


class TestFacadeOverTheWire:
    def test_every_op_matches_sequential(self, chain_db, star_db, sequential):
        query = path_query(4, head_arity=1)
        star = star_query(3)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryServer({"chain": chain_db, "star": star_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    executed = await client.execute(query, "chain")
                    decided = await client.decide(star, "star")
                    batch = await client.run_batch(operations_of(EXECUTE, instances), "chain")
                    decisions = await client.run_batch(operations_of(DECIDE, instances), "chain")
                    rendering = await client.explain(query, "chain")
                    stats = await client.stats()
                    assert await client.ping()
            return executed, decided, batch, decisions, rendering, stats

        executed, decided, batch, decisions, rendering, stats = run(main())
        want = sequential.execute(query, chain_db)
        assert executed == want
        assert executed.rows == want.rows  # byte-identical content
        assert decided == sequential.decide(star, star_db)
        assert batch == [sequential.execute(q, chain_db) for q in instances]
        assert decisions == [sequential.decide(q, chain_db) for q in instances]
        assert "QueryPlan" in rendering
        assert stats["service"]["completed"] >= 2 + 2 * len(instances)
        assert stats["clients"][0]["client"] == "conn-1"

    def test_text_queries_over_the_wire(self, chain_db, sequential):
        text = "Q(x, y) :- E(x, y)."

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    return await client.execute(text, "chain")

        from repro import parse_query

        assert run(main()) == sequential.execute(parse_query(text), chain_db)

    def test_sync_client_from_thread(self, chain_db, sequential):
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address

                def work():
                    with QueryClient(host, port) as client:
                        result = client.execute(query, "chain")
                        decision = client.decide(query, "chain")
                        return result, decision

                return await asyncio.to_thread(work)

        result, decision = run(main())
        assert result == sequential.execute(query, chain_db)
        assert decision == sequential.decide(query, chain_db)


class TestErrorTaxonomy:
    def test_structured_errors_and_surviving_connection(self, chain_db):
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    observed = {}
                    for label, coroutine in [
                        ("parse", client.execute("Q(x) :- ", "chain")),
                        ("unknown_db", client.execute(query, "nope")),
                        ("schema", client.execute("Q(x) :- Missing(x).", "chain")),
                        ("unsafe", client.execute("Q(z) :- E(x, y).", "chain")),
                    ]:
                        with pytest.raises(RemoteQueryError) as excinfo:
                            await coroutine
                        observed[label] = excinfo.value
                    # The connection survived four failures.
                    result = await client.execute(query, "chain")
                    stats = await client.stats()
            return observed, result, stats

        observed, result, stats = run(main())
        assert observed["parse"].code == "parse_error"
        assert observed["parse"].detail["line"] == 1
        assert observed["parse"].detail["position"] >= 0
        assert observed["unknown_db"].code == "unknown_database"
        assert observed["schema"].code == "schema_error"
        assert observed["unsafe"].code == "invalid_query"
        assert result.cardinality > 0
        assert stats["service"]["completed"] >= 1

    def test_raw_garbage_frames_get_error_responses(self, chain_db):
        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                responses = []
                for line in [
                    b"this is not json\n",
                    b'{"v": 99, "op": "ping", "id": 4}\n',
                    b'{"v": 3, "op": "frobnicate", "id": 7}\n',
                    b'{"v": 3, "ok": true, "kind": "pong", "result": null, "id": 1}\n',
                    # A version 1 peer spells relations as rows: refused by
                    # version, not misread as a malformed request.
                    b'{"v": 1, "op": "ping", "id": 9}\n',
                ]:
                    writer.write(line)
                    await writer.drain()
                    responses.append(await reader.readline())
                writer.close()
                return responses

        from repro.protocol import decode

        responses = [decode(line) for line in run(main())]
        assert [r.error.code for r in responses] == [
            "not_json",
            "unsupported_version",
            "bad_request",
            "bad_request",
            "unsupported_version",
        ]
        # Best-effort id attribution: valid JSON frames keep their id.
        assert responses[1].id == 4
        assert responses[2].id == 7
        assert responses[4].id == 9

    def test_batch_with_one_bad_member_fails_whole_batch(self, chain_db):
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await client.run_batch(
                            operations_of(EXECUTE, [query, "E(x :-"]), "chain"
                        )
                    return excinfo.value.code

        assert run(main()) == "parse_error"

    def test_malformed_columns_are_bad_requests_not_data(self, chain_db):
        """A ``register_database`` whose relation is not attributes, one
        array of exactly ``cardinality`` scalars per attribute and an integer
        ``cardinality`` ≥ 0 is refused as ``bad_request``, and the connection
        keeps serving."""
        import json

        good = {"attributes": ["x", "y"], "cardinality": 2, "columns": [[1, 2], [2, 3]]}
        hostile = {
            "columns missing": {"attributes": ["x", "y"], "cardinality": 2},
            "columns an object": {**good, "columns": {"x": [1, 2], "y": [2, 3]}},
            "a column that is a string": {**good, "columns": ["ab", [2, 3]]},
            "a column that is an object": {**good, "columns": [{"a": 1}, [2, 3]]},
            "a short column": {**good, "columns": [[1, 2], [2]]},
            "a long column": {**good, "columns": [[1, 2, 3], [2, 3]]},
            "cardinality missing": {"attributes": ["x", "y"], "columns": [[1], [2]]},
            "cardinality negative": {**good, "cardinality": -1},
            "cardinality true": {**good, "cardinality": True, "columns": [[1], [2]]},
            "cardinality 1.5": {**good, "cardinality": 1.5},
            "nullary, cardinality 2": {
                "attributes": [], "cardinality": 2, "columns": []
            },
            "fewer columns than attributes": {**good, "columns": [[1, 2]]},
            "an array as a value": {**good, "columns": [[1, [2]], [2, 3]]},
            "an object as a value": {**good, "columns": [[1, {"k": 2}], [2, 3]]},
            # Distinct rows are born as their columns, the hash check
            # meeting the unhashable cell: refused all the same.
            "an array in the last row": {**good, "columns": [[1, 2], [2, [3]]]},
        }
        labels = list(hostile)

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                answers = []
                for number, relation in enumerate([*hostile.values(), good]):
                    frame = {
                        "v": 3, "op": "register_database", "id": number,
                        "database": "fresh",
                        "data": {"relations": {"E": relation}},
                    }
                    writer.write(json.dumps(frame).encode() + b"\n")
                    await writer.drain()
                    answers.append(json.loads(await reader.readline()))
                writer.close()
                async with await AsyncQueryClient.connect(host, port) as client:
                    registered = await client.execute("Q(x, y) :- E(x, y).", "fresh")
            return answers, registered

        answers, registered = run(main())
        for number, answer in enumerate(answers[:-1]):
            assert (answer["id"], answer["ok"]) == (number, False), labels[number]
            assert answer["error"]["code"] == "bad_request", labels[number]
        assert answers[-1]["ok"] and answers[-1]["kind"] == "registered"
        assert registered.rows == {(1, 2), (2, 3)}

    def test_a_declared_domain_round_trips_and_a_bad_one_is_never_sent(
        self, chain_db
    ):
        """``register_database`` carries a declared domain to the server;
        one JSON cannot carry raises ``unrepresentable`` at the client,
        before a byte is sent (it used to be dropped without a word)."""
        from repro import Database, Relation
        from repro.protocol import ProtocolError

        edges = Relation.from_rows(("x", "y"), [(1, 2)])
        declared = Database({"E": edges}, domain=[1, 2, "three", None])
        tuple_valued = Database({"E": edges}, domain=[1, 2, (3, 4)])

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    await client.register_database("declared", declared)
                    await client.register_database("chain_copy", chain_db)
                    # A local ProtocolError, not the server's RemoteQueryError.
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.register_database("bad", tuple_valued)
                    served = await client.ping()
                held = dict(server._databases)
            return held, excinfo.value, served

        held, error, served = run(main())
        assert held["declared"].declared_domain == frozenset({1, 2, "three", None})
        assert held["chain_copy"].declared_domain == chain_db.declared_domain
        assert error.code == "unrepresentable" and "(3, 4)" in str(error)
        assert "bad" not in held and served

    @pytest.mark.parametrize("binary_frames", [False, True], ids=["json", "binary"])
    def test_unrepresentable_result_is_a_typed_error(
        self, binary_frames, monkeypatch
    ):
        """A result holding a value JSON cannot carry answers
        ``unrepresentable`` on either framing — found when the result is
        checked, before any response is built, never inside ``send`` — and
        the connection keeps serving."""
        import repro.protocol.server as server_module
        from repro import Database, Relation

        nested = Database(
            {"E": Relation.from_rows(("x", "y"), [(1, 2), (2, (3, 4))])}
        )
        sent = []
        send = server_module._Connection.send

        async def spy(connection, response):
            sent.append(response)
            await send(connection, response)

        monkeypatch.setattr(server_module._Connection, "send", spy)

        async def main():
            async with QueryServer({"nested": nested}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(
                    host, port, binary_frames=binary_frames
                ) as client:
                    assert client.binary_frames == binary_frames
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await client.execute("Q(x, y) :- E(x, y).", "nested")
                    batch = client.run_batch(
                        operations_of(EXECUTE, ["Q(x, y) :- E(x, y)."]), "nested"
                    )
                    with pytest.raises(RemoteQueryError) as in_batch:
                        await batch
                    # Same connection, next requests: served.
                    count = await client.count("Q(x, y) :- E(x, y).", "nested")
                    firsts = await client.execute("Q(x) :- E(x, y).", "nested")
            return excinfo.value, in_batch.value, count, firsts

        error, in_batch, count, firsts = run(main())
        assert error.code == in_batch.code == "unrepresentable"
        assert "(3, 4)" in error.remote_message
        assert (count, firsts.rows) == (2, {(1,), (2,)})
        # send() was handed the two errors, never a response to fail on.
        assert [r.kind for r in sent if r.kind != "pong"] == [
            "error", "error", "count", "relation",
        ]


class TestSingleFlightAcrossConnections:
    def test_identical_pipelined_requests_coalesce(self, chain_db):
        query = path_query(4, head_arity=1)
        clients, per_client = 4, 8

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                connections = [
                    await AsyncQueryClient.connect(host, port)
                    for _ in range(clients)
                ]
                try:
                    results = await asyncio.gather(
                        *(
                            connection.execute(query, "chain")
                            for connection in connections
                            for _ in range(per_client)
                        )
                    )
                    stats = await connections[0].stats()
                finally:
                    for connection in connections:
                        await connection.aclose()
            return results, stats

        results, stats = run(main())
        assert all(result == results[0] for result in results)
        counters = stats["service"]
        total = clients * per_client
        assert counters["submitted"] + counters["coalesced"] == total
        # Identical in-flight requests shared executions across connections.
        assert counters["coalesced"] > 0
        assert stats["engine"]["executions"] < total


class TestFairnessAndBackpressure:
    def test_flood_does_not_starve_polite_clients(self, chain_db, sequential):
        """One pipelining flooder + 3 polite clients on a 1-dispatcher
        server: round-robin lanes mean every polite request is served
        after at most one group per active lane, so polite latencies stay
        bounded by lane count, not by the flood's queue depth."""
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        flood_instances = [
            query.decision_instance((starts[i % len(starts)],)) for i in range(48)
        ]
        polite_instances = [
            query.decision_instance((value,)) for value in starts[:6]
        ]

        async def main():
            # batch_limit=1: every flood request is its own queued group,
            # so the flood's lane really is 40+ deep.
            async with QueryServer(
                {"chain": chain_db}, batch_limit=1, dispatchers=1
            ) as server:
                host, port = server.address
                flooder = await AsyncQueryClient.connect(host, port)
                polite = [
                    await AsyncQueryClient.connect(host, port) for _ in range(3)
                ]
                loop = asyncio.get_running_loop()

                async def flood():
                    return await asyncio.gather(
                        *(
                            flooder.execute(instance, "chain")
                            for instance in flood_instances
                        )
                    )

                async def polite_client(connection):
                    latencies = []
                    results = []
                    for instance in polite_instances:
                        started = loop.time()
                        results.append(await connection.execute(instance, "chain"))
                        latencies.append(loop.time() - started)
                    return results, latencies

                started = loop.time()
                flood_task = asyncio.ensure_future(flood())
                await asyncio.sleep(0.01)  # the flood owns the queue now
                polite_outcomes = await asyncio.gather(
                    *(polite_client(connection) for connection in polite)
                )
                flood_results = await flood_task
                total_seconds = loop.time() - started
                stats = await flooder.stats()
                for connection in [flooder, *polite]:
                    await connection.aclose()
            return polite_outcomes, flood_results, total_seconds, stats

        polite_outcomes, flood_results, total_seconds, stats = run(main())
        # Zero starvation: every polite request completed, correctly.
        for results, _ in polite_outcomes:
            assert results == [
                sequential.execute(q, chain_db) for q in polite_instances
            ]
        for result, instance in zip(flood_results, flood_instances):
            assert result == sequential.execute(instance, chain_db)
        # Round-robin drain: polite p95 stays a small fraction of the
        # flood's wall clock even though the flood held a 40+-deep lane.
        latencies = sorted(
            latency for _, client_latencies in polite_outcomes
            for latency in client_latencies
        )
        p95 = latencies[int(0.95 * (len(latencies) - 1))]
        assert p95 < total_seconds / 2, (p95, total_seconds)
        # The per-client rollup saw all four lanes.
        assert len(stats["clients"]) >= 4
        assert stats["service"]["max_group"] == 1

    def test_backpressure_rejections_are_structured(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        instances = [query.decision_instance((value,)) for value in starts[:24]]

        async def main():
            async with QueryServer(
                {"chain": chain_db},
                dispatchers=1,
                max_pending_per_client=4,
            ) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    outcomes = await asyncio.gather(
                        *(client.execute(q, "chain") for q in instances),
                        return_exceptions=True,
                    )
                    # The connection survived the rejections.
                    assert await client.ping()
                    stats = await client.stats()
            return outcomes, stats

        outcomes, stats = run(main())
        rejected = [
            outcome
            for outcome in outcomes
            if isinstance(outcome, RemoteQueryError)
        ]
        succeeded = [
            outcome
            for outcome in outcomes
            if not isinstance(outcome, BaseException)
        ]
        assert rejected, "a 24-deep pipeline against budget 4 must reject"
        assert succeeded, "the within-budget prefix must still succeed"
        for error in rejected:
            assert error.code == "backpressure"
            assert error.detail["budget"] == 4
        assert stats["service"]["rejected"] == len(rejected)
        assert stats["clients"][0]["rejected"] == len(rejected)


class TestReviewRegressions:
    def test_oversized_result_is_answered_not_dropped(self, chain_db, monkeypatch):
        """A result relation whose encoded response exceeds the frame
        bound must come back as a structured frame_too_large error on the
        same request id — never a silently dropped request."""
        import repro.protocol.codec as codec

        # Small enough that a full-E result blows the bound, large enough
        # that requests and error responses still encode.
        monkeypatch.setattr(codec, "MAX_LINE_BYTES", 600)
        big = "Q(x, y) :- E(x, y)."
        small = path_query(3, head_arity=1)

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await asyncio.wait_for(
                            client.execute(big, "chain"), timeout=10
                        )
                    # The connection survives and keeps serving.
                    decision = await asyncio.wait_for(
                        client.decide(small, "chain"), timeout=10
                    )
            return excinfo.value, decision

        error, decision = run(main())
        assert error.code == "frame_too_large"
        assert isinstance(decision, bool)

    @pytest.mark.parametrize("binary_frames", [False, True], ids=["json", "binary"])
    def test_oversized_request_fails_alone(self, chain_db, binary_frames, monkeypatch):
        """A request past the frame bound is refused before anything is
        registered or written: a typed frame_too_large, and the client is
        neither broken nor left holding a phantom pending id."""
        import repro.protocol.codec as codec
        from repro import Database
        from repro.protocol import ProtocolError

        big = Database.from_tuples({"E": [(i, i + 1) for i in range(3000)]})
        monkeypatch.setattr(codec, "MAX_LINE_BYTES", 4000)

        def blocking(host, port):
            with QueryClient(host, port, binary_frames=binary_frames) as client:
                with pytest.raises(ProtocolError) as excinfo:
                    client.register_database("big", big)
                return excinfo.value.code, client.ping()

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(
                    host, port, binary_frames=binary_frames
                ) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await client.register_database("big", big)
                    assert client.pending_ids() == []
                    assert await client.ping() is True
                    assert client.pending_ids() == []
                sync_code, sync_pong = await asyncio.to_thread(blocking, host, port)
            return excinfo.value.code, sync_code, sync_pong

        assert run(main()) == ("frame_too_large", "frame_too_large", True)

    def test_parse_error_coordinates_point_into_callers_text(self):
        """Leading whitespace must not shift the parse-error coordinates
        the codec sends to remote clients."""
        from repro import parse_query
        from repro.errors import ParseError

        text = "\n\n  Q(x) :- {"
        with pytest.raises(ParseError) as excinfo:
            parse_query(text)
        error = excinfo.value
        assert error.position == text.index("{")
        assert error.line == 3
        assert error.column == text.index("{") - text.rindex("\n")

    def test_async_client_reads_large_frames(self, chain_db):
        """AsyncQueryClient's reader must use the protocol's frame bound,
        not asyncio's 64 KiB default — a big result relation killed the
        pipelined connection before the fix."""
        from repro.protocol import Response, encode

        big = "Q(x, y, z) :- E(x, y), E(y, z)."

        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    result = await asyncio.wait_for(
                        client.execute(big, "chain"), timeout=30
                    )
                    # Still serving after the large frame.
                    assert await client.ping()
            return result

        result = run(main())
        encoded = encode(Response(id=1, kind="relation", result=result))
        assert len(encoded) > 64 * 1024, "workload no longer exercises the limit"
        from repro import parse_query

        want = QueryEngine(parallel=False).execute(parse_query(big), chain_db)
        assert result == want

    def test_sync_client_timeout_poisons_the_connection(self, chain_db):
        """A socket timeout can fire mid-frame; the blocking client must
        refuse reuse instead of decoding a desynchronized stream."""
        from repro import FaultPlan

        # The reply is held back far longer than the client waits (the
        # socket layer rounds a sub-millisecond timeout up to 1 ms, which a
        # small query can beat), so the mid-read failure is deterministic.
        plan = FaultPlan({"server.delay": {"times": 1, "delay": 0.1}})

        async def main():
            async with QueryServer({"chain": chain_db}, fault_plan=plan) as server:
                host, port = server.address

                def work():
                    client = QueryClient(host, port)
                    client._sock.settimeout(0.0001)
                    with pytest.raises(OSError):
                        client.execute(path_query(3, head_arity=1), "chain")
                    with pytest.raises(ConnectionError):
                        client.ping()
                    client.close()

                await asyncio.to_thread(work)

        run(main())

    def test_connection_level_error_breaks_client_loudly(self):
        """An id=null error frame fails the outstanding caller AND marks
        the client broken — later requests raise instead of hanging on a
        dead reader."""
        from repro.protocol import ProtocolError, error_response
        from repro.protocol.codec import encode

        async def main():
            accepted = []

            async def hostile(reader, writer):
                accepted.append(writer)
                await reader.readline()
                writer.write(
                    encode(
                        error_response(
                            None, ProtocolError("overrun", code="frame_too_large")
                        )
                    )
                )
                await writer.drain()

            server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                client = await AsyncQueryClient.connect(host, port)
                with pytest.raises(RemoteQueryError) as excinfo:
                    await asyncio.wait_for(client.ping(), timeout=10)
                assert excinfo.value.code == "frame_too_large"
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.ping(), timeout=10)
                await client.aclose()
                # The accepted side too: a stream server's handler leaves
                # its transport open after the peer hangs up, and it would
                # be collected unclosed in some later test.
                for writer in accepted:
                    writer.close()
                    await writer.wait_closed()

        run(main())


class TestDisconnectTeardown:
    def test_mid_request_disconnect_releases_the_slot(self, chain_db, sequential):
        """A client that vanishes mid-request must not leave zombie work
        holding a dispatcher: the server cancels the in-flight task,
        the service releases the FairQueue slot, and other connections
        keep being served promptly."""
        import random as _random

        from repro import Database, parse_query

        rng = _random.Random(11)
        rows = {(rng.randrange(60), rng.randrange(60)) for _ in range(1400)}
        slow_db = Database.from_tuples({"E": sorted(rows)})
        slow = parse_query(
            "Q(x1, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), "
            "E(x5, x6), E(x6, x1)."
        )
        fast = path_query(3, head_arity=1)

        async def main():
            # One dispatcher: if the abandoned slow query kept its slot,
            # the fast query below would queue behind its full runtime.
            async with QueryServer(
                {"slow": slow_db, "chain": chain_db},
                dispatchers=1,
                parallel=False,
            ) as server:
                host, port = server.address
                doomed = await AsyncQueryClient.connect(host, port)
                request = asyncio.ensure_future(doomed.execute(slow, "slow"))
                await asyncio.sleep(0.15)  # the request reaches the engine
                # Abrupt disconnect: abort the transport, no goodbye.
                doomed._writer.transport.abort()
                with pytest.raises((ConnectionError, OSError)):
                    await asyncio.wait_for(request, timeout=10)
                await doomed.aclose()
                async with await AsyncQueryClient.connect(host, port) as client:
                    import time as _time

                    started = _time.monotonic()
                    result = await asyncio.wait_for(
                        client.execute(fast, "chain"), timeout=15
                    )
                    elapsed = _time.monotonic() - started
                    stats = await client.stats()
            return result, elapsed, stats

        result, elapsed, stats = run(main())
        assert result == sequential.execute(fast, chain_db)
        assert elapsed < 10  # served promptly, not behind the zombie query
        assert stats["service"]["cancelled"] >= 1


class TestLifecycle:
    def test_graceful_drain_completes_in_flight(self, chain_db, sequential):
        query = path_query(4, head_arity=1)

        async def main():
            server = QueryServer({"chain": chain_db})
            await server.start()
            host, port = server.address
            client = await AsyncQueryClient.connect(host, port)
            request = asyncio.ensure_future(client.execute(query, "chain"))
            await asyncio.sleep(0.005)  # request reaches the service
            await server.aclose()
            result = await request
            await client.aclose()
            return result

        assert run(main()) == sequential.execute(query, chain_db)

    def test_closed_server_stops_accepting(self, chain_db):
        async def main():
            server = QueryServer({"chain": chain_db})
            await server.start()
            host, port = server.address
            await server.aclose()
            await server.aclose()  # idempotent
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=2
                )

        run(main())

    def test_a_flood_leaves_no_thread_behind(self, chain_db, sequential):
        """Evaluation runs on the service's dispatch threads and nowhere
        else: a flood of mixed batches starts nothing beyond them, and
        ``aclose`` gives every one of them back."""
        path = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        lifted = [path.decision_instance((value,)) for value in starts[:12]]
        unequal = [
            f"Q(b) :- E({value}, b), E(b, c), E(c, d), b != d." for value in starts[:9]
        ]
        batch = [
            *operations_of(EXECUTE, lifted),  # one N-wide execution
            *operations_of(EXECUTE, unequal),  # a per-member loop
            *operations_of(DECIDE, lifted[:3]),
            *operations_of(COUNT, lifted),
        ]

        async def main():
            before = set(threading.enumerate())
            server = QueryServer({"chain": chain_db})
            await server.start()
            host, port = server.address
            clients = [await AsyncQueryClient.connect(host, port) for _ in range(4)]
            answers = await asyncio.gather(
                *(client.run_batch(batch, "chain") for client in clients * 3)
            )
            started = set(threading.enumerate()) - before
            for client in clients:
                await client.aclose()
            await server.aclose()
            return answers, started, set(threading.enumerate()) - before

        answers, started, left = run(main())
        expected = [sequential.run(operation, chain_db) for operation in batch[:12]]
        assert all(answer[:12] == expected for answer in answers)
        assert 1 <= len(started) <= max(2, os.cpu_count() or 1)
        assert all(thread.name.startswith("repro-worker") for thread in started)
        assert left == set()

    def test_conflicting_service_kwargs_rejected(self, chain_db):
        from repro import QueryService

        with pytest.raises(ValueError):
            QueryServer({"chain": chain_db}, service=QueryService(), batch_limit=8)
