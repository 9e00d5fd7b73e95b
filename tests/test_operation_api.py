"""The unified operation API: one ``Operation`` value, valid once made,
one generic ``run``/``run_batch`` per layer, the per-kind facades as thin
shims over it.

The "add an op" property this design buys: ``explain`` (and ``count``,
``grouped_count`` and ``forall``) flows through the SAME generic dispatch
at the engine, the service, and the wire — no per-op plumbing anywhere,
and each question has one spelling."""

import ast
import asyncio
import inspect
import json

import pytest

from repro import QueryEngine
from repro.errors import InvalidOperationError, QueryError
from repro.operations import (
    COUNT,
    DECIDE,
    EXECUTE,
    EXPLAIN,
    FORALL,
    GROUPED_COUNT,
    OP_KINDS,
    Operation,
    OperationFacade,
    canonical_options,
    operations_of,
)
from repro.fleet import FleetRouter
from repro.protocol import (
    PROTOCOL_VERSION,
    AsyncQueryClient,
    QueryClient,
    QueryServer,
)
from repro.protocol.messages import query_text
from repro.service import QueryService
from repro.workloads import chain_database, path_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain():
    return chain_database(layers=5, width=16, p=0.4, seed=13)


def run(coroutine):
    return asyncio.run(coroutine)


class TestOperationValue:
    def test_canonical_options_sorted(self):
        assert canonical_options({"b": 1, "a": 2}) == (("a", 2), ("b", 1))
        assert canonical_options(None) == ()
        assert canonical_options({}) == ()
        # Mutable option values freeze into hashable group keys.
        assert canonical_options({"group_by": ["x0", "x1"]}) == (
            ("group_by", ("x0", "x1")),
        )

    def test_group_key_ignores_query(self):
        q1, q2 = path_query(2), path_query(3)
        assert Operation.execute(q1).group_key == Operation.execute(q2).group_key
        assert Operation.execute(q1).group_key != Operation.decide(q1).group_key

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            Operation.make("upsert", path_query(2))

    def test_unknown_option_rejected(self):
        with pytest.raises(QueryError):
            Operation(EXECUTE, path_query(2), (("frobnicate", 1),))
        with pytest.raises(QueryError):
            Operation.make(EXPLAIN, path_query(2), {"evaluator": "naive"})

    def test_six_kinds(self):
        assert OP_KINDS == (
            "execute", "decide", "explain", "count", "grouped_count", "forall"
        )
        assert not hasattr(Operation, "exists")
        assert not hasattr(OperationFacade, "exists")
        assert not hasattr(Operation, "validate")
        # The wire speaks them as ops of protocol 3 (v2 had ``aggregate``).
        assert PROTOCOL_VERSION == 3

    # Each malformed operation, as (kind, options): refused by every way
    # of making one, so an Operation that exists is valid.
    INVALID = {
        "unknown_kind": ("upsert", {}),
        "aggregate": ("aggregate", {}),
        "aggregate_v2_mode": ("aggregate", {"mode": "count"}),
        "unknown_option": (EXECUTE, {"frobnicate": 1}),
        "unhashable_option": (EXECUTE, {"evaluator": {"naive": 1}}),
        "mode_option": (COUNT, {"mode": "count"}),
        "no_group_by": (GROUPED_COUNT, {}),
        "empty_group_by": (GROUPED_COUNT, {"group_by": ()}),
        "duplicate_group_by": (GROUPED_COUNT, {"group_by": ("x0", "x0")}),
        "forall_group_by": (FORALL, {"group_by": ("x0",)}),
    }

    @pytest.mark.parametrize("constructor", ["make", "direct", "operations_of"])
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_every_constructor_refuses(self, case, constructor):
        kind, options = self.INVALID[case]
        query = path_query(2, head_arity=1)
        build = {
            "make": lambda: Operation.make(kind, query, options),
            "direct": lambda: Operation(kind, query, canonical_options(options)),
            "operations_of": lambda: operations_of(kind, [query], options),
        }[constructor]
        with pytest.raises(InvalidOperationError) as excinfo:
            build()
        assert excinfo.value.code == "invalid_operation"

    def test_classmethods_refuse(self):
        query = path_query(2, head_arity=1)
        for group_by in ((), ("x0", "x0")):
            with pytest.raises(InvalidOperationError):
                Operation.grouped_count(query, group_by)
        with pytest.raises(InvalidOperationError):
            Operation.grouped_count(query, (1,))

    def test_constructors_round_trip_options(self):
        op = Operation.grouped_count(path_query(3, head_arity=2), ("x0", "x1"))
        assert op.kind == GROUPED_COUNT
        assert op.options_dict() == {"group_by": ("x0", "x1")}
        assert Operation.make(op.kind, op.query, op.options_dict()) == op
        assert Operation.forall(op.query) == Operation(FORALL, op.query)

    def test_operations_of(self):
        queries = [path_query(n) for n in (1, 2)]
        ops = operations_of(DECIDE, queries)
        assert [op.kind for op in ops] == [DECIDE, DECIDE]
        assert [op.query for op in ops] == queries


PER_KIND = (
    "execute",
    "decide",
    "explain",
    "count",
    "grouped_count",
    "forall",
)


class TestOneSpelling:
    """The per-kind methods live in ``OperationFacade`` and nowhere else."""

    @pytest.mark.parametrize(
        "host",
        [
            QueryEngine,
            QueryService,
            AsyncQueryClient,
            QueryClient,
            FleetRouter,
        ],
    )
    def test_hosts_inherit_the_per_kind_methods(self, host):
        for name in PER_KIND:
            assert getattr(host, name) is getattr(OperationFacade, name)
        # No class in the host's own file spells one out by hand.
        tree = ast.parse(inspect.getsource(inspect.getmodule(host)))
        redefined = [
            f"{cls.name}.{node.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in PER_KIND
        ]
        assert redefined == []

    def test_facade_passes_call_keywords_through(self):
        seen = []

        class Host(OperationFacade):
            def run(self, operation, database, **call):
                seen.append((operation, database, call))
                return len(seen)

        host = Host()
        text = "Q(x) :- E(x, y)."
        assert host.grouped_count(text, "db", ("x",), deadline=2.0) == 1
        assert host.execute(text, "db", "naive", client="c") == 2
        (grouped, _, first), (executed, _, second) = seen
        assert grouped == Operation.grouped_count(text, ("x",))
        assert first == {"deadline": 2.0}
        assert executed == Operation.execute(text, "naive")
        assert second == {"client": "c"}


class TestEngineDispatch:
    def test_facades_equal_generic_run(self, chain):
        query = path_query(3, head_arity=2)
        with QueryEngine() as engine:
            assert engine.run(Operation.execute(query), chain) == engine.execute(
                query, chain
            )
            assert engine.run(Operation.decide(query), chain) is engine.decide(
                query, chain
            )
            assert engine.run(Operation.count(query), chain) == engine.count(
                query, chain
            )
            # The "add an op" demo: explain is just another kind.  (The
            # rendering embeds live cache counters, so compare the plan
            # lines, not the observability tail.)
            rendering = engine.run(Operation.explain(query), chain)
            facade = engine.explain(query, chain)
            stable = lambda text: [  # noqa: E731
                line for line in text.splitlines() if "hit" not in line
            ]
            assert stable(rendering) == stable(facade)
            assert "QueryPlan" in rendering and "counting :" in rendering

    def test_run_batch_mixed_kinds_in_order(self, chain):
        query = path_query(3, head_arity=2)
        operations = [
            Operation.execute(query),
            Operation.count(query),
            Operation.decide(query),
            Operation.explain(query),
            Operation.forall(query),
        ]
        with QueryEngine() as engine:
            results = engine.run_batch(operations, chain)
            assert results[0] == engine.execute(query, chain)
            assert results[1] == engine.execute(query, chain).cardinality
            assert results[2] is True
            assert "QueryPlan" in results[3]
            assert results[4] is False

    def test_run_batch_duplicate_sharing(self, chain):
        query = path_query(2)
        operations = [Operation.count(query)] * 4
        with QueryEngine() as engine:
            results = engine.run_batch(operations, chain)
            assert len(set(results)) == 1

    def test_legacy_batch_shims_removed(self, chain):
        # The engine exposes ONLY the generic operation API for batches:
        # no per-kind batch method, ``count_batch`` included.
        queries = [path_query(n, head_arity=1) for n in (1, 2, 3)]
        with QueryEngine() as engine:
            assert not hasattr(engine, "execute_batch")
            assert not hasattr(engine, "decide_batch")
            assert not hasattr(engine, "count_batch")
            executed = engine.run_batch(operations_of(EXECUTE, queries), chain)
            assert executed == [engine.execute(q, chain) for q in queries]
            assert engine.run_batch(operations_of(COUNT, queries), chain) == [
                engine.count(q, chain) for q in queries
            ]

    def test_forced_evaluator_option(self, chain):
        query = path_query(3, head_arity=2)
        with QueryEngine() as engine:
            forced = engine.run(
                Operation.execute(query, evaluator="naive"), chain
            )
            assert forced == engine.execute(query, chain)


class TestServiceDispatch:
    def test_run_and_facades_agree(self, chain):
        query = path_query(3, head_arity=2)

        async def main():
            async with QueryService() as service:
                generic = await service.run(Operation.count(query), chain)
                facade = await service.count(query, chain)
                rendering = await service.run(Operation.explain(query), chain)
                grouped = await service.grouped_count(query, chain, ("x0",))
                decided = await service.decide(query, chain)
                forall = await service.forall(query, chain)
            return generic, facade, rendering, grouped, decided, forall

        generic, facade, rendering, grouped, decided, forall = run(main())
        with QueryEngine() as engine:
            want = engine.count(query, chain)
            assert generic == facade == want
            assert "QueryPlan" in rendering
            assert grouped == engine.grouped_count(query, chain, ("x0",))
            assert decided is True and forall is False

    def test_run_batch_mixed_kinds(self, chain):
        query = path_query(3, head_arity=2)
        operations = [
            Operation.count(query),
            Operation.execute(query),
            Operation.decide(query),
            Operation.forall(query),
        ]

        async def main():
            async with QueryService() as service:
                return await service.run_batch(operations, chain)

        count, executed, decided, forall = run(main())
        assert count == executed.cardinality
        assert decided is True and forall is False

    def test_legacy_batch_shims_removed(self, chain):
        queries = [path_query(n, head_arity=1) for n in (1, 2, 3)]

        async def main():
            async with QueryService() as service:
                assert not hasattr(service, "execute_batch")
                assert not hasattr(service, "decide_batch")
                new_e = await service.run_batch(
                    operations_of(EXECUTE, queries), chain
                )
                new_d = await service.run_batch(
                    operations_of(DECIDE, queries), chain
                )
            return new_e, new_d

        new_e, new_d = run(main())
        with QueryEngine() as engine:
            assert new_e == [engine.execute(q, chain) for q in queries]
            assert new_d == [engine.decide(q, chain) for q in queries]

    def test_single_flight_keys_include_options(self, chain):
        # decide(Q) planned and decide(Q) forced through naive return the
        # same boolean but are distinct operations: they must NOT coalesce
        # into one another.
        query = path_query(2)

        async def main():
            async with QueryService() as service:
                a, b = await asyncio.gather(
                    service.run(Operation.decide(query), chain),
                    service.run(Operation.decide(query, "naive"), chain),
                )
                stats = await service.stats()
            return a, b, stats

        a, b, stats = run(main())
        assert a is True and b is True
        assert stats["service"]["completed"] == 2
        assert stats["service"]["coalesced"] == 0

    def test_invalid_operation_rejected_before_submit(self, chain):
        async def main():
            async with QueryService() as service:
                with pytest.raises(QueryError):
                    await service.run(Operation("aggregate", path_query(2)), chain)
                return await service.stats()

        stats = run(main())
        assert stats["service"]["submitted"] == 0


class TestWireDispatch:
    def test_run_and_run_batch_over_the_wire(self, chain):
        query = path_query(3, head_arity=2)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    count = await client.run(Operation.count(query), "chain")
                    rendering = await client.run(
                        Operation.explain(query), "chain"
                    )
                    mixed = await client.run_batch(
                        [
                            Operation.execute(query),
                            Operation.count(query),
                            Operation.decide(query),
                            Operation.forall(query),
                        ],
                        "chain",
                    )
            return count, rendering, mixed

        count, rendering, mixed = run(main())
        with QueryEngine() as engine:
            assert count == engine.count(query, chain)
            assert "QueryPlan" in rendering
            assert mixed[0] == engine.execute(query, chain)
            assert mixed[1] == count
            assert mixed[2] is True
            assert mixed[3] is False

    def test_aggregate_facades_over_the_wire(self, chain):
        query = path_query(3, head_arity=2)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    grouped = await client.grouped_count(query, "chain", ("x0",))
                    count = await client.count(query, "chain")
                    forall = await client.forall(query, "chain")
            return grouped, count, forall

        grouped, count, forall = run(main())
        with QueryEngine() as engine:
            assert grouped == engine.grouped_count(query, chain, ("x0",))
            assert count == engine.count(query, chain)
        assert forall is False

    def test_legacy_batch_wire_ops_are_unknown_ops(self, chain):
        # ``execute_batch`` / ``decide_batch`` are not ops: a raw frame
        # naming one answers a typed ``bad_request`` under its own id,
        # and the connection carries on.
        queries = [path_query(n, head_arity=1) for n in (1, 2)]

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                answers = []
                for op in ("execute_batch", "decide_batch"):
                    frame = {
                        "v": PROTOCOL_VERSION,
                        "op": op,
                        "id": 7,
                        "queries": [query_text(q) for q in queries],
                        "database": "chain",
                    }
                    writer.write(json.dumps(frame).encode() + b"\n")
                    answers.append(json.loads(await reader.readline()))
                ping = {"v": PROTOCOL_VERSION, "op": "ping", "id": 8}
                writer.write(json.dumps(ping).encode() + b"\n")
                answers.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                async with await AsyncQueryClient.connect(host, port) as client:
                    new_e = await client.run_batch(
                        operations_of(EXECUTE, queries), "chain"
                    )

                    def sync_work():
                        with QueryClient(host, port) as sync_client:
                            return (
                                sync_client.run_batch(
                                    operations_of(EXECUTE, queries), "chain"
                                ),
                                sync_client.count(queries[0], "chain"),
                            )

                    sync_new, sync_count = await asyncio.to_thread(sync_work)
            return answers, new_e, sync_new, sync_count

        answers, new_e, sync_new, sync_count = run(main())
        for answer in answers[:2]:
            assert answer["ok"] is False and answer["id"] == 7
            assert answer["error"]["code"] == "bad_request"
        assert answers[2]["ok"] is True and answers[2]["kind"] == "pong"
        assert new_e == sync_new
        with QueryEngine() as engine:
            assert new_e == [engine.execute(q, chain) for q in queries]
            assert sync_count == engine.count(queries[0], chain)

    def test_invalid_wire_operation_is_structured_error(self, chain):
        from repro.protocol import RemoteQueryError

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await client._call(
                            "grouped_count",
                            query="Q(x) :- E(x, y).",
                            database="chain",
                            options={"mode": "group", "group_by": ["x"]},
                        )
                    # Malformed options map to the unified typed error's
                    # stable wire code, not a generic invalid_query.
                    assert excinfo.value.code == "invalid_operation"
                    # An object where a value belongs, too (no internal_error).
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await client._call(
                            "execute",
                            query="Q(x) :- E(x, y).",
                            database="chain",
                            options={"evaluator": {"naive": 1}},
                        )
                    assert excinfo.value.code == "invalid_operation"
                    # The connection survives the rejected operation.
                    assert await client.ping()
                # The v2 ``aggregate`` op is no op at all: a raw frame
                # naming it answers ``bad_request`` under its own id.
                reader, writer = await asyncio.open_connection(host, port)
                frame = {
                    "v": PROTOCOL_VERSION,
                    "op": "aggregate",
                    "id": 3,
                    "query": "Q(x) :- E(x, y).",
                    "database": "chain",
                    "options": {"mode": "count"},
                }
                writer.write(json.dumps(frame).encode() + b"\n")
                answer = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                assert answer["ok"] is False and answer["id"] == 3
                assert answer["error"]["code"] == "bad_request"

        run(main())


class TestAggregateModes:
    # Protocol v2's ``aggregate`` op named its question by a ``mode``; each
    # mode is now a kind of its own (``exists`` is ``decide``), and that
    # kind's operation answers as its named facade does.
    KIND_OF_MODE = {
        "count": COUNT,
        "exists": DECIDE,
        "forall": FORALL,
        "group": GROUPED_COUNT,
    }

    @pytest.mark.parametrize(
        "mode,options",
        [
            ("count", {}),
            ("exists", {}),
            ("forall", {}),
            ("group", {"group_by": ("x0",)}),
        ],
    )
    def test_aggregate_kind_equals_named_facade(self, chain, mode, options):
        query = path_query(3, head_arity=2)
        kind = self.KIND_OF_MODE[mode]
        operation = Operation.make(kind, query, options)
        with pytest.raises(InvalidOperationError):
            Operation.make("aggregate", query, {"mode": mode, **options})
        with QueryEngine() as engine:
            result = engine.run(operation, chain)
            if kind == COUNT:
                assert result == engine.count(query, chain)
            elif kind == DECIDE:
                assert result is engine.decide(query, chain)
            elif kind == FORALL:
                assert result is engine.forall(query, chain)
            else:
                assert result == engine.grouped_count(query, chain, ("x0",))
