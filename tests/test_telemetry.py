"""One stats document from engine to wire.

Every ``stats()`` returns a plain JSON-able document, the wire ``stats``
result is the service's document plus ``transport``, the engine's totals
survive shape eviction, and the service counts each request's outcome
exactly once.
"""

import asyncio
import json
import random

import pytest

from repro import Database, QueryEngine, QueryService, parse_query
from repro.engine import ShapeTable
from repro.errors import DeadlineExceededError, RequestRejectedError, SchemaError
from repro.operations import EXECUTE, operations_of
from repro.protocol import AsyncQueryClient, QueryServer
from repro.telemetry import (
    CLIENT_COUNTERS,
    OUTCOMES,
    LatencyReservoir,
    quantile,
)
from repro.workloads import chain_database
from repro.workloads.queries import path_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


def slow_workload():
    """A 6-cycle over a dense random graph: seconds of evaluation, with
    cancellation check-points all the way through."""
    rng = random.Random(11)
    rows = {(rng.randrange(60), rng.randrange(60)) for _ in range(1400)}
    query = parse_query(
        "Q(x1, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), "
        "E(x5, x6), E(x6, x1)."
    )
    return query, Database.from_tuples({"E": sorted(rows)})


def key_tree(document):
    """The document with every leaf value erased."""
    if isinstance(document, dict):
        return {key: key_tree(value) for key, value in document.items()}
    if isinstance(document, list):
        return [key_tree(value) for value in document]
    return None


def round_trips(document):
    return json.loads(json.dumps(document)) == document


class _Plan:
    evaluator = "yannakakis"
    structural_class = "acyclic"
    estimated_rows = 3.0
    join_order = ("E", "E")
    replans = 0


class TestPrimitives:
    def test_quantile_interpolates(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([4.0], 0.95) == 4.0
        assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        assert quantile([0.0, 10.0], 0.95) == pytest.approx(9.5)

    def test_reservoir_keeps_the_most_recent_samples(self):
        reservoir = LatencyReservoir(capacity=3)
        for seconds in (100.0, 1.0, 2.0, 3.0):
            reservoir.add(seconds)
        assert len(reservoir) == 3
        assert reservoir.quantile(1.0) == 3.0

    def test_ledger_totals_survive_eviction(self):
        table = ShapeTable(capacity=2)
        plans = [_Plan() for _ in range(4)]
        for key, plan in enumerate(plans):
            table.publish(key, plan)
            table.record(key, 0.5, rows=key)
        assert table.replace(3, plans[3], _Plan())
        snapshot = table.stats()
        assert len(snapshot["shapes"]) == 2
        assert snapshot["executions"] == 4
        assert snapshot["total_seconds"] == pytest.approx(2.0)
        assert snapshot["replans"] == 1
        assert snapshot["cache"]["evictions"] == 2
        assert snapshot["shapes"][0]["shape"] == "acyclic/yannakakis[2 atom(s)]"
        assert round_trips(snapshot)
        table.clear()
        assert table.stats() == {
            "executions": 0,
            "total_seconds": 0,
            "replans": 0,
            "shapes": [],
            "cache": {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "size": 0,
                "capacity": 2,
            },
        }


class TestEngineDocument:
    def test_totals_count_every_execution_past_the_ledger_bound(self):
        # 513 relations, one shape each: one more than the ledger holds.
        shapes = 513
        database = Database.from_tuples(
            {f"R{i}": [(i, i + 1), (i + 1, i + 2)] for i in range(shapes)}
        )
        engine = QueryEngine()
        for i in range(shapes):
            engine.execute(parse_query(f"Q(x) :- R{i}(x, y)."), database)
        stats = engine.stats()
        assert len(stats["shapes"]) == 512
        assert stats["executions"] == shapes
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == shapes
        assert stats["total_seconds"] >= sum(
            shape["total_seconds"] for shape in stats["shapes"]
        )

    def test_engine_document_round_trips(self, chain_db):
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        engine.execute(query, chain_db)
        engine.count(query, chain_db)
        engine.decide(query, chain_db)
        stats = engine.stats()
        assert set(stats) == {
            "executions",
            "total_seconds",
            "replans",
            "cache",
            "shapes",
        }
        assert set(stats["cache"]) == {
            "hits",
            "misses",
            "evictions",
            "size",
            "capacity",
        }
        assert stats["shapes"][0]["last_rows"] is not None
        assert round_trips(stats)


class TestOutcomeConservation:
    def test_every_request_counts_one_outcome(self, chain_db):
        slow_query, slow_db = slow_workload()
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(parallel=False) as service:
                # Identical requests: one submitted, the rest coalesced.
                await asyncio.gather(
                    *(
                        service.execute(query, chain_db, client="flood")
                        for _ in range(8)
                    )
                )
                # Same-shape requests of one client: some batch together.
                await asyncio.gather(
                    *(service.execute(q, chain_db, client="shapes") for q in instances)
                )
                await service.run_batch(
                    operations_of(EXECUTE, instances[:3]), chain_db, client="batch"
                )
                # A coalesced pair whose deadlines both expire.
                late = await asyncio.gather(
                    *(
                        service.execute(
                            slow_query, slow_db, client="late", deadline=0.05
                        )
                        for _ in range(2)
                    ),
                    return_exceptions=True,
                )
                assert all(isinstance(e, DeadlineExceededError) for e in late)
                with pytest.raises(DeadlineExceededError):
                    await service.run_batch(
                        operations_of(EXECUTE, [slow_query]),
                        slow_db,
                        client="late",
                        deadline=0.05,
                    )
                # A caller that leaves.
                task = asyncio.ensure_future(
                    service.execute(slow_query, slow_db, client="gone")
                )
                await asyncio.sleep(0.05)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # A failure at admission, and a rejection (not admitted).
                with pytest.raises(SchemaError):
                    await service.execute(
                        parse_query("Q(x) :- Missing(x, y)."), chain_db, client="bad"
                    )
                with pytest.raises(RequestRejectedError):
                    await service.execute("Q(x) :- ", chain_db, client="bad")
                return await service.stats()

        stats = asyncio.run(main())
        service = stats["service"]
        assert service["coalesced"] >= 7 + 1  # the flood and the late pair
        assert service["deadline_exceeded"] == 3
        assert service["cancelled"] == 1
        assert service["failed"] == 1
        assert service["rejected"] == 1
        assert service["submitted"] + service["coalesced"] == sum(
            service[outcome] for outcome in OUTCOMES
        )
        for name in CLIENT_COUNTERS:
            assert sum(client[name] for client in stats["clients"]) == service[name]
        assert round_trips(stats)


class TestWireDocument:
    def test_wire_stats_is_the_service_document_plus_transport(self, chain_db):
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService() as service:
                async with QueryServer({"chain": chain_db}, service=service) as server:
                    host, port = server.address
                    async with await AsyncQueryClient.connect(host, port) as client:
                        await client.execute(query, "chain")
                        await client.count(query, "chain")
                        wire = await client.stats()
                        local = await service.stats()
            return wire, local

        wire, local = asyncio.run(main())
        transport = wire.pop("transport")
        assert transport["connections_active"] == 1
        assert key_tree(wire) == key_tree(local)
        assert round_trips(local)
        # Every key the end-to-end harness reads is present.
        for key in ("submitted", "coalesced", "batched", "max_queue_depth"):
            assert key in wire["service"]
        for key in ("replans", "total_seconds"):
            assert key in wire["engine"]
        assert {"hits", "misses"} <= set(wire["engine"]["cache"])
