"""Concurrency stress tests: many async clients, one shared engine.

The acceptance contract of the service front-end: ≥ 32 concurrent clients
multiplex onto one ``QueryEngine`` with results identical to sequential
``QueryEngine(parallel=False)`` execution, no plan-cache corruption, and a
stats ledger whose totals are consistent with the request count.  Plus the
front-end's own semantics: single-flight coalescing (N identical in-flight
queries → one plan, one execution), batching of same-shape requests that
queue up behind busy dispatchers into N-wide lifted executions (with no
timer: a lonely request runs at once), bounded-queue backpressure, and
error propagation to every coalesced caller.
"""

import asyncio
import contextlib
import dataclasses
import gc
import random
import sys
import threading
import time

import pytest

from repro import Database, QueryEngine, QueryService, Relation, parse_query
from repro.engine import Planner, ShapeTable
from repro.engine.analysis import _shape_of
import repro.engine.engine as engine_module
from repro.errors import (
    DeadlineExceededError,
    RequestRejectedError,
    SchemaError,
    ServiceOverloadedError,
)
from repro.evaluation import NaiveEvaluator
from repro.operations import DECIDE, EXECUTE, EXPLAIN, Operation, operations_of
from repro.service.service import PARSE_MEMO_SIZE
from repro.telemetry import OUTCOMES
from repro.workloads import chain_database, path_query, star_database, star_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


@pytest.fixture(scope="module")
def star_db():
    return star_database(3, 120, seed=5)


class GatedEngine(QueryEngine):
    """An engine whose ``explain`` blocks until the test opens the gate —
    the way to keep a dispatcher busy for exactly as long as a test needs
    (``explain`` never batches, so the blocker is always its own group)."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def run(self, operation, database):
        if operation.kind == EXPLAIN:
            self.entered.set()
            assert self.gate.wait(30)
        return super().run(operation, database)


@contextlib.asynccontextmanager
async def busy_dispatcher(service, query, database):
    """Keep one dispatcher of *service* (built over a GatedEngine) busy for
    the duration of the block; on exit the gate opens and the blocker
    finishes."""
    blocker = asyncio.ensure_future(service.explain(query, database))
    try:
        assert await asyncio.to_thread(service.engine.entered.wait, 30)
        yield
    finally:
        service.engine.gate.set()
        await blocker


def _mixed_workload(chain_db, star_db, clients, per_client):
    """Per client, a list of (query, database) mixing shapes and constants."""
    rng = random.Random(17)
    chain_starts = sorted({row[0] for row in chain_db["E"].rows})
    hubs = sorted({row[0] for row in star_db["A1"].rows})
    path3, path4 = path_query(3, head_arity=1), path_query(4, head_arity=1)
    star3 = star_query(3)
    workload = []
    for _ in range(clients):
        requests = []
        for _ in range(per_client):
            shape = rng.randrange(4)
            if shape == 0:
                requests.append((path3, chain_db))
            elif shape == 1:
                value = rng.choice(chain_starts)
                requests.append((path4.decision_instance((value,)), chain_db))
            elif shape == 2:
                hub = rng.choice(hubs + [99_999])
                requests.append((star3.decision_instance((hub,)), star_db))
            else:
                requests.append((star3, star_db))
        workload.append(requests)
    return workload


class TestStress:
    def test_32_clients_mixed_shapes_match_sequential(self, chain_db, star_db):
        clients, per_client = 32, 6
        workload = _mixed_workload(chain_db, star_db, clients, per_client)
        sequential = QueryEngine(parallel=False)
        reference = [
            [sequential.execute(query, db) for query, db in requests]
            for requests in workload
        ]

        async def client(service, requests):
            return [await service.execute(query, db) for query, db in requests]

        async def main():
            async with QueryService() as service:
                results = await asyncio.gather(
                    *(client(service, requests) for requests in workload)
                )
                stats = await service.stats()
            return results, stats

        results, stats = asyncio.run(main())
        for got_list, want_list in zip(results, reference):
            for got, want in zip(got_list, want_list):
                assert got == want
                assert got.rows == want.rows  # identical down to the rows
        counters = stats["service"]
        requests = counters["submitted"] + counters["coalesced"]
        assert requests == clients * per_client
        assert counters["failed"] == 0
        assert counters["completed"] == requests
        cache = stats["engine"]["cache"]
        assert cache["size"] <= cache["capacity"]

    def test_ledger_totals_consistent_with_request_count(self, chain_db):
        """No batching (every client has its own tag and awaits its
        requests one at a time), no duplicates: every request is one
        recorded execution — the ledger's totals must agree exactly."""
        clients, per_client = 32, 4
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        assert len(starts) >= clients * per_client
        instances = [
            query.decision_instance((value,))
            for value in starts[: clients * per_client]
        ]

        async def main():
            async with QueryService() as service:
                chunks = [
                    instances[i * per_client : (i + 1) * per_client]
                    for i in range(clients)
                ]

                async def client(tag, chunk):
                    return [
                        await service.execute(q, chain_db, client=tag) for q in chunk
                    ]

                await asyncio.gather(
                    *(client(f"c{i}", chunk) for i, chunk in enumerate(chunks))
                )
                return await service.stats()

        stats = asyncio.run(main())
        assert stats["service"]["coalesced"] == 0
        assert stats["service"]["batched"] == 0
        assert stats["engine"]["executions"] == clients * per_client
        assert stats["service"]["completed"] == clients * per_client
        # One shape, planned once, shared by every client.
        assert stats["engine"]["cache"]["misses"] == 1
        assert stats["engine"]["cache"]["hits"] == clients * per_client - 1

    def test_concurrent_decides_match_sequential(self, star_db):
        query = star_query(3)
        hubs = sorted({row[0] for row in star_db["A1"].rows})[:40]
        candidates = hubs + [77_777, 88_888]
        instances = [query.decision_instance((hub,)) for hub in candidates]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.decide(q, star_db) for q in instances]

        async def main():
            async with QueryService() as service:
                return await asyncio.gather(
                    *(service.decide(q, star_db) for q in instances)
                )

        assert list(asyncio.run(main())) == reference


class TestSingleFlight:
    def test_identical_queries_one_plan_one_execution(self, chain_db):
        """The CI coalescing contract: N identical concurrent queries →
        1 plan-cache miss, 1 engine execution, N identical results."""
        n = 32
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService() as service:
                results = await asyncio.gather(
                    *(service.execute(query, chain_db) for _ in range(n))
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert all(result == results[0] for result in results)
        assert stats["service"]["coalesced"] == n - 1
        assert stats["service"]["submitted"] == 1
        assert stats["engine"]["executions"] == 1
        assert stats["engine"]["cache"]["misses"] == 1

    def test_distinct_queries_do_not_coalesce(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:8]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService() as service:
                await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return await service.stats()

        stats = asyncio.run(main())
        # Same shape, different constants: they may share a batch, never
        # a flight.
        assert stats["service"]["coalesced"] == 0
        assert stats["service"]["submitted"] == len(instances)
        assert stats["service"]["completed"] == len(instances)

    @pytest.mark.parametrize("kind", ["execute", "explain"])
    def test_error_propagates_to_every_coalesced_caller(self, chain_db, kind):
        """Both failure sites — admission (``execute``: the shape key is
        computed before enqueue) and execution (``explain`` has no shape
        key, so the unknown relation surfaces in the engine) — must
        complete the shared future; neither may leave coalesced callers
        hanging."""
        bad = parse_query("Q(x) :- NoSuchRelation(x, y).")

        async def main():
            async with QueryService() as service:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(getattr(service, kind)(bad, chain_db) for _ in range(6)),
                        return_exceptions=True,
                    ),
                    timeout=10,
                )

        outcomes = asyncio.run(main())
        assert len(outcomes) == 6
        assert all(isinstance(outcome, SchemaError) for outcome in outcomes)


class TestBatchingOnBacklog:
    def test_lonely_request_waits_for_no_timer(self, chain_db, monkeypatch):
        """One request on an idle service dispatches at once: nothing on
        the deadline-free path sleeps or arms a timer, and the request is
        its own group."""
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService() as service:
                await service.execute(path_query(3, head_arity=1), chain_db)  # warm
                loop = asyncio.get_running_loop()
                timers = []
                for name in ("call_later", "call_at"):
                    real = getattr(loop, name)

                    def spy(*args, _real=real, _name=name, **kwargs):
                        timers.append(_name)
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(loop, name, spy)
                before = (await service.stats())["service"]
                result = await service.execute(query, chain_db)
                after = (await service.stats())["service"]
                return result, timers, before, after

        result, timers, before, after = asyncio.run(main())
        assert result == QueryEngine(parallel=False).execute(query, chain_db)
        assert timers == []  # asyncio.sleep is a call_later too
        assert after["groups"] - before["groups"] == 1
        assert after["batched"] == 0 and after["max_group"] == 1

    def test_backlog_behind_a_busy_dispatcher_is_one_batch(self, chain_db):
        """What arrives while the only dispatcher is busy is the next
        batch — all of it, in one group."""
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:40]
        instances = [query.decision_instance((value,)) for value in starts]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.execute(q, chain_db) for q in instances]

        async def main():
            async with QueryService(GatedEngine(), dispatchers=1) as service:
                tasks = []
                async with busy_dispatcher(service, query, chain_db):
                    for instance in instances:  # one arrival per loop turn
                        tasks.append(
                            asyncio.ensure_future(service.execute(instance, chain_db))
                        )
                        await asyncio.sleep(0)
                results = await asyncio.gather(*tasks)
                stats = await service.stats()
                service.engine.close()
                return results, stats

        results, stats = asyncio.run(main())
        assert list(results) == reference
        assert stats["service"]["groups"] == 2  # the blocker, then the backlog
        assert stats["service"]["max_group"] == len(instances)
        assert stats["service"]["batched"] == len(instances) - 1

    def test_same_shape_flood_collapses_into_groups(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:48]
        instances = [query.decision_instance((value,)) for value in starts]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.execute(q, chain_db) for q in instances]

        async def main():
            async with QueryService() as service:
                results = await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert list(results) == reference
        # The flood rode a handful of groups, not 48 single dispatches.
        assert stats["service"]["groups"] < len(instances)
        assert stats["service"]["max_group"] > 1
        assert stats["service"]["batched"] > 0

    def test_batch_limit_closes_a_full_group(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:20]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(batch_limit=8) as service:
                results = await asyncio.gather(
                    *(service.execute(q, chain_db) for q in instances)
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert stats["service"]["max_group"] == 8
        assert stats["service"]["groups"] == 3  # 8 + 8 + 4
        sequential = QueryEngine(parallel=False)
        for got, instance in zip(results, instances):
            assert got == sequential.execute(instance, chain_db)

    def test_decide_flood_routes_through_decision_lifting(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:32]
        candidates = starts + [999_999]
        instances = [query.decision_instance((value,)) for value in candidates]
        sequential = QueryEngine(parallel=False)
        reference = [sequential.decide(q, chain_db) for q in instances]

        async def main():
            async with QueryService() as service:
                decisions = await asyncio.gather(
                    *(service.decide(q, chain_db) for q in instances)
                )
                return decisions, await service.stats()

        decisions, stats = asyncio.run(main())
        assert list(decisions) == reference
        assert stats["service"]["max_group"] > 1


def balanced(stats):
    """Every admitted or coalesced request settled exactly once."""
    counts = stats["service"]
    return counts["submitted"] + counts["coalesced"] == sum(
        counts[outcome] for outcome in OUTCOMES
    )


class TestRunBatch:
    """``run_batch`` is its members' runs: parsed and budgeted whole, then
    admitted one by one through the path a ``run`` takes."""

    @staticmethod
    def instances(chain_db, arity, n):
        query = path_query(arity, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:n]
        assert len(starts) == n
        return [query.decision_instance((value,)) for value in starts]

    def test_answers_come_back_in_input_order(self, chain_db):
        pair = path_query(3, head_arity=2)
        operations = [
            *operations_of(EXECUTE, self.instances(chain_db, 4, 12)),
            *operations_of(DECIDE, self.instances(chain_db, 3, 6)),
            Operation.count(pair),
            Operation.grouped_count(pair, ("x0",)),
            Operation.forall(pair),
            Operation.execute(pair),
            Operation.execute(pair),  # identical: coalesces
        ]
        random.Random(5).shuffle(operations)
        sequential = QueryEngine(parallel=False)
        reference = [sequential.run(op, chain_db) for op in operations]

        async def main():
            async with QueryService() as service:
                return await service.run_batch(operations, chain_db), await service.stats()

        results, stats = asyncio.run(main())
        assert results == reference
        assert stats["service"]["coalesced"] >= 1
        assert balanced(stats)

    @pytest.mark.parametrize("fault", ["malformed member", "over budget"])
    def test_a_batch_that_fails_admission_runs_nothing(self, chain_db, fault):
        operations = list(operations_of(EXECUTE, self.instances(chain_db, 3, 5)))
        if fault == "malformed member":
            operations[3] = Operation.execute("Q(x) :- E(x, ")
            expected = RequestRejectedError
        else:
            expected = ServiceOverloadedError

        async def main():
            async with QueryService(max_pending_per_client=4) as service:
                with pytest.raises(expected):
                    await service.run_batch(operations, chain_db, client="c")
                return await service.stats()

        stats = asyncio.run(main())
        assert stats["service"]["rejected"] == 1
        assert stats["service"]["submitted"] == stats["service"]["groups"] == 0
        assert stats["engine"]["shapes"] == []
        assert balanced(stats)

    def test_a_member_coalesces_with_an_identical_inflight_run(self, chain_db):
        first, other = self.instances(chain_db, 4, 2)
        sequential = QueryEngine(parallel=False)

        async def main():
            async with QueryService(GatedEngine(), dispatchers=1) as service:
                async with busy_dispatcher(service, first, chain_db):
                    single = asyncio.ensure_future(service.execute(first, chain_db))
                    await asyncio.sleep(0)
                    batch = asyncio.ensure_future(
                        service.run_batch(operations_of(EXECUTE, [other, first]), chain_db)
                    )
                    for _ in range(100):
                        if (await service.stats())["service"]["coalesced"]:
                            break
                        await asyncio.sleep(0)
                answers = await single, await batch
                stats = await service.stats()
                service.engine.close()
                return answers, stats

        (single, batch), stats = asyncio.run(main())
        assert single == batch[1] == sequential.execute(first, chain_db)
        assert batch[0] == sequential.execute(other, chain_db)
        counts = stats["service"]
        assert counts["coalesced"] == 1
        # The run and the batch's other member: one group after the blocker.
        assert counts["submitted"] == 3 and counts["groups"] == 2
        assert counts["batched"] == 1
        assert balanced(stats)

    def test_a_64_member_same_shape_batch_is_one_lifted_group(
        self, chain_db, monkeypatch
    ):
        instances = self.instances(chain_db, 4, 64)
        sequential = QueryEngine(parallel=False)
        reference = [sequential.execute(q, chain_db) for q in instances]
        lifted = []

        def spy(members, database):
            answer = real(members, database)
            lifted.append((len(members), answer is not None))
            return answer

        real = engine_module.lift_batch_group
        monkeypatch.setattr(engine_module, "lift_batch_group", spy)

        async def main():
            async with QueryService() as service:
                results = await service.run_batch(
                    operations_of(EXECUTE, instances), chain_db
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert results == reference
        assert stats["service"]["groups"] == 1
        assert stats["service"]["max_group"] == 64
        assert stats["service"]["batched"] == 63
        assert lifted == [(64, True)]
        # One execution recorded: the lifted query's, under its own shape.
        assert sum(row["executions"] for row in stats["engine"]["shapes"]) == 1
        assert balanced(stats)

    @pytest.mark.parametrize("ending", ["cancelled", "deadline"])
    def test_a_batch_that_ends_early_tears_its_work_down(self, chain_db, ending):
        """A batch cancelled, or past its deadline, while its groups wait
        for the only dispatcher: the groups leave the queue unrun."""
        blocker = path_query(2, head_arity=1)
        operations = [
            *operations_of(EXECUTE, self.instances(chain_db, 4, 10)),
            *operations_of(DECIDE, self.instances(chain_db, 3, 4)),
        ]
        deadline = 0.2 if ending == "deadline" else None

        async def main():
            async with QueryService(GatedEngine(), dispatchers=1) as service:
                async with busy_dispatcher(service, blocker, chain_db):
                    batch = asyncio.ensure_future(
                        service.run_batch(operations, chain_db, deadline=deadline)
                    )
                    for _ in range(100):
                        if (await service.stats())["service"]["submitted"] == 15:
                            break
                        await asyncio.sleep(0)
                    assert service._queue.qsize() == 2  # execute, decide
                    if ending == "cancelled":
                        batch.cancel()
                    outcome = (await asyncio.gather(batch, return_exceptions=True))[0]
                    queued = service._queue.qsize()
                    collecting = dict(service._collecting)
                stats = await service.stats()
                service.engine.close()
                return outcome, queued, collecting, stats

        outcome, queued, collecting, stats = asyncio.run(main())
        if ending == "cancelled":
            assert isinstance(outcome, asyncio.CancelledError)
        else:
            assert isinstance(outcome, DeadlineExceededError)
        assert queued == 0 and collecting == {}
        counts = stats["service"]
        assert counts["groups"] == 1  # the blocker alone ran
        assert counts["cancelled"] + counts["deadline_exceeded"] == len(operations)
        assert balanced(stats)


class TestFacade:
    def test_explicit_batches_and_explain(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]
        sequential = QueryEngine(parallel=False)

        async def main():
            async with QueryService() as service:
                results = await service.run_batch(operations_of(EXECUTE, instances), chain_db)
                decisions = await service.run_batch(operations_of(DECIDE, instances), chain_db)
                rendering = await service.explain(query, chain_db)
                empty = await service.run_batch(operations_of(EXECUTE, []), chain_db)
                return results, decisions, rendering, empty

        results, decisions, rendering, empty = asyncio.run(main())
        assert results == [sequential.execute(q, chain_db) for q in instances]
        assert decisions == [sequential.decide(q, chain_db) for q in instances]
        assert "QueryPlan" in rendering and "evaluator" in rendering
        assert empty == []

    def test_injected_engine_is_shared_and_not_closed(self, chain_db):
        engine = QueryEngine(parallel=False)
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryService(engine) as service:
                await service.execute(query, chain_db)

        asyncio.run(main())
        # The injected engine survives service shutdown and kept the work.
        assert engine.stats()["executions"] == 1
        assert engine.execute(query, chain_db) is not None

    def test_engine_kwargs_conflict_rejected(self):
        with pytest.raises(ValueError):
            QueryService(QueryEngine(), parallel=False)

    def test_bounded_queue_backpressure_still_completes(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:24]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            # One client tag per request: every request is its own group,
            # so 24 groups squeeze through a one-slot queue.
            async with QueryService(max_pending=1, dispatchers=1) as service:
                results = await asyncio.gather(
                    *(
                        service.execute(q, chain_db, client=f"c{i}")
                        for i, q in enumerate(instances)
                    )
                )
                return results, await service.stats()

        results, stats = asyncio.run(main())
        assert stats["service"]["completed"] == len(instances)
        assert stats["service"]["groups"] == len(instances)
        sequential = QueryEngine(parallel=False)
        assert list(results) == [
            sequential.execute(q, chain_db) for q in instances
        ]

    def test_closed_service_rejects_new_requests(self, chain_db):
        query = path_query(3, head_arity=1)

        async def main():
            service = QueryService()
            await service.execute(query, chain_db)
            await service.aclose()
            await service.aclose()  # idempotent
            with pytest.raises(RuntimeError):
                await service.execute(query, chain_db)

        asyncio.run(main())

    def test_pending_work_completes_through_aclose(self, chain_db):
        """Requests admitted but not yet dispatched when aclose runs —
        queued, or still waiting for a queue slot — are answered, never
        stranded."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:6]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            service = QueryService(max_pending=1, dispatchers=1)
            tasks = [
                asyncio.ensure_future(service.execute(q, chain_db, client=f"c{i}"))
                for i, q in enumerate(instances)
            ]
            await asyncio.sleep(0)  # all admitted, at most one dispatched
            await service.aclose()
            return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        assert list(results) == [
            sequential.execute(q, chain_db) for q in instances
        ]


class TestCancellation:
    def test_cancelled_originator_does_not_strand_coalesced(self, chain_db):
        """The in-flight entry outlives its originating caller: a
        coalesced waiter still completes after the originator cancels."""
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService() as service:
                first = asyncio.ensure_future(service.execute(query, chain_db))
                await asyncio.sleep(0)  # originator registers in flight
                second = asyncio.ensure_future(service.execute(query, chain_db))
                await asyncio.sleep(0)
                first.cancel()
                result = await second
                stats = await service.stats()
                return result, stats

        result, stats = asyncio.run(main())
        assert result == QueryEngine(parallel=False).execute(query, chain_db)
        assert stats["service"]["coalesced"] == 1

    def test_cancelled_caller_mid_backpressure_loses_nothing(self, chain_db):
        """Cancelling a caller awaiting queue admission must not lose its
        group: the enqueue is service-owned and completes anyway."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:12]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(max_pending=1, dispatchers=1) as service:
                tasks = [
                    asyncio.ensure_future(
                        service.execute(q, chain_db, client=f"c{i}")
                    )
                    for i, q in enumerate(instances)
                ]
                await asyncio.sleep(0.005)
                tasks[-1].cancel()
                return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        completed = 0
        for instance, outcome in zip(instances, outcomes):
            if isinstance(outcome, asyncio.CancelledError):
                continue
            assert outcome == sequential.execute(instance, chain_db)
            completed += 1
        assert completed >= len(instances) - 1

    def test_cancelled_member_does_not_strand_batch(self, chain_db):
        """Cancelling one member of a queued batch leaves the rest of the
        group intact and correctly answered."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:6]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(GatedEngine(), dispatchers=1) as service:
                async with busy_dispatcher(service, query, chain_db):
                    tasks = [
                        asyncio.ensure_future(service.execute(q, chain_db))
                        for q in instances
                    ]
                    await asyncio.sleep(0.01)  # all in one queued group
                    assert len(service._collecting) == 1
                    tasks[2].cancel()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                # A dequeued group is no longer open to joiners.
                assert service._collecting == {}
                stats = await service.stats()
                service.engine.close()
                return outcomes, stats

        outcomes, stats = asyncio.run(main())
        assert stats["service"]["max_group"] == len(instances)
        sequential = QueryEngine(parallel=False)
        for position, (instance, outcome) in enumerate(zip(instances, outcomes)):
            if position == 2:
                assert isinstance(outcome, asyncio.CancelledError)
            else:
                assert outcome == sequential.execute(instance, chain_db)

    def test_newcomer_never_inherits_a_cancellation(self, chain_db):
        """Submit A, cancel A, submit same-shape B: B is answered.  (With
        the batch window, B joined A's torn-down collector and raised
        ``CancelledRequestError`` — a cancellation it never asked for.)"""
        query = path_query(3, head_arity=1)
        first, second = (
            query.decision_instance((value,))
            for value in sorted({row[0] for row in chain_db["E"].rows})[:2]
        )

        async def main():
            async with QueryService() as service:
                await service.execute(query, chain_db)  # loop bound, plan warm
                doomed = asyncio.ensure_future(service.execute(first, chain_db))
                await asyncio.sleep(0)
                doomed.cancel()
                await asyncio.sleep(0)
                answer = await service.execute(second, chain_db)
                assert doomed.cancelled()
                return answer, await service.stats()

        answer, stats = asyncio.run(main())
        assert answer == QueryEngine(parallel=False).execute(second, chain_db)
        assert stats["service"]["failed"] == 0

    def test_torn_down_group_is_closed_to_joiners(self, chain_db):
        """A queued group whose every waiter left is purged from the queue
        and its token cancelled; it must stop being open too, or every
        later same-shape request would join a group no dispatcher will
        ever see."""
        query = path_query(3, head_arity=1)
        first, second = (
            query.decision_instance((value,))
            for value in sorted({row[0] for row in chain_db["E"].rows})[:2]
        )

        async def main():
            async with QueryService(GatedEngine(), dispatchers=1) as service:
                async with busy_dispatcher(service, query, chain_db):
                    doomed = asyncio.ensure_future(service.execute(first, chain_db))
                    await asyncio.sleep(0.005)  # queued behind the blocker, open
                    assert len(service._collecting) == 1
                    doomed.cancel()
                    await asyncio.sleep(0)  # last waiter gone: torn down
                    assert service._collecting == {}
                    newcomer = asyncio.ensure_future(
                        service.execute(second, chain_db)
                    )
                    await asyncio.sleep(0.005)
                answer = await asyncio.wait_for(newcomer, 10)
                stats = await service.stats()
                service.engine.close()
                return answer, stats

        answer, stats = asyncio.run(main())
        assert answer == QueryEngine(parallel=False).execute(second, chain_db)
        assert stats["service"]["cancelled"] == 1
        assert stats["service"]["groups"] == 2  # blocker + newcomer; the dead one never ran
        assert stats["service"]["failed"] == 0


class SlotEngine(QueryEngine):
    """An engine whose every ``run`` holds its dispatch slot until the test
    releases one — the way to watch how many groups run at once."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.running = self.peak = 0
        self.entered = threading.Semaphore(0)
        self.release = threading.Semaphore(0)

    def run(self, operation, database):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        self.entered.release()
        try:
            assert self.release.acquire(timeout=30)
            return super().run(operation, database)
        finally:
            with self.lock:
                self.running -= 1


class TestParseOnceDispatchOnce:
    """Text is parsed once per distinct string, and the pump starts at most
    ``dispatchers`` groups at once."""

    def test_same_text_is_one_query_object_and_the_memo_is_bounded(
        self, chain_db
    ):
        seen = []

        class Recording(QueryEngine):
            def run(self, operation, database):
                seen.append(operation.query)
                return super().run(operation, database)

        text = "ANS(x) :- E(x, y), E(y, z)."

        async def main():
            async with QueryService(Recording()) as service:
                for _ in range(3):
                    await service.run(Operation(EXECUTE, text), chain_db)
                for value in range(2000):
                    await service.decide(f"ANS() :- E({value}, y).", chain_db)
                return service._parse.cache_info()

        info = asyncio.run(main())
        assert seen[0] is seen[1] is seen[2]
        assert seen[0] == parse_query(text)
        assert info.currsize == PARSE_MEMO_SIZE == info.maxsize

    def test_bad_text_is_rejected_with_coordinates_on_every_repeat(self, chain_db):
        bad = "ANS(x) :- E(x, y), ."

        async def main():
            async with QueryService() as service:
                errors = []
                for _ in range(3):
                    with pytest.raises(RequestRejectedError) as excinfo:
                        await service.execute(bad, chain_db)
                    errors.append(excinfo.value)
                return errors, (await service.stats())["service"]

        errors, counters = asyncio.run(main())
        assert [error.code for error in errors] == ["parse_error"] * 3
        assert all(error.detail == errors[0].detail for error in errors)
        assert errors[0].detail["line"] == 1 and errors[0].detail["column"] > 1
        assert counters["rejected"] == 3

    def test_at_most_dispatchers_groups_run_and_a_freed_slot_starts_the_next(
        self, chain_db
    ):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:3]
        # ``explain`` never batches: three distinct requests, three groups.
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            engine = SlotEngine()
            async with QueryService(engine, dispatchers=2) as service:
                tasks = [
                    asyncio.ensure_future(service.explain(q, chain_db))
                    for q in instances
                ]
                for _ in range(2):
                    assert await asyncio.to_thread(engine.entered.acquire, True, 30)
                # The third group waits for a slot while two run.
                assert not await asyncio.to_thread(
                    engine.entered.acquire, True, 0.2
                )
                assert engine.running == 2
                # ...and still in the queue, not parked in the worker pool.
                assert (await service.stats())["service"]["groups"] == 2
                assert service._queue.qsize() == 1
                engine.release.release()
                assert await asyncio.to_thread(engine.entered.acquire, True, 30)
                engine.release.release()
                engine.release.release()
                results = await asyncio.gather(*tasks)
                stats = (await service.stats())["service"]
            engine.close()
            return results, stats, engine.peak

        results, stats, peak = asyncio.run(main())
        assert len(results) == 3 and peak == 2
        assert stats["groups"] == 3 and stats["completed"] == 3

    def test_the_service_keeps_no_answer_once_its_caller_has_it(self, chain_db):
        """A dispatcher that held its last group kept that answer alive
        until it took the next one — on large answers, memory and a free
        inside the next request's wait."""

        async def main():
            async with QueryService() as service:
                answers = []
                for hops in (2, 3, 4):
                    query = path_query(hops, head_arity=2)
                    answers.append(await service.execute(query, chain_db))
                    await asyncio.sleep(0.01)
                answers.append(object())  # a control nothing else refers to
                return [sys.getrefcount(item) for item in answers]

        *counts, control = asyncio.run(main())
        assert counts == [control] * 3

    def test_a_failed_submit_settles_the_group_and_frees_its_slot(self, chain_db):
        query = path_query(3, head_arity=1)
        first, second = (
            query.decision_instance((value,))
            for value in sorted({row[0] for row in chain_db["E"].rows})[:2]
        )

        async def main():
            async with QueryService(dispatchers=1) as service:
                pool = service._pool
                submit = pool.submit

                def closed(*args):
                    raise RuntimeError("cannot schedule new futures after shutdown")

                pool.submit = closed
                with pytest.raises(RuntimeError, match="after shutdown"):
                    await asyncio.wait_for(service.execute(first, chain_db), 10)
                pool.submit = submit
                # The only slot came back: the next group runs.
                answer = await asyncio.wait_for(service.execute(second, chain_db), 10)
                return answer, (await service.stats())["service"]

        answer, counters = asyncio.run(main())
        assert answer == QueryEngine(parallel=False).execute(second, chain_db)
        assert counters["failed"] == 1 and counters["completed"] == 1


class ThreadRecording(QueryEngine):
    """An engine that notes the thread each request runs on, and when."""

    def __init__(self):
        super().__init__()
        self.threads = []
        self.spans = []

    def run(self, operation, database):
        self.threads.append((operation.kind, threading.current_thread().name))
        started = time.perf_counter()
        try:
            return super().run(operation, database)
        finally:
            self.spans.append((started, time.perf_counter()))


#: A 2-hop ``!=`` execute the planner routes ``naive``: from a start with no
#: out-edges it answers at once, from a start on the complete 50-node graph
#: it enumerates ~115 000 answers (tens of milliseconds).
SLOW_SHAPE = "Q(a, b, c) :- E({}, a), E(a, b), E(b, c), a != c."


@pytest.fixture(scope="module")
def complete_db():
    n = 50
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return Database({"E": Relation.from_rows(("s", "t"), edges)})


async def warm_with_fast_instances(service, database, repeats=20):
    """Record runs of the slow shape from a start that answers at once."""
    fast = parse_query(SLOW_SHAPE.format(999))
    for _ in range(repeats):
        assert len(await service.execute(fast, database)) == 0


class TestInlineDispatch:
    """A warm group whose recorded runs fit in a switch interval runs on the
    loop's thread under a slice of one interval; everything else — a first
    sight, an unrecorded shape, a run that outlives its slice — runs on the
    pool."""

    def test_first_sight_runs_on_a_worker_and_a_warm_short_shape_on_the_loop(
        self, chain_db
    ):
        query = path_query(3, head_arity=1)

        async def main():
            engine = ThreadRecording()
            async with QueryService(engine) as service:
                for _ in range(3):
                    await service.execute(query, chain_db)
                return engine.threads, (await service.stats())["service"]

        threads, counters = asyncio.run(main())
        loop_thread = threading.main_thread().name
        (_, first), *warm = threads
        assert first.startswith("repro-worker")
        assert [name for _, name in warm] == [loop_thread] * 2
        assert counters["inline"] == 2 and counters["resubmitted"] == 0
        assert counters["groups"] == 3 and counters["completed"] == 3

    def test_explain_and_an_engine_that_records_nothing_use_the_pool(
        self, chain_db
    ):
        query = path_query(3, head_arity=1)

        class Canned(QueryEngine):
            """A fake: answers without running, so no run is recorded."""

            def __init__(self):
                super().__init__()
                self.threads = []

            def run(self, operation, database):
                self.threads.append(threading.current_thread().name)
                return True

        async def main():
            recording, canned = ThreadRecording(), Canned()
            async with QueryService(recording) as service:
                for _ in range(3):
                    await service.execute(query, chain_db)
                # explain records no run: a warm shape's explain still hops.
                await service.explain(query, chain_db)
            async with QueryService(canned) as service:
                for _ in range(5):
                    assert await service.decide(query, chain_db) is True
                counters = (await service.stats())["service"]
            return recording.threads, canned.threads, counters

        recorded, canned, counters = asyncio.run(main())
        kind, thread = recorded[-1]
        assert kind == EXPLAIN and thread.startswith("repro-worker")
        assert all(name.startswith("repro-worker") for name in canned)
        assert len(canned) == 5 and counters["inline"] == 0

    def test_a_slow_instance_moves_to_the_pool_after_one_slice(self, complete_db):
        slow = parse_query(SLOW_SHAPE.format(1))
        interval = sys.getswitchinterval()

        async def main():
            engine = ThreadRecording()
            async with QueryService(engine) as service:
                await warm_with_fast_instances(service, complete_db)
                assert engine.plan_for(slow, complete_db).evaluator == "naive"
                del engine.threads[:], engine.spans[:]
                # A concurrent 1 ms heartbeat: when each wake-up came.
                beats, stop = [], asyncio.Event()

                async def heartbeat():
                    while not stop.is_set():
                        beats.append(time.perf_counter())
                        await asyncio.sleep(0.001)

                beating = asyncio.ensure_future(heartbeat())
                await asyncio.sleep(0.01)
                # A pass of the cyclic garbage collector is a stretch
                # between two check-points of its own (~10 ms over this
                # run's garbage); off, the stretches timed are the search's.
                gc.disable()
                try:
                    answer = await service.execute(slow, complete_db)
                finally:
                    gc.enable()
                stop.set()
                await beating
                return answer, beats, engine, (await service.stats())["service"]

        answer, beats, engine, counters = asyncio.run(main())
        assert answer == NaiveEvaluator().evaluate(slow, complete_db)
        assert counters["resubmitted"] == 1 and counters["failed"] == 0
        # Tried on the loop, stopped by its slice, run again on a worker.
        names = [name for _, name in engine.threads]
        assert names[0] == threading.main_thread().name
        assert names[1].startswith("repro-worker") and len(names) == 2
        (inline_start, inline_end), (pooled_start, pooled_end) = engine.spans
        assert pooled_end - pooled_start > 4 * interval  # many slices long
        # The loop was held for one slice plus one stride of search steps
        # (~6 ms here); the heartbeat, waiting out that hold and then one
        # switch interval for the pooled run to hand the interpreter lock
        # over, beat again (~6–17 ms here).
        assert inline_end - inline_start < interval + 0.01
        resumed = next(beat for beat in beats if beat > inline_end)
        before = max(beat for beat in beats if beat < inline_start)
        assert resumed - before < 2 * interval + 0.02, resumed - before

    def test_a_resubmitted_request_still_meets_its_deadline(self, complete_db):
        slow = parse_query(SLOW_SHAPE.format(1))
        deadline = 0.03

        async def main():
            async with QueryService() as service:
                await warm_with_fast_instances(service, complete_db)
                started = time.perf_counter()
                with pytest.raises(DeadlineExceededError):
                    await service.execute(slow, complete_db, deadline=deadline)
                elapsed = time.perf_counter() - started
                # The pooled run stops at a check-point once abandoned.
                while service._running:
                    await asyncio.sleep(0.005)
                return elapsed, (await service.stats())["service"]

        elapsed, counters = asyncio.run(main())
        assert deadline <= elapsed < deadline + sys.getswitchinterval() + 0.05
        assert counters["resubmitted"] == 1
        assert counters["deadline_exceeded"] == 1 and counters["failed"] == 0

    def test_a_warm_run_hashes_the_shape_signature_once(self, chain_db):
        """The service's group key and the engine's lookups share one key,
        built and hashed once per query and database."""

        class Probe:
            calls = 0

            def __hash__(self):
                Probe.calls += 1
                return 0

        query = path_query(3, head_arity=1)
        # A signature that counts its own hashing (the probe is its first
        # item), set before anything keys the query.
        query._shape = (Probe(), *_shape_of(query))

        async def main():
            async with QueryService() as service:
                await service.execute(query, chain_db)
                await service.execute(query, chain_db)
                before = Probe.calls
                for _ in range(5):
                    await service.execute(query, chain_db)
                return Probe.calls - before

        assert asyncio.run(main()) <= 5


class TestEngineThreadSafety:
    def test_plan_cache_hammered_from_threads(self):
        """8 threads get, publish, record and re-plan 48 shapes through a
        16-entry table: every record counts once in the totals, and each
        stale plan is replaced at most once however many threads saw it
        drift."""
        table = ShapeTable(capacity=16)
        database = Database.from_tuples({"E": [(1, 2), (2, 3)]})
        cold = Planner().plan(path_query(2), database)
        errors = []
        replaced = []  # the stale plans a re-plan displaced (kept alive)
        operations = 400

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(operations):
                    key = ("shape", rng.randrange(48))
                    if table.get(key) is None:
                        table.publish(key, dataclasses.replace(cold))
                    rows = rng.choice((1, 1000))
                    stale = table.record(key, 0.001, rows)
                    if stale is None:
                        continue
                    plan = dataclasses.replace(
                        stale,
                        replans=stale.replans + 1,
                        corrected_rows=float(rows),
                        estimated_rows=float(rows),
                    )
                    if table.replace(key, stale, plan):
                        replaced.append(stale)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = table.stats()
        cache = stats["cache"]
        assert cache["size"] <= cache["capacity"] == 16
        assert cache["hits"] + cache["misses"] == 8 * operations
        assert stats["executions"] == 8 * operations
        assert stats["replans"] == len(replaced) > 0
        assert len({id(plan) for plan in replaced}) == len(replaced)
        assert sum(row["replans"] for row in stats["shapes"]) <= len(replaced)

    def test_shared_engine_from_raw_threads(self, chain_db):
        """Below the asyncio layer: the engine itself is thread-safe."""
        engine = QueryEngine()
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:32]
        sequential = QueryEngine(parallel=False)
        reference = {
            value: sequential.execute(
                query.decision_instance((value,)), chain_db
            )
            for value in starts
        }
        mismatches = []

        def worker(values):
            for value in values:
                got = engine.execute(query.decision_instance((value,)), chain_db)
                if got != reference[value]:
                    mismatches.append(value)

        threads = [
            threading.Thread(target=worker, args=(starts[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
        stats = engine.stats()
        assert stats["executions"] == len(starts)
        engine.close()
