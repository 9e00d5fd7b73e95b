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
import random
import threading

import pytest

from repro import QueryEngine, QueryService, parse_query
from repro.engine import PlanCache
from repro.errors import SchemaError
from repro.operations import DECIDE, EXECUTE, EXPLAIN, operations_of
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


class TestEngineThreadSafety:
    def test_plan_cache_hammered_from_threads(self):
        cache = PlanCache(capacity=16)
        errors = []
        operations = 400

        def worker(seed):
            rng = random.Random(seed)
            try:
                for i in range(operations):
                    key = ("shape", rng.randrange(48))
                    if cache.get(key) is None:
                        cache.put(key, ("plan", key))
                    if i % 97 == 0:
                        cache.invalidate(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert len(cache) <= 16
        assert stats["size"] <= stats["capacity"]
        assert stats["hits"] + stats["misses"] == 8 * operations

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
