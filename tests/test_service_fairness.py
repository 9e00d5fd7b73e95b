"""Service-layer fairness, typed rejections, and per-client stats.

The in-process half of the protocol PR: the :class:`FairQueue` round-robin
contract (deterministic, no timing), the per-client admission budget
(structured :class:`ServiceOverloadedError`, never a wedged queue), the
typed mapping of ``parse_query`` failures on **every** facade method (the
regression the PR fixes — raw ``ParseError`` tracebacks used to cross the
facade), and the per-client stats rollup.
"""

import asyncio

import pytest

from repro import QueryEngine, QueryService
from repro.errors import ParseError, RequestRejectedError, ServiceOverloadedError
from repro.operations import operations_of
from repro.service import FairQueue
from repro.telemetry import CLIENT_COUNTERS
from repro.workloads import chain_database
from repro.workloads.queries import path_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


class TestFairQueue:
    def test_round_robin_across_lanes(self):
        async def main():
            queue = FairQueue()
            for item in range(10):
                await queue.put(("flood", item), "flood")
            for item in range(2):
                await queue.put(("polite", item), "polite")
            order = [queue.get_nowait() for _ in range(12)]
            return order

        order = asyncio.run(main())
        # The two polite items are served 2nd and 4th — never behind the
        # whole flood, which plain FIFO would force (11th and 12th).
        assert order[1] == ("polite", 0)
        assert order[3] == ("polite", 1)
        assert [item for item in order if item[0] == "flood"] == [
            ("flood", item) for item in range(10)
        ]  # FIFO within a lane

    def test_three_lanes_interleave(self):
        async def main():
            queue = FairQueue()
            for lane in ("a", "b", "c"):
                for item in range(3):
                    await queue.put((lane, item), lane)
            return [queue.get_nowait() for _ in range(9)]

        order = asyncio.run(main())
        assert [lane for lane, _ in order] == list("abc" * 3)

    def test_bounded_put_blocks_and_join_settles(self):
        async def main():
            queue = FairQueue(maxsize=2)
            await queue.put(1, "a")
            await queue.put(2, "b")
            assert queue.full()
            blocked = asyncio.ensure_future(queue.put(3, "a"))
            await asyncio.sleep(0)
            assert not blocked.done()
            assert queue.get_nowait() == 1
            await blocked  # the freed slot admits the waiter
            assert queue.qsize() == 2
            assert queue.pending_for("a") == 1
            assert queue.pending_for("b") == 1
            got = [queue.get_nowait(), queue.get_nowait()]
            assert sorted(got) == [2, 3]
            for _ in range(3):
                queue.task_done()
            await asyncio.wait_for(queue.join(), timeout=1)

        asyncio.run(main())

    def test_put_nowait_raises_when_full(self):
        async def main():
            queue = FairQueue(maxsize=1)
            queue.put_nowait(1, "a")
            with pytest.raises(asyncio.QueueFull):
                queue.put_nowait(2, "a")

        asyncio.run(main())

    def test_cancelled_putter_does_not_lose_the_slot(self):
        async def main():
            queue = FairQueue(maxsize=1)
            await queue.put(1, "a")
            first = asyncio.ensure_future(queue.put(2, "a"))
            second = asyncio.ensure_future(queue.put(3, "b"))
            await asyncio.sleep(0)
            first.cancel()
            await asyncio.gather(first, return_exceptions=True)
            queue.get_nowait()
            await asyncio.wait_for(second, timeout=1)  # slot passed along
            assert queue.qsize() == 1

        asyncio.run(main())


class TestTypedRejections:
    """Malformed queries on every facade method: typed errors, not
    parser tracebacks, and the service stays fully usable afterwards."""

    BAD = "Q(x) :- E(x, "

    @pytest.mark.parametrize(
        "method, batch_kind",
        [
            ("execute", None),
            ("decide", None),
            ("explain", None),
            ("run_batch", "execute"),
            ("run_batch", "decide"),
        ],
    )
    def test_malformed_text_is_typed_on_every_facade_method(
        self, chain_db, method, batch_kind
    ):
        async def main():
            async with QueryService() as service:
                call = getattr(service, method)
                argument = (
                    operations_of(batch_kind, [self.BAD])
                    if batch_kind
                    else self.BAD
                )
                with pytest.raises(RequestRejectedError) as excinfo:
                    await call(argument, chain_db)
                error = excinfo.value
                assert not isinstance(error, ParseError)
                assert error.code == "parse_error"
                assert error.detail["position"] >= 0
                assert error.detail["line"] == 1
                assert error.__cause__.__class__ is ParseError
                # The service keeps serving after the rejection.
                query = path_query(3, head_arity=1)
                result = await service.execute(query, chain_db)
                stats = await service.stats()
                return result, stats

        result, stats = asyncio.run(main())
        assert result.cardinality > 0
        assert stats["service"]["rejected"] == 1
        assert stats["service"]["failed"] == 0

    @pytest.mark.parametrize("method", ["execute", "decide", "explain"])
    def test_non_query_objects_rejected_as_bad_request(self, chain_db, method):
        async def main():
            async with QueryService() as service:
                with pytest.raises(RequestRejectedError) as excinfo:
                    await getattr(service, method)(42, chain_db)
                return excinfo.value

        error = asyncio.run(main())
        assert error.code == "bad_request"

    def test_text_queries_execute_like_objects(self, chain_db):
        text = "Q(x, y) :- E(x, y)."

        async def main():
            async with QueryService() as service:
                from_text = await service.execute(text, chain_db)
                from_object = await service.execute(
                    path_query(1, head_arity=2), chain_db
                )
                return from_text, from_object

        from_text, from_object = asyncio.run(main())
        sequential = QueryEngine(parallel=False)
        from repro import parse_query

        assert from_text == sequential.execute(parse_query(text), chain_db)
        assert from_text.cardinality == chain_db["E"].cardinality
        assert from_object == from_text


class TestPerClientBudget:
    def test_flooding_client_rejected_polite_client_unaffected(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        flood = [query.decision_instance((value,)) for value in starts[:20]]
        polite = [query.decision_instance((value,)) for value in starts[20:24]]

        async def main():
            async with QueryService(
                dispatchers=1, max_pending_per_client=3
            ) as service:
                flood_outcomes = await asyncio.gather(
                    *(
                        service.execute(q, chain_db, client="flood")
                        for q in flood
                    ),
                    return_exceptions=True,
                )
                polite_results = [
                    await service.execute(q, chain_db, client="polite")
                    for q in polite
                ]
                stats = await service.stats()
            return flood_outcomes, polite_results, stats

        flood_outcomes, polite_results, stats = asyncio.run(main())
        rejected = [
            outcome
            for outcome in flood_outcomes
            if isinstance(outcome, ServiceOverloadedError)
        ]
        completed = [
            outcome
            for outcome in flood_outcomes
            if not isinstance(outcome, BaseException)
        ]
        assert rejected and completed
        for error in rejected:
            assert error.code == "backpressure"
            assert error.detail["client"] == "flood"
            assert error.detail["budget"] == 3
        sequential = QueryEngine(parallel=False)
        assert polite_results == [
            sequential.execute(q, chain_db) for q in polite
        ]
        clients = {client["client"]: client for client in stats["clients"]}
        assert clients["flood"]["rejected"] == len(rejected)
        assert clients["polite"]["rejected"] == 0
        assert stats["service"]["rejected"] == len(rejected)

    def test_unbounded_by_default(self, chain_db):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:16]
        instances = [query.decision_instance((value,)) for value in starts]

        async def main():
            async with QueryService(dispatchers=1) as service:
                results = await asyncio.gather(
                    *(
                        service.execute(q, chain_db, client="one")
                        for q in instances
                    )
                )
                stats = await service.stats()
            return results, stats

        results, stats = asyncio.run(main())
        assert len(results) == len(instances)
        assert stats["service"]["rejected"] == 0

    def test_coalesced_requests_do_not_burn_budget(self, chain_db):
        query = path_query(4, head_arity=1)

        async def main():
            async with QueryService(max_pending_per_client=2) as service:
                results = await asyncio.gather(
                    *(
                        service.execute(query, chain_db, client="hot")
                        for _ in range(12)
                    )
                )
                stats = await service.stats()
            return results, stats

        results, stats = asyncio.run(main())
        # 12 identical requests: 1 admitted, 11 coalesced — none rejected,
        # because coalesced waiters ride an execution they do not own.
        assert all(result == results[0] for result in results)
        assert stats["service"]["rejected"] == 0
        clients = {client["client"]: client for client in stats["clients"]}
        assert clients["hot"]["coalesced"] == 11


class TestPerClientStats:
    def test_rollup_counts_and_latencies(self, chain_db):
        query = path_query(4, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})
        alpha = [query.decision_instance((value,)) for value in starts[:6]]
        beta = [query.decision_instance((value,)) for value in starts[6:9]]

        async def main():
            async with QueryService() as service:
                await asyncio.gather(
                    *(service.execute(q, chain_db, client="alpha") for q in alpha),
                    *(service.decide(q, chain_db, client="beta") for q in beta),
                )
                return await service.stats()

        stats = asyncio.run(main())
        clients = {client["client"]: client for client in stats["clients"]}
        assert {"alpha", "beta"} <= set(clients)
        alpha_stats = clients["alpha"]
        beta_stats = clients["beta"]
        assert set(alpha_stats) == {
            "client",
            *CLIENT_COUNTERS,
            "p50_seconds",
            "p95_seconds",
        }
        assert alpha_stats["submitted"] == len(alpha)
        assert alpha_stats["completed"] == len(alpha)
        assert beta_stats["submitted"] + beta_stats["coalesced"] == len(beta)
        assert alpha_stats["p95_seconds"] >= alpha_stats["p50_seconds"] >= 0.0
        assert alpha_stats["p95_seconds"] > 0.0
        with pytest.raises(KeyError):
            clients["nobody"]

    def test_anonymous_callers_share_one_lane(self, chain_db):
        query = path_query(3, head_arity=1)

        async def main():
            async with QueryService() as service:
                await service.execute(query, chain_db)
                stats = await service.stats()
            return stats

        stats = asyncio.run(main())
        assert [client["client"] for client in stats["clients"]] == [""]
        assert stats["clients"][0]["submitted"] == 1
