"""Chaos suite: injected faults against a live server, invariants checked.

Every scenario drives a real TCP server through a deterministic
:class:`~repro.resilience.FaultPlan` and asserts the two invariants the
resilience layer promises:

* **no request is silently lost or hangs** — every outcome is either the
  byte-correct result or a typed error, under a hard ``wait_for`` bound;
* **the system keeps serving** — after the fault, a follow-up request on
  a surviving (or fresh) connection returns the byte-correct result.
"""

import asyncio
import random
import time

import pytest

from repro import QueryEngine
from repro.errors import ConnectionLostError, RetryExhaustedError
from repro.protocol import AsyncQueryClient, QueryServer, RemoteQueryError
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.faults import FAULTS_ENV_VAR
from repro.workloads import chain_database
from repro.workloads.queries import path_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

WAIT = 30  # hard bound: nothing in this suite may hang


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=24, p=0.3, seed=7)


@pytest.fixture(scope="module")
def fast_query():
    return path_query(3, head_arity=1)


@pytest.fixture(scope="module")
def reference(chain_db, fast_query):
    return QueryEngine(parallel=False).execute(fast_query, chain_db)


def run(coroutine):
    return asyncio.run(coroutine)


class TestWorkerCrashRecovery:
    def test_pool_crash_under_live_traffic_is_transparent(
        self, chain_db, fast_query, reference, monkeypatch
    ):
        """A worker-pool crash mid-query respawns + retries; the caller
        sees the byte-correct result, never an error."""
        plan = FaultPlan({"pool.worker_crash": {"times": 1}})
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_env())

        async def main():
            # The server's service constructs its dispatch pool under the
            # patched environment, so the crash lands in the real serving
            # path, not a test double.
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    results = [
                        await asyncio.wait_for(
                            client.execute(fast_query, "chain"), WAIT
                        )
                        for _ in range(3)
                    ]
                recovered = server.service._pool.recoveries
            return results, recovered

        results, recovered = run(main())
        assert all(result == reference for result in results)
        assert recovered >= 1


class TestTransportFaults:
    def test_delayed_response_keeps_pipelining_correct(
        self, chain_db, fast_query, reference
    ):
        plan = FaultPlan({"server.delay": {"after": 1, "times": 1, "delay": 0.2}})

        async def main():
            async with QueryServer({"chain": chain_db}, fault_plan=plan) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    tasks = [
                        asyncio.ensure_future(client.execute(fast_query, "chain"))
                        for _ in range(3)
                    ]
                    return await asyncio.wait_for(asyncio.gather(*tasks), WAIT)

        results = run(main())
        assert results == [reference] * 3
        assert plan.fired("server.delay") == 1

    def test_dropped_connection_fails_typed_then_retry_recovers(
        self, chain_db, fast_query, reference
    ):
        plan = FaultPlan({"server.drop": {"after": 1, "times": 1}})

        async def main():
            async with QueryServer({"chain": chain_db}, fault_plan=plan) as server:
                host, port = server.address
                # Without retry: the dropped response surfaces as the
                # typed connection loss, never a hang or a wrong answer.
                bare = await AsyncQueryClient.connect(host, port)
                assert await bare.ping()
                with pytest.raises((ConnectionLostError, ConnectionError)):
                    await asyncio.wait_for(bare.execute(fast_query, "chain"), WAIT)
                await bare.aclose()
                # With retry: the same fault heals transparently.
                plan2 = FaultPlan({"server.drop": {"after": 1, "times": 1}})
                server._faults = plan2
                retrying = await AsyncQueryClient.connect(
                    host, port, retry=RetryPolicy(max_attempts=4, base_delay=0.01),
                    rng=random.Random(3),
                )
                assert await retrying.ping()
                result = await asyncio.wait_for(
                    retrying.execute(fast_query, "chain"), WAIT
                )
                reconnects = retrying.reconnects
                await retrying.aclose()
            return result, reconnects

        result, reconnects = run(main())
        assert result == reference
        assert reconnects >= 1

    def test_torn_frame_fails_loudly_never_truncated(
        self, chain_db, fast_query, reference
    ):
        plan = FaultPlan({"server.torn_frame": {"after": 1, "times": 1}})

        async def main():
            async with QueryServer({"chain": chain_db}, fault_plan=plan) as server:
                host, port = server.address
                bare = await AsyncQueryClient.connect(host, port)
                assert await bare.ping()
                # Half a frame must never decode into a result: the
                # client fails with the typed connection loss instead.
                with pytest.raises((ConnectionLostError, ConnectionError)):
                    await asyncio.wait_for(bare.execute(fast_query, "chain"), WAIT)
                await bare.aclose()
                # A fresh connection gets the byte-correct answer.
                async with await AsyncQueryClient.connect(host, port) as client:
                    result = await asyncio.wait_for(
                        client.execute(fast_query, "chain"), WAIT
                    )
            return result

        assert run(main()) == reference


class TestCancellationOverTheWire:
    def test_cancel_op_tears_down_inflight_request(
        self, chain_db, fast_query, adversarial
    ):
        slow_query, slow_db = adversarial

        async def main():
            async with QueryServer(
                {"slow": slow_db, "chain": chain_db}, parallel=False
            ) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    task = asyncio.ensure_future(client.execute(slow_query, "slow"))
                    await asyncio.sleep(0.15)  # request reaches the engine
                    (target,) = client.pending_ids()
                    cancelled = await asyncio.wait_for(client.cancel(target), WAIT)
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await asyncio.wait_for(task, WAIT)
                    # The connection survives and the lane is free: a
                    # fast query completes promptly.
                    started = time.monotonic()
                    result = await asyncio.wait_for(
                        client.execute(fast_query, "chain"), WAIT
                    )
                    elapsed = time.monotonic() - started
                    stats = await client.stats()
            return cancelled, excinfo.value, result, elapsed, stats

        cancelled, error, result, elapsed, stats = run(main())
        assert cancelled is True
        assert error.code == "cancelled"
        assert len(result.rows) >= 0  # decoded — a real relation came back
        assert elapsed < 10  # did not queue behind the cancelled query
        assert stats["transport"]["cancel_requests"] == 1
        assert stats["service"]["cancelled"] >= 1

    def test_cancelling_a_finished_request_is_false_not_an_error(self, chain_db):
        async def main():
            async with QueryServer({"chain": chain_db}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    assert await client.ping()  # id 1, already answered
                    return await asyncio.wait_for(client.cancel(1), WAIT)

        assert run(main()) is False

    def test_deadline_aborts_over_the_wire_within_budget(
        self, chain_db, fast_query, adversarial
    ):
        slow_query, slow_db = adversarial
        deadline = 0.3

        async def main():
            async with QueryServer(
                {"slow": slow_db, "chain": chain_db}, parallel=False
            ) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    started = time.monotonic()
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await asyncio.wait_for(
                            client.execute(slow_query, "slow", deadline=deadline),
                            WAIT,
                        )
                    elapsed = time.monotonic() - started
                    result = await asyncio.wait_for(
                        client.execute(fast_query, "chain"), WAIT
                    )
                    stats = await client.stats()
            return excinfo.value, elapsed, result, stats

        error, elapsed, result, stats = run(main())
        assert error.code == "deadline_exceeded"
        assert elapsed < deadline * 2 + 0.3  # ~2x budget plus transport slack
        assert result.arity == 1
        assert stats["service"]["deadline_exceeded"] == 1


class TestConnectionLimits:
    def test_busy_rejection_is_typed_and_retry_waits_it_out(self, chain_db):
        async def main():
            async with QueryServer(
                {"chain": chain_db}, max_connections=1
            ) as server:
                host, port = server.address
                first = await AsyncQueryClient.connect(host, port)
                assert await first.ping()
                # Second connection: one structured server_busy frame.
                bare = await AsyncQueryClient.connect(host, port)
                with pytest.raises(RemoteQueryError) as excinfo:
                    await asyncio.wait_for(bare.ping(), WAIT)
                await bare.aclose()
                busy_error = excinfo.value
                # A retrying client heals once the slot frees up.
                retrying = await AsyncQueryClient.connect(
                    host,
                    port,
                    retry=RetryPolicy(max_attempts=8, base_delay=0.05),
                    rng=random.Random(5),
                )
                ping_task = asyncio.ensure_future(retrying.ping())
                await asyncio.sleep(0.1)
                await first.aclose()  # the slot frees
                assert await asyncio.wait_for(ping_task, WAIT)
                await retrying.aclose()  # frees the single slot again
                # The server may still be reaping the closed connection —
                # a retrying stats client absorbs that race.
                stats_client = await AsyncQueryClient.connect(
                    host,
                    port,
                    retry=RetryPolicy(max_attempts=8, base_delay=0.05),
                    rng=random.Random(13),
                )
                stats = await asyncio.wait_for(stats_client.stats(), WAIT)
                await stats_client.aclose()
            return busy_error, stats

        busy_error, stats = run(main())
        assert busy_error.code == "server_busy"
        assert busy_error.detail["max_connections"] == 1
        assert stats["transport"]["busy_rejections"] >= 1
        assert stats["transport"]["max_connections"] == 1

    def test_retry_budget_exhausts_typed_when_server_stays_busy(self, chain_db):
        async def main():
            async with QueryServer(
                {"chain": chain_db}, max_connections=1
            ) as server:
                host, port = server.address
                holder = await AsyncQueryClient.connect(host, port)
                assert await holder.ping()
                retrying = await AsyncQueryClient.connect(
                    host,
                    port,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                    rng=random.Random(9),
                )
                with pytest.raises(RetryExhaustedError) as excinfo:
                    await asyncio.wait_for(retrying.ping(), WAIT)
                await retrying.aclose()
                await holder.aclose()
            return excinfo.value

        error = run(main())
        assert error.attempts == 2
        assert isinstance(error.last_error, RemoteQueryError)
        assert error.last_error.code == "server_busy"

    def test_idle_connections_are_reaped_active_ones_survive(
        self, chain_db, fast_query, reference
    ):
        async def main():
            async with QueryServer(
                {"chain": chain_db}, idle_timeout=0.15
            ) as server:
                host, port = server.address
                idle = await AsyncQueryClient.connect(host, port)
                assert await idle.ping()
                busy = await AsyncQueryClient.connect(host, port)
                # Keep one connection active across the idle window.
                for _ in range(6):
                    await asyncio.wait_for(busy.ping(), WAIT)
                    await asyncio.sleep(0.08)
                # The silent connection is gone — typed, not hanging.
                with pytest.raises((ConnectionError, RemoteQueryError)):
                    await asyncio.wait_for(idle.ping(), WAIT)
                await idle.aclose()
                result = await asyncio.wait_for(
                    busy.execute(fast_query, "chain"), WAIT
                )
                stats = await busy.stats()
                await busy.aclose()
            return result, stats

        result, stats = run(main())
        assert result == reference
        assert stats["transport"]["idle_closed"] >= 1

    def test_idle_timeout_counts_complete_frames_not_bytes(self, chain_db):
        """A peer trickling one byte of an unfinished frame every 50 ms is
        still idle: the 0.15 s timeout runs from the last complete frame."""
        frame = b'{"v": 2, "op": "ping", "id": 1' + b" " * 200 + b"}\n"

        async def main():
            async with QueryServer({"chain": chain_db}, idle_timeout=0.15) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)

                async def trickle():
                    for byte in frame:
                        writer.write(bytes([byte]))
                        await writer.drain()
                        await asyncio.sleep(0.05)

                started = time.monotonic()
                trickling = asyncio.ensure_future(trickle())
                answer = await asyncio.wait_for(reader.readline(), WAIT)
                elapsed = time.monotonic() - started
                trickling.cancel()
                await asyncio.gather(trickling, return_exceptions=True)
                writer.close()
                await asyncio.gather(writer.wait_closed(), return_exceptions=True)
                stats = server._transport_stats()
            return decode(answer), elapsed, stats

        from repro.protocol import decode

        answer, elapsed, stats = run(main())
        assert answer.id is None and answer.error.code == "cancelled"
        assert answer.error.detail["idle_timeout"] == 0.15
        assert elapsed < 2  # the frame itself would take ~11 s to finish
        assert stats["idle_closed"] == 1
