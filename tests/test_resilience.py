"""Unit tests for the resilience layer: tokens, policies, faults, pool.

The end-to-end behavior — deadlines and cancellation over the wire,
injected transport faults, crash recovery under live traffic — lives in
``test_chaos.py``; this file pins the building blocks in isolation.
"""

import asyncio
import os
import random
import threading
import time

import pytest

from repro.errors import (
    CancelledRequestError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from repro.resilience import (
    DEFAULT_RETRY_CODES,
    CancelToken,
    Fault,
    FaultPlan,
    RetryPolicy,
    activate,
    check_cancelled,
    current_token,
)
from repro.resilience.faults import FAULTS_ENV_VAR


class TestCancelToken:
    def test_fresh_token_is_quiet(self):
        token = CancelToken()
        token.check()  # no deadline, not cancelled: never raises
        assert token.remaining() is None
        assert not token.expired
        assert not token.cancelled

    def test_deadline_expires(self):
        token = CancelToken(deadline=0.02)
        assert token.remaining() is not None
        token.check()
        time.sleep(0.03)
        assert token.expired
        with pytest.raises(DeadlineExceededError) as excinfo:
            token.check()
        assert excinfo.value.detail["deadline"] == 0.02
        assert token.remaining() == 0.0

    def test_nonpositive_deadline_is_expired_on_arrival(self):
        token = CancelToken(deadline=0.0)
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_cancel_is_sticky_and_typed(self):
        token = CancelToken()
        token.cancel("client went away")
        token.cancel("second call is a no-op")
        assert token.cancelled
        assert token.reason == "client went away"
        with pytest.raises(CancelledRequestError) as excinfo:
            token.check()
        assert "client went away" in str(excinfo.value)

    def test_expiry_wins_over_cancellation(self):
        token = CancelToken(deadline=0.0)
        token.cancel("also cancelled")
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_ambient_activation_is_scoped_and_thread_local(self):
        token = CancelToken()
        assert current_token() is None
        check_cancelled()  # ambient no-token: a no-op
        with activate(token):
            assert current_token() is token
            token.cancel("stop")
            with pytest.raises(CancelledRequestError):
                check_cancelled()
        assert current_token() is None

        seen = {}

        def worker():
            seen["token"] = current_token()

        with activate(token):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["token"] is None  # ambient state never leaks across threads

    def test_activation_nests(self):
        outer, inner = CancelToken(), CancelToken()
        with activate(outer):
            with activate(inner):
                assert current_token() is inner
            assert current_token() is outer


class TestRetryPolicy:
    def test_transport_errors_retry(self):
        policy = RetryPolicy()
        assert policy.retryable(ConnectionError("gone"))
        assert policy.retryable(ConnectionResetError("reset"))
        assert policy.retryable(TimeoutError("slow"))
        assert policy.retryable(OSError("broken pipe"))

    def test_structured_codes_split_transient_from_permanent(self):
        from repro.protocol import RemoteQueryError

        policy = RetryPolicy()
        for code in sorted(DEFAULT_RETRY_CODES):
            assert policy.retryable(RemoteQueryError(code, "transient"))
        for code in ("parse_error", "unknown_database", "deadline_exceeded"):
            assert not policy.retryable(RemoteQueryError(code, "permanent"))
        assert not policy.retryable(ValueError("not transport, no code"))

    def test_backoff_schedule_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0)
        assert [policy.delay_for(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.5]
        jittery = RetryPolicy(base_delay=0.1, jitter=0.5)
        a = [jittery.delay_for(k, random.Random(7)) for k in (1, 2, 3)]
        b = [jittery.delay_for(k, random.Random(7)) for k in (1, 2, 3)]
        assert a == b  # caller-seeded RNG: replayable schedules
        assert all(d >= 0 for d in a)

    def test_backoff_is_the_budget_one_delay_per_further_attempt(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5)
        rng = random.Random(7)
        expected = [policy.delay_for(k, rng) for k in (1, 2, 3)]
        # max_attempts tries = max_attempts - 1 delays, drawn in delay_for's
        # order from the caller's RNG, one draw per delay asked for.
        assert list(policy.backoff(random.Random(7))) == expected
        lazy, once = random.Random(7), random.Random(7)
        assert next(policy.backoff(lazy)) == policy.delay_for(1, once)
        assert lazy.getstate() == once.getstate()
        assert list(RetryPolicy(max_attempts=1).backoff()) == []
        # The elapsed budget ends it early: the second delay (0.2 s) would
        # overrun 0.15 s even with no time spent.
        tight = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0, max_elapsed=0.15)
        assert list(tight.backoff()) == [0.1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


class TestFaultPlan:
    def test_fire_counts_down_after_then_times(self):
        plan = FaultPlan({"server.drop": {"after": 2, "times": 2}})
        assert plan.fire("server.drop") is None
        assert plan.fire("server.drop") is None
        assert isinstance(plan.fire("server.drop"), Fault)
        assert isinstance(plan.fire("server.drop"), Fault)
        assert plan.fire("server.drop") is None  # budget spent
        assert plan.fired("server.drop") == 2

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan({"server.meteor": {}})

    def test_delay_travels_on_the_fault(self):
        plan = FaultPlan({"server.delay": {"delay": 0.25}})
        fault = plan.fire("server.delay")
        assert fault is not None and fault.delay == 0.25

    def test_env_roundtrip(self):
        plan = FaultPlan(
            {
                "pool.worker_crash": {"after": 1, "times": 3},
                "server.delay": {"delay": 0.1},
            }
        )
        os.environ[FAULTS_ENV_VAR] = plan.to_env()
        try:
            loaded = FaultPlan.from_env()
        finally:
            del os.environ[FAULTS_ENV_VAR]
        assert loaded
        assert loaded.fire("pool.worker_crash") is None  # after=1 → first is free
        assert loaded.fire("pool.worker_crash") is not None

    def test_empty_plan_is_falsy_and_inert(self, monkeypatch):
        plan = FaultPlan()
        assert not plan and plan.empty
        assert plan.fire("server.drop") is None
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.from_env().empty


class TestWorkerPoolRecovery:
    def test_thread_pool_crash_is_recovered_and_retried(self):
        from repro.parallel.pool import WorkerPool

        plan = FaultPlan({"pool.worker_crash": {"times": 1}})
        with WorkerPool(2, fault_plan=plan) as pool:
            results = pool.map(lambda x: x * x, range(8))
            assert sorted(results) == sorted(x * x for x in range(8))
            assert pool.recoveries == 1
            # Later work runs on the respawned executor, no retry needed.
            assert sorted(pool.map(lambda x: -x, range(4))) == [-3, -2, -1, 0]
            assert pool.recoveries == 1

    def test_submit_crash_is_recovered(self):
        from repro.parallel.pool import WorkerPool

        plan = FaultPlan({"pool.worker_crash": {"times": 1}})
        with WorkerPool(2, fault_plan=plan) as pool:
            task = pool.submit(lambda: (42, threading.current_thread().name))
            answer, thread = task.result(timeout=10)
            assert answer == 42
            assert pool.recoveries == 1
        # The retry ran on the fresh executor, not on the submitting thread
        # (for the service: the event loop).
        assert thread.startswith("repro-worker")

    def test_ambient_token_reaches_pool_workers(self):
        from repro.parallel.pool import WorkerPool

        token = CancelToken()
        token.cancel("stop the fan-out")
        with WorkerPool(2) as pool:
            with activate(token):
                with pytest.raises(CancelledRequestError):
                    pool.map(lambda _x: check_cancelled(), range(4))


class TestFairQueuePurge:
    def test_purge_removes_matching_items_and_fixes_accounting(self):
        from repro.service.fairness import FairQueue

        async def main():
            queue = FairQueue(maxsize=8)
            for tag, item in [("a", 1), ("a", 2), ("b", 3)]:
                await queue.put(item, client=tag)
            removed = queue.purge(lambda item: item != 3)
            assert removed == 2
            assert queue.qsize() == 1
            assert queue.get_nowait() == 3
            queue.task_done()
            await queue.join()  # purged items count as finished

        asyncio.run(main())


class TestServiceDeadlinesAndCancellation:
    def test_a_planned_run_stops_at_its_deadline(self, adversarial):
        """In process, no service: the planned route polls the token as it
        searches, so the engine itself stops near the deadline."""
        from repro import QueryEngine

        slow_query, slow_db = adversarial
        engine = QueryEngine(parallel=False)
        deadline = 0.5
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            with activate(CancelToken(deadline=deadline)):
                engine.execute(slow_query, slow_db)
        elapsed = time.monotonic() - started
        assert engine.plan_for(slow_query, slow_db).evaluator == "naive"
        assert elapsed < 1.25 * deadline

    def test_deadline_aborts_in_time_and_service_survives(self, adversarial):
        from repro import Database, QueryService, parse_query

        slow_query, slow_db = adversarial
        fast = parse_query("Q(x) :- E(x, y).")
        fast_db = Database.from_tuples({"E": [(1, 2), (2, 3)]})

        async def main():
            async with QueryService(parallel=False) as service:
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await service.execute(slow_query, slow_db, deadline=0.2)
                elapsed = time.monotonic() - started
                # The engine must actually stop, not run to completion in
                # the background: a follow-up request is served promptly.
                result = await service.execute(fast, fast_db)
                stats = await service.stats()
                return elapsed, result, stats

        elapsed, result, stats = asyncio.run(main())
        assert elapsed < 0.2 * 2 + 0.2  # within ~2x the budget (+ slack)
        assert sorted(result.rows) == [(1,), (2,)]
        assert stats["service"]["deadline_exceeded"] == 1
        assert stats["service"]["cancelled"] == 0

    def test_resubmit_after_deadline_starts_a_fresh_flight(self, adversarial):
        """An identical resubmission must not coalesce onto a flight whose
        teardown already fired: the dying execution may not have settled
        yet, and joining it would inherit its cancellation."""
        from repro import QueryService

        slow_query, slow_db = adversarial

        async def main():
            async with QueryService(parallel=False) as service:
                with pytest.raises(DeadlineExceededError):
                    await service.execute(slow_query, slow_db, deadline=0.2)
                # The first execution is still aborting between engine
                # check-points.  Without a fresh flight this raises
                # CancelledRequestError (the dead flight's settle)
                # instead of running and hitting its OWN deadline.
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await service.execute(slow_query, slow_db, deadline=0.2)
                elapsed = time.monotonic() - started
                stats = await service.stats()
                return elapsed, stats

        elapsed, stats = asyncio.run(main())
        assert elapsed >= 0.2  # it ran, it did not inherit a settle
        assert stats["service"]["deadline_exceeded"] == 2
        assert stats["service"]["cancelled"] == 0

    def test_caller_cancellation_releases_the_slot(self, adversarial):
        from repro import QueryService

        slow_query, slow_db = adversarial

        async def main():
            async with QueryService(parallel=False, dispatchers=1) as service:
                task = asyncio.ensure_future(
                    service.execute(slow_query, slow_db, deadline=30.0)
                )
                await asyncio.sleep(0.1)  # reaches the engine
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # The single dispatcher is free again: a fast query on the
                # same service completes quickly instead of queueing for
                # the abandoned query's full runtime.
                from repro import Database, parse_query

                fast = parse_query("Q(x) :- E(x, y).")
                fast_db = Database.from_tuples({"E": [(1, 2)]})
                result = await asyncio.wait_for(
                    service.execute(fast, fast_db), timeout=10
                )
                stats = await service.stats()
                return result, stats

        result, stats = asyncio.run(main())
        assert sorted(result.rows) == [(1,)]
        assert stats["service"]["cancelled"] == 1


class TestRetryExhaustion:
    def test_exhausted_error_carries_the_last_failure(self):
        error = RetryExhaustedError(
            "gave up", attempts=3, last_error=ConnectionError("refused")
        )
        assert error.attempts == 3
        assert isinstance(error.last_error, ConnectionError)
