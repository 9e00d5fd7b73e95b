"""Fleet unit + integration tests: supervisor lifecycle, backoff, routing.

The pieces individually: the supervisor's spawn/respawn state machine
and its one respawn schedule, the server CLI's one-line config-error
contract the supervisor
reads, the router's placement and failover accounting, and the
RetryPolicy-wrapped client reconnecting across a worker generation.  The
full mid-flood SIGKILL story is ``test_fleet_chaos.py``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import QueryEngine
from repro.errors import FleetDrainedError
from repro.fleet import FleetRouter, FleetSupervisor
from repro.fleet.supervisor import BACKOFF, FLAP_WINDOW, _Worker
from repro.protocol import QueryClient
from repro.relational.io import save_database_json
from repro.resilience import FaultPlan, RetryPolicy
from repro.workloads import chain_database, star_database
from repro.workloads.queries import path_query, star_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPAWN_TIMEOUT = 60


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=4, width=16, p=0.3, seed=11)


@pytest.fixture(scope="module")
def chain_path(chain_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "chain.json"
    save_database_json(chain_db, str(path))
    return str(path)


@pytest.fixture(scope="module")
def sequential():
    return QueryEngine(parallel=False)


@pytest.fixture(scope="module")
def fleet(chain_path):
    """One shared 2-worker fleet for the non-destructive tests."""
    with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
        yield supervisor


def wait_for_ready(supervisor, count, timeout=SPAWN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(supervisor.endpoints()) >= count:
            return True
        time.sleep(0.05)
    return False


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def kill_worker(supervisor, index=0):
    """SIGKILL one worker's process, returning its pid."""
    snapshot = supervisor.stats()["workers"][index]
    assert snapshot["pid"] is not None
    os.kill(snapshot["pid"], signal.SIGKILL)
    return snapshot["pid"]


class TestSupervisorLifecycle:
    def test_all_workers_ready_with_distinct_ports(self, fleet):
        endpoints = fleet.endpoints()
        assert len(endpoints) == 2
        assert len({port for _, _, port in endpoints}) == 2
        stats = fleet.stats()
        assert stats["ready"] == 2
        assert stats["registered_databases"] == []
        for snapshot in stats["workers"]:
            assert snapshot["state"] == "ready"

    def test_crash_detection_and_respawn(self, chain_path):
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            version = supervisor.version
            before = {port for _, _, port in supervisor.endpoints()}
            kill_worker(supervisor, 0)
            # The kill is only observed at the next probe tick; wait for
            # the replacement (fresh port) to join, not just for count=2.
            deadline = time.monotonic() + SPAWN_TIMEOUT
            after = before
            while time.monotonic() < deadline:
                endpoints = supervisor.endpoints()
                after = {port for _, _, port in endpoints}
                if len(endpoints) == 2 and after != before:
                    break
                time.sleep(0.05)
            assert after != before  # the replacement bound a fresh port
            assert supervisor.version > version  # membership churned
            snapshot = supervisor.stats()["workers"][0]
            assert snapshot["restarts"] >= 1

    def test_ready_timeout_fault_counts_as_failed_start(self, chain_path):
        plan = FaultPlan({"fleet.ready_timeout": {"times": 1}})
        with FleetSupervisor(
            {"chain": chain_path}, workers=1, fault_plan=plan
        ) as supervisor:
            # The injected non-handshake kills the first spawn; the
            # respawn (fault exhausted) comes up normally.
            assert wait_for_ready(supervisor, 1)
            assert plan.fired("fleet.ready_timeout") == 1
            assert supervisor.stats()["workers"][0]["restarts"] >= 1

    def test_crash_loop_backs_off_and_recovers(self, chain_db, tmp_path):
        path = tmp_path / "volatile.json"
        save_database_json(chain_db, str(path))
        with FleetSupervisor(
            {"chain": str(path)}, workers=1, backoff_base=0.02, backoff_cap=0.5
        ) as supervisor:
            assert wait_for_ready(supervisor, 1)
            # Sabotage the respawn path: the database file vanishes, so
            # every restart exits before READY and backs off again.
            os.unlink(path)
            kill_worker(supervisor, 0)

            def looping(snapshot):
                return (
                    snapshot["state"] == BACKOFF
                    and snapshot["recent_crashes"] >= 2
                    and snapshot["last_error"] is not None
                )

            deadline = time.monotonic() + SPAWN_TIMEOUT
            while time.monotonic() < deadline:
                if looping(supervisor.stats()["workers"][0]):
                    break
                time.sleep(0.02)
            snapshot = supervisor.stats()["workers"][0]
            assert looping(snapshot)
            # The worker's own one-line reason: a config error, not a crash.
            assert snapshot["last_error"].startswith(
                "QUERYSERVER ERROR: cannot load database 'chain'"
            )
            assert str(path) in snapshot["last_error"]
            # Heal the config: the next respawn sticks.
            save_database_json(chain_db, str(path))
            assert wait_for_ready(supervisor, 1)
            snapshot = supervisor.stats()["workers"][0]
            assert snapshot["state"] == "ready"
            assert snapshot["last_error"] is None

    def test_a_slow_respawn_holds_up_no_other_slot(self, chain_path):
        """Worker 0's respawn sleeps a slow start; worker 1, killed during
        it, is READY again long before that sleep ends."""
        delay = 5.0  # close() ends the sleep, so this costs no wall time
        plan = FaultPlan({"fleet.slow_start": {"after": 2, "delay": delay}})
        with FleetSupervisor(
            {"chain": chain_path}, workers=2, fault_plan=plan
        ) as supervisor:
            assert wait_for_ready(supervisor, 2)
            kill_worker(supervisor, 0)
            assert wait_until(lambda: plan.fired("fleet.slow_start") == 1)
            slow_since = time.monotonic()
            killed = kill_worker(supervisor, 1)

            def back():
                snapshot = supervisor.stats()["workers"][1]
                return snapshot["state"] == "ready" and snapshot["pid"] != killed

            assert wait_until(back, timeout=delay)
            assert time.monotonic() - slow_since < delay
            assert supervisor.stats()["workers"][0]["state"] == "starting"

    @pytest.mark.parametrize("moment", ["sleeping", "awaiting READY"])
    def test_close_during_a_slow_start_leaves_no_process(
        self, chain_path, monkeypatch, moment
    ):
        spawned = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        delay = 5.0 if moment == "sleeping" else 0.05
        plan = FaultPlan({"fleet.slow_start": {"after": 1, "delay": delay}})
        supervisor = FleetSupervisor(
            {"chain": chain_path}, workers=1, fault_plan=plan
        ).start()
        try:
            assert wait_for_ready(supervisor, 1)
            kill_worker(supervisor, 0)
            if moment == "sleeping":
                assert wait_until(lambda: plan.fired("fleet.slow_start") == 1)
            else:
                assert wait_until(lambda: len(spawned) == 2)
        finally:
            started = time.monotonic()
            supervisor.close()
        assert time.monotonic() - started < 2.0  # no wait for the sleep
        assert len(spawned) == (1 if moment == "sleeping" else 2)
        assert all(process.poll() is not None for process in spawned)

    def test_rolling_restart_replaces_every_worker(self, chain_path, sequential, chain_db):
        query = path_query(3, head_arity=1)
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            pids = {s["pid"] for s in supervisor.stats()["workers"]}
            supervisor.rolling_restart()
            assert wait_for_ready(supervisor, 2)
            assert {s["pid"] for s in supervisor.stats()["workers"]}.isdisjoint(pids)
            with FleetRouter(supervisor) as router:
                assert router.execute(query, "chain") == sequential.execute(
                    query, chain_db
                )


class TestRespawnSchedule:
    """The one respawn policy, driven on a bare slot without processes:
    crash *k* of the recent ones waits ``min(base * 2**(k-1), cap)``."""

    @staticmethod
    def _delays(crashes, stale=0, **backoff):
        """The waits after *crashes* successive crashes of one bare slot
        that already has *stale* crashes older than the flap window."""
        supervisor = FleetSupervisor({"chain": "unused.json"}, **backoff)
        worker = _Worker(0)
        worker.crash_times.extend([time.monotonic() - FLAP_WINDOW - 1.0] * stale)
        delays = []
        for _ in range(crashes):
            before = time.monotonic()
            supervisor._on_crash(worker)
            assert worker.state == BACKOFF
            delays.append(worker.backoff_until - before)
        return delays, worker

    def test_delays_double_up_to_the_cap(self):
        delays, worker = self._delays(7, backoff_base=1.0, backoff_cap=8.0)
        assert delays == pytest.approx([1, 2, 4, 8, 8, 8, 8], abs=0.01)
        assert worker.restarts == 7

    def test_crashes_older_than_the_window_stop_counting(self):
        # Counted, the five stale crashes would start this run at the cap.
        delays, worker = self._delays(5, stale=5, backoff_base=1.0, backoff_cap=8.0)
        assert delays == pytest.approx([1, 2, 4, 8, 8], abs=0.01)
        assert len(worker.crash_times) == 5

    def test_default_cap_is_five_seconds(self):
        delays, _ = self._delays(9)
        expected = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
        assert delays == pytest.approx(expected, abs=0.01)


class TestServerCLIErrors:
    """Satellite: the server executable must fail config errors with ONE
    clear stderr line and a nonzero exit — the supervisor reads exactly
    this to tell "can never start" from a transient crash."""

    def _run(self, *args):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return subprocess.run(
            [sys.executable, "-m", "repro.protocol.server", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=SPAWN_TIMEOUT,
        )

    @staticmethod
    def _error_lines(stderr):
        # The contract: exactly one QUERYSERVER ERROR line and no
        # traceback (and no runpy warning: server.py runs once).
        return [line for line in stderr.splitlines() if line.strip()]

    def test_missing_database_file_is_one_line_error(self, tmp_path):
        result = self._run("--database", f"chain={tmp_path}/nope.json")
        assert result.returncode == 2
        lines = self._error_lines(result.stderr)
        assert len(lines) == 1
        assert lines[0].startswith("QUERYSERVER ERROR: cannot load database 'chain'")
        assert "Traceback" not in result.stderr

    def test_unparsable_database_file_is_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = self._run("--database", f"db={bad}")
        assert result.returncode == 2
        lines = self._error_lines(result.stderr)
        assert len(lines) == 1
        assert lines[0].startswith("QUERYSERVER ERROR: cannot load database 'db'")
        assert "Traceback" not in result.stderr


class TestRouter:
    def test_results_match_sequential_across_ops(self, fleet, chain_db, sequential):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:6]
        instances = [query.decision_instance((value,)) for value in starts]
        with FleetRouter(fleet) as router:
            executed = router.execute(query, "chain")
            want = sequential.execute(query, chain_db)
            assert executed == want
            assert executed.rows == want.rows  # byte-identical content
            assert [router.decide(q, "chain") for q in instances] == [
                sequential.decide(q, chain_db) for q in instances
            ]
            assert router.count(query, "chain") == sequential.count(query, chain_db)
            assert "QueryPlan" in router.explain(query, "chain")
            stats = router.stats()
            assert sum(stats["routed"].values()) == 3 + len(instances)
            assert stats["pending"] == {}

    def test_load_spreads_across_workers(self, fleet, chain_db):
        query = path_query(2, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:8]
        with FleetRouter(fleet) as router:
            for value in starts * 3:
                router.decide(query.decision_instance((value,)), "chain")
            routed = router.stats()["routed"]
            assert len(routed) == 2  # both workers saw traffic
            assert all(count > 0 for count in routed.values())

    def test_router_state_does_not_grow_with_distinct_queries(self, fleet, chain_db):
        """Placement keeps per-worker counts only: routing N distinct
        query texts leaves every container the router holds bounded by
        the fleet size, not by N."""
        query = path_query(2, head_arity=1)
        starts = sorted({value for row in chain_db["E"].rows for value in row})
        assert len(starts) >= 20
        with FleetRouter(fleet) as router:
            for value in starts:
                router.decide(query.decision_instance((value,)), "chain")
            sizes = {
                name: len(held)
                for name, held in vars(router).items()
                if isinstance(held, (dict, list, set))
            }
            assert sizes and max(sizes.values()) <= 2, sizes
            assert set(router.stats()) == {
                "routed",
                "pending",
                "failovers",
                "pooled_connections",
            }

    def test_stats_documents_survive_a_json_round_trip(self, fleet):
        query = path_query(2, head_arity=1)
        with FleetRouter(fleet) as router:
            router.decide(query, "chain")
            stats = router.stats()
            assert sum(stats["routed"].values()) == 1
            assert json.loads(json.dumps(stats)) == stats
        supervisor_stats = fleet.stats()
        assert len(supervisor_stats["workers"]) == 2
        assert json.loads(json.dumps(supervisor_stats)) == supervisor_stats

    def test_register_database_fleet_wide_and_replayed(
        self, chain_path, chain_db, sequential
    ):
        star_db = star_database(3, 40, seed=5)
        star = star_query(3)
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            with FleetRouter(supervisor) as router:
                acknowledged = router.register_database("star", star_db)
                assert sorted(acknowledged) == [0, 1]
                assert router.decide(star, "star") == sequential.decide(
                    star, star_db
                )
                # A respawned worker must serve the runtime-registered
                # database too — the supervisor replays it pre-READY.
                kill_worker(supervisor, 0)
                assert wait_for_ready(supervisor, 2)
                for _ in range(8):  # enough picks to hit both workers
                    assert router.decide(star, "star") == sequential.decide(
                        star, star_db
                    )
                assert "star" in supervisor.stats()["registered_databases"]

    def test_fleet_drained_when_no_workers(self, chain_path):
        query = path_query(2, head_arity=1)
        supervisor = FleetSupervisor({"chain": chain_path}, workers=1)
        supervisor.start()
        assert wait_for_ready(supervisor, 1)
        supervisor.close()  # every worker drained away
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        with FleetRouter(supervisor, retry=retry) as router:
            with pytest.raises(FleetDrainedError) as excinfo:
                router.decide(query, "chain")
            assert excinfo.value.attempts == 2
            assert excinfo.value.last_error is not None

    def test_pending_slots_release_when_worker_dies_mid_flight(
        self, chain_path, chain_db, sequential
    ):
        """Satellite: requests admitted against a worker that dies must
        release their pending-cost slots — the dead worker's score drains
        to zero and placement stays balanced for the survivors (the same
        guarantee the service's FairQueue purge gives in-process)."""
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:8]
        instances = [query.decision_instance((value,)) for value in starts]
        want = [sequential.decide(q, chain_db) for q in instances]
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            with FleetRouter(supervisor) as router:
                results = [None] * 8
                errors = []

                def worker_thread(lane):
                    try:
                        out = []
                        for q in instances:
                            out.append(router.decide(q, "chain"))
                        results[lane] = out
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker_thread, args=(lane,))
                    for lane in range(8)
                ]
                for thread in threads:
                    thread.start()
                kill_worker(supervisor, 0)  # mid-flight, requests admitted
                for thread in threads:
                    thread.join(timeout=SPAWN_TIMEOUT)
                assert not errors
                assert all(out == want for out in results)
                assert router.pending() == {}  # every slot released
                assert wait_for_ready(supervisor, 2)


class TestClientFailoverAcrossGenerations:
    """Satellite: a RetryPolicy-wrapped ``QueryClient`` survives its
    server being SIGKILLed and replaced mid-batch, reconnecting to the
    respawned generation on the same address."""

    @staticmethod
    def _free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    @staticmethod
    def _spawn(chain_path, port):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.protocol.server",
                "--host",
                "127.0.0.1",
                "--port",
                str(port),
                "--database",
                f"chain={chain_path}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        ready = process.stdout.readline()
        assert ready.startswith("QUERYSERVER READY"), ready
        return process

    def test_retry_client_reconnects_to_respawned_worker_mid_batch(
        self, chain_path, chain_db, sequential
    ):
        query = path_query(3, head_arity=1)
        starts = sorted({row[0] for row in chain_db["E"].rows})[:8]
        instances = [query.decision_instance((value,)) for value in starts]
        want = [sequential.decide(q, chain_db) for q in instances]
        port = self._free_port()
        first = self._spawn(chain_path, port)
        second = None
        try:
            retry = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=0.5)
            with QueryClient("127.0.0.1", port, timeout=10, retry=retry) as client:
                head = [client.decide(q, "chain") for q in instances[:4]]
                first.kill()  # the generation serving the batch dies...
                first.wait(timeout=30)
                second = self._spawn(chain_path, port)  # ...and is replaced
                tail = [client.decide(q, "chain") for q in instances[4:]]
            assert head + tail == want
            assert client.reconnects >= 1  # the policy re-opened the socket
        finally:
            for process in (first, second):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
