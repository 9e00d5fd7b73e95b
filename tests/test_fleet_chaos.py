"""Fleet chaos: SIGKILL a worker mid-flood, zero failed client requests.

The acceptance story of the fleet layer: a 2-worker fleet under a
threaded flood of mixed operations loses one worker to SIGKILL at the
worst moment — requests admitted, results in flight — and

* **every** client request still answers (failover re-routes the
  idempotent operations; no caller sees an error),
* every answer is **byte-identical** to a sequential in-process
  ``QueryEngine(parallel=False)`` evaluation of the same operation,
* the supervisor respawns the killed worker and the fleet returns to
  full strength.

Two kill paths are exercised: an external ``os.kill`` (the "OOM killer
took the process" story) and the deterministic ``fleet.worker_kill``
fault site, where the supervisor itself SIGKILLs the worker it was
about to health-probe.
"""

import os
import signal
import threading
import time

import pytest

from repro import QueryEngine
from repro.fleet import FleetRouter, FleetSupervisor
from repro.operations import Operation
from repro.relational.io import save_database_json
from repro.resilience import FaultPlan
from repro.workloads import chain_database
from repro.workloads.queries import path_query

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

THREADS = 8
SPAWN_TIMEOUT = 60


@pytest.fixture(scope="module")
def chain_db():
    return chain_database(layers=5, width=32, p=0.3, seed=11)


@pytest.fixture(scope="module")
def chain_path(chain_db, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-chaos") / "chain.json"
    save_database_json(chain_db, str(path))
    return str(path)


def build_workload(chain_db):
    """Per thread, a mixed-kind operation stream (execute/decide/count)
    over hot and private decision instances — the cross-process stress
    mix, now with a worker dying under it."""
    query = path_query(4, head_arity=1)
    wide = path_query(3, head_arity=2)
    starts = sorted({row[0] for row in chain_db["E"].rows})
    hot = starts[:4]
    lanes = []
    for lane in range(THREADS):
        operations = [Operation.execute(wide)]
        for value in hot:
            operations.append(Operation.decide(query.decision_instance((value,))))
        private = starts[4 + lane :: THREADS][:3]
        for value in private:
            operations.append(Operation.decide(query.decision_instance((value,))))
        operations.append(Operation.count(query))
        lanes.append(operations)
    return lanes


def sequential_reference(lanes, chain_db):
    engine = QueryEngine(parallel=False)
    return [
        [engine.run(operation, chain_db) for operation in lanes[lane]]
        for lane in range(len(lanes))
    ]


def flood(router, lanes, kill):
    """Drive every lane from its own thread; *kill()* fires mid-flood.

    Returns (per-lane results, errors) — chaos acceptance is
    ``errors == []``.
    """
    results = [None] * len(lanes)
    errors = []
    started = threading.Barrier(len(lanes) + 1)

    def lane_thread(lane):
        try:
            started.wait(timeout=SPAWN_TIMEOUT)
            out = []
            for operation in lanes[lane]:
                out.append(router.run(operation, "chain"))
            results[lane] = out
        except BaseException as exc:  # noqa: BLE001 — chaos verdict data
            errors.append((lane, exc))

    threads = [
        threading.Thread(target=lane_thread, args=(lane,))
        for lane in range(len(lanes))
    ]
    for thread in threads:
        thread.start()
    started.wait(timeout=SPAWN_TIMEOUT)
    kill()
    for thread in threads:
        thread.join(timeout=SPAWN_TIMEOUT * 2)
    return results, errors


def wait_for_ready(supervisor, count, timeout=SPAWN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(supervisor.endpoints()) >= count:
            return True
        time.sleep(0.05)
    return False


class TestKillMidFlood:
    def test_sigkill_mid_flood_zero_failures_byte_identical(
        self, chain_db, chain_path
    ):
        lanes = build_workload(chain_db)
        reference = sequential_reference(lanes, chain_db)
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            victim = supervisor.stats()["workers"][0]["pid"]

            def kill():
                time.sleep(0.05)  # let requests get admitted first
                os.kill(victim, signal.SIGKILL)

            with FleetRouter(supervisor) as router:
                results, errors = flood(router, lanes, kill)
                assert errors == []  # zero failed client requests
                for lane in range(THREADS):
                    assert results[lane] is not None
                    for got, want in zip(results[lane], reference[lane]):
                        assert got == want
                        if hasattr(want, "rows"):
                            # Byte-identical relation content, not just
                            # set-equal: same attributes, same rows.
                            assert got.attributes == want.attributes
                            assert got.rows == want.rows
                # The fleet healed: the victim's slot respawned.
                assert wait_for_ready(supervisor, 2)
                assert supervisor.stats()["workers"][0]["restarts"] >= 1

    def test_fault_site_kill_is_deterministic_and_survivable(
        self, chain_db, chain_path
    ):
        lanes = build_workload(chain_db)
        reference = sequential_reference(lanes, chain_db)
        plan = FaultPlan({"fleet.worker_kill": {"times": 1, "after": 2}})
        with FleetSupervisor(
            {"chain": chain_path}, workers=2, fault_plan=plan
        ) as supervisor:
            assert wait_for_ready(supervisor, 2)
            with FleetRouter(supervisor) as router:
                # The supervisor itself pulls the trigger at probe time;
                # the flood only has to survive it.
                results, errors = flood(router, lanes, kill=lambda: None)
                deadline = time.monotonic() + SPAWN_TIMEOUT
                while time.monotonic() < deadline and not plan.fired(
                    "fleet.worker_kill"
                ):
                    time.sleep(0.05)
                assert plan.fired("fleet.worker_kill") == 1
                assert errors == []
                for lane in range(THREADS):
                    for got, want in zip(results[lane], reference[lane]):
                        assert got == want
                assert wait_for_ready(supervisor, 2)

    def test_repeated_kills_both_workers_over_time(self, chain_db, chain_path):
        """Kill each worker once, sequentially, with traffic in between:
        the fleet never loses availability as long as one worker lives."""
        query = path_query(3, head_arity=1)
        engine = QueryEngine(parallel=False)
        want = engine.decide(query, chain_db)
        with FleetSupervisor({"chain": chain_path}, workers=2) as supervisor:
            assert wait_for_ready(supervisor, 2)
            with FleetRouter(supervisor) as router:
                for index in (0, 1):
                    pid = supervisor.stats()["workers"][index]["pid"]
                    os.kill(pid, signal.SIGKILL)
                    for _ in range(6):
                        assert router.decide(query, "chain") == want
                    # Wait for the *respawn*, not just the ready count —
                    # the dead worker stays listed until a probe notices.
                    deadline = time.monotonic() + SPAWN_TIMEOUT
                    while time.monotonic() < deadline:
                        snapshot = supervisor.stats()["workers"][index]
                        if snapshot["restarts"] >= 1 and snapshot["state"] == "ready":
                            break
                        time.sleep(0.05)
                    assert wait_for_ready(supervisor, 2)
                stats = supervisor.stats()
                assert all(s["restarts"] >= 1 for s in stats["workers"])
