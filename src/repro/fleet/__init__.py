"""Fault-tolerant serving fleet: supervised workers + failover routing.

The protocol layer (PR 5) made one ``QueryServer`` process serve
cross-process traffic; the resilience layer (PR 6) taught every tier to
fail *typed* instead of hanging.  This package composes them into a
**fleet**: N worker server subprocesses under a supervisor, with a
router that spreads load across the live ones and fails idempotent
requests over when a worker dies mid-flight.

:class:`FleetSupervisor`
    Spawns N ``python -m repro.protocol.server`` subprocesses (the PR 5
    executable, unchanged), reads each worker's ``QUERYSERVER READY``
    handshake, health-checks them with periodic ``ping`` probes, and
    respawns crashed workers with capped exponential backoff — the one
    policy that also keeps a crash-looping worker from forking more than
    once per ``backoff_cap`` seconds.  A graceful
    :meth:`~FleetSupervisor.rolling_restart` drains workers one at a
    time so capacity never drops below N-1.

:class:`FleetRouter`
    Routes operations to the live worker with the fewest in-flight
    requests.  Every wire operation is idempotent, so a transport
    failure triggers failover: the router reports the worker to the
    supervisor, re-routes to a healthy replica under a
    :class:`~repro.resilience.RetryPolicy`, and only raises
    :class:`~repro.errors.FleetDrainedError` once the whole fleet is
    unreachable.

Workloads load fleet-wide without restarts: ``register_database``
broadcasts an encoded database to every live worker and the supervisor
replays it onto every *future* respawn — a worker that crashes and comes
back serves the same catalog as its peers.

Chaos coverage lives in ``tests/test_fleet_chaos.py``: SIGKILL a worker
mid-flood and every client request still answers, byte-identical to a
sequential in-process engine.  See ``docs/fleet.md``.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "FleetRouter": "router",
        "FleetSupervisor": "supervisor",
    },
)
