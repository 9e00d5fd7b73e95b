"""Deterministic fault injection at named sites.

Chaos testing needs faults that are *repeatable*: a test that sometimes
sees the worker crash and sometimes does not pins nothing.  A
:class:`FaultPlan` maps **site names** to countdown specs — each site
fires a bounded number of times, optionally after skipping its first
triggers — so "the second response on this server is delayed 50 ms, the
third connection is dropped" is one literal dict.

Sites are plain strings; the component that owns a site decides what a
firing means:

======================  ===============================================
site                    effect at the owning component
======================  ===============================================
``pool.worker_crash``   :class:`~repro.parallel.pool.WorkerPool` raises
                        the ``BrokenExecutor`` a dead worker would —
                        exercising discard + retry-inline recovery
``server.delay``        ``QueryServer`` sleeps ``delay`` seconds before
                        writing the response
``server.drop``         ``QueryServer`` closes the connection instead of
                        responding
``server.torn_frame``   ``QueryServer`` writes half the response frame,
                        then closes the connection
``fleet.worker_kill``   :class:`~repro.fleet.FleetSupervisor` SIGKILLs the
                        worker it is about to health-probe — the chaos
                        suite's mid-flood process crash
``fleet.slow_start``    the supervisor sleeps ``delay`` seconds before
                        spawning a worker process (stretches the
                        window in which the fleet runs degraded)
``fleet.ready_timeout`` a freshly spawned worker is treated as if it
                        never printed ``QUERYSERVER READY``: killed and
                        counted as a failed start (respawn backoff)
======================  ===============================================

Plans travel two ways: passed to a constructor
(``QueryServer(fault_plan=...)``, ``WorkerPool(fault_plan=...)``), or —
so *subprocess* servers misbehave on cue — through the ``REPRO_FAULTS``
environment variable as JSON (:meth:`FaultPlan.from_env` /
:meth:`FaultPlan.to_env`).  With the variable unset every plan is empty
and ``fire`` is a dict lookup miss: the production path pays nothing.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

#: The sites the shipped components consult (documentation + validation).
FAULT_SITES = (
    "pool.worker_crash",
    "server.delay",
    "server.drop",
    "server.torn_frame",
    "fleet.worker_kill",
    "fleet.slow_start",
    "fleet.ready_timeout",
)

#: Environment variable carrying a JSON fault plan into subprocesses.
FAULTS_ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class Fault:
    """One firing of a fault site."""

    site: str
    #: Seconds of injected latency (``server.delay``; 0 elsewhere).
    delay: float = 0.0


class _Spec:
    """Mutable countdown state behind one site's spec."""

    __slots__ = ("after", "times", "delay", "triggered", "fired")

    def __init__(self, after: int, times: int, delay: float) -> None:
        self.after = after
        self.times = times
        self.delay = delay
        self.triggered = 0  # every fire() consultation
        self.fired = 0  # consultations that actually injected


class FaultPlan:
    """Site name → deterministic countdown of injected faults.

    Parameters
    ----------
    specs:
        ``{site: {"times": int, "after": int, "delay": float}}``.  A site
        fires on its ``after+1``-th through ``after+times``-th triggers;
        all keys are optional (``times`` defaults to 1).

    The plan is thread-safe: sites are consulted from event-loop code,
    dispatch threads, and pool workers alike.
    """

    def __init__(self, specs: Optional[Mapping[str, Mapping[str, Any]]] = None) -> None:
        self._specs: Dict[str, _Spec] = {}
        self._lock = threading.Lock()
        for site, raw in dict(specs or {}).items():
            if not isinstance(raw, Mapping):
                raise ValueError(f"fault spec for {site!r} must be a mapping")
            if site not in FAULT_SITES:
                # A typo'd site would silently never fire — the worst
                # possible failure mode for a chaos config.
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: {FAULT_SITES}"
                )
            self._specs[str(site)] = _Spec(
                after=int(raw.get("after", 0)),
                times=int(raw.get("times", 1)),
                delay=float(raw.get("delay", 0.0)),
            )

    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, env_var: str = FAULTS_ENV_VAR) -> "FaultPlan":
        """The plan in ``$REPRO_FAULTS`` (empty plan when unset/blank)."""
        raw = os.environ.get(env_var, "").strip()
        if not raw:
            return cls()
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError(f"{env_var} must hold a JSON object, got {raw!r}")
        return cls(payload)

    def to_env(self) -> str:
        """The JSON form ``from_env`` reads (current countdowns included)."""
        return json.dumps(
            {
                site: {
                    "after": spec.after,
                    "times": spec.times,
                    "delay": spec.delay,
                }
                for site, spec in self._specs.items()
            },
            sort_keys=True,
        )

    # ------------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._specs

    def __bool__(self) -> bool:
        return bool(self._specs)

    def fire(self, site: str) -> Optional[Fault]:
        """Consult *site*: a :class:`Fault` when it fires, else ``None``."""
        spec = self._specs.get(site)
        if spec is None:
            return None
        with self._lock:
            spec.triggered += 1
            if spec.triggered <= spec.after or spec.fired >= spec.times:
                return None
            spec.fired += 1
            return Fault(site=site, delay=spec.delay)

    def fired(self, site: str) -> int:
        """How many times *site* has actually injected so far."""
        spec = self._specs.get(site)
        return spec.fired if spec is not None else 0

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{site}:{spec.fired}/{spec.times}" for site, spec in self._specs.items()
        )
        return f"FaultPlan({inner or 'empty'})"


__all__ = ["FAULT_SITES", "FAULTS_ENV_VAR", "Fault", "FaultPlan"]
