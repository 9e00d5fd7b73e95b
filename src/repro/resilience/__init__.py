"""End-to-end resilience: deadlines, cancellation, retries, fault injection.

The engine stack (kernel → adaptive engine → sharded parallel layer →
async service → TCP protocol) serves real cross-process traffic; this
package is what makes it *fail well* under the traffic the ROADMAP's
fleet-scale story implies.  Adversarial query shapes blow past any cost
model (Mengel's lower bounds guarantee it), workers crash, clients
vanish mid-request, and networks tear frames — so graceful degradation
is a correctness property, built from three small pieces:

:mod:`.token`
    :class:`CancelToken` — a cooperative deadline/cancellation token the
    service activates around every engine call and the evaluators check
    at level boundaries and shard-map steps, so oversized queries abort
    with a typed :class:`~repro.errors.DeadlineExceededError` instead of
    running unbounded.  Worker pools propagate the active token into
    their worker threads.

:mod:`.policy`
    :class:`RetryPolicy` — idempotent-request retry with exponential
    backoff + deterministic jitter, a bounded attempt/elapsed budget,
    and a typed :class:`~repro.errors.RetryExhaustedError` when the
    budget runs out.  Both protocol clients accept one.

:mod:`.faults`
    :class:`FaultPlan` — deterministic fault injection at named sites
    (worker crashes, delayed responses, dropped connections, torn
    frames), driven by constructor or the ``REPRO_FAULTS`` environment
    variable so subprocess servers misbehave on cue.  Powers the chaos
    suite and ``bench_resilience.py``.

See ``docs/resilience.md`` for deadline semantics, the retry policy, the
fault-site catalog, and the degradation matrix.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "FAULT_SITES": "faults",
        "Fault": "faults",
        "FaultPlan": "faults",
        "DEFAULT_RETRY_CODES": "policy",
        "RetryPolicy": "policy",
        "CancelToken": "token",
        "activate": "token",
        "check_cancelled": "token",
        "current_token": "token",
        "swap_token": "token",
    },
)
