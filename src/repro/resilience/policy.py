"""Client-side retry policy: exponential backoff, jitter, bounded budgets.

Every operation the wire protocol carries is idempotent — queries are
read-only, ``cancel`` and ``ping`` are safe to repeat — so a client may
retry a failed request without at-most-once bookkeeping.  What it must
not do is retry *blindly*: a parse error will fail identically forever,
while a dropped connection, a torn frame, or a ``server_busy`` rejection
deserve another attempt.  :class:`RetryPolicy` encodes that split:

* :meth:`RetryPolicy.retryable` classifies a failure — transport errors
  (``ConnectionError``/``OSError``, including the typed
  :class:`~repro.errors.ConnectionLostError` and timeout errors) retry;
  structured server errors retry only when their wire code is in
  :attr:`RetryPolicy.retry_codes`;
* :meth:`RetryPolicy.delay_for` yields exponential backoff with
  deterministic jitter (the caller supplies the ``random.Random``, so
  chaos tests replay byte-identical schedules);
* the budget is bounded twice — ``max_attempts`` per request and
  ``max_elapsed`` across all of a request's attempts.
  :meth:`RetryPolicy.backoff` is that budget as an iterator: the delay
  to sleep before each further attempt, exhausted when either bound is.
  The client then raises :class:`~repro.errors.RetryExhaustedError`
  carrying the final underlying failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional

from ..errors import ReproError

#: Wire error codes that indicate a *transient* server condition: the
#: server was up and answered, but could not take the request right now.
DEFAULT_RETRY_CODES: FrozenSet[str] = frozenset(
    {"server_busy", "backpressure", "shutting_down"}
)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries idempotent requests.

    Parameters
    ----------
    max_attempts:
        Total tries per request, the first one included (≥ 1).
    base_delay / multiplier / max_delay:
        Backoff schedule: attempt *k* (1-based) waits
        ``min(base_delay * multiplier**(k-1), max_delay)`` before its
        jitter.
    jitter:
        Fraction of each delay drawn uniformly in ``[-j, +j]`` — breaks
        retry synchronization across clients without losing determinism
        (the RNG is caller-injected).
    max_elapsed:
        Optional wall-clock budget across every attempt of one request;
        once spent, the client stops retrying even with attempts left.
    retry_codes:
        Structured server-error codes worth another attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    max_elapsed: Optional[float] = None
    retry_codes: FrozenSet[str] = field(default_factory=lambda: DEFAULT_RETRY_CODES)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    # ------------------------------------------------------------------

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number *attempt* (1 = first retry)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    def backoff(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """One request's retry budget: the delay before each further attempt.

        Call it when the request starts — ``max_elapsed`` is measured from
        here — and take one delay after every failed attempt; the iterator
        runs dry once ``max_attempts`` tries are used up or sleeping the
        next delay would overrun ``max_elapsed``.  Each delay is drawn
        (``delay_for``, one ``rng`` draw) only when it is asked for.
        """
        started = time.monotonic()

        def delays() -> Iterator[float]:
            for attempt in range(1, self.max_attempts):
                delay = self.delay_for(attempt, rng)
                if (
                    self.max_elapsed is not None
                    and time.monotonic() - started + delay > self.max_elapsed
                ):
                    return
                yield delay

        return delays()

    def retryable(self, error: BaseException) -> bool:
        """Is *error* worth another attempt at all?

        Transport-level failures are; structured server answers only when
        their code says the condition was transient.  Everything else —
        parse errors, schema errors, deadline expiry — would fail the
        same way again.
        """
        code = getattr(error, "code", None)
        if isinstance(code, str):
            # A structured answer (RemoteQueryError, or a typed local
            # rejection): the server was reachable; retry only transient
            # codes.  This branch must win over the isinstance checks —
            # ConnectionLostError is both ReproError and ConnectionError
            # but carries no code, so it falls through to transport.
            if isinstance(error, ReproError):
                return code in self.retry_codes
        if isinstance(error, (ConnectionError, TimeoutError)):
            return True
        if isinstance(error, OSError):
            return True
        return False


__all__ = ["DEFAULT_RETRY_CODES", "RetryPolicy"]
