"""Cooperative cancellation tokens with deadlines.

A :class:`CancelToken` is the one object that crosses every layer of a
request's execution: the service mints it at admission (from the wire
request's ``deadline`` or from a client abandoning the request), the
dispatch thread *activates* it around the engine call, the worker pools
propagate it into their worker threads, and the evaluators *check* it at
natural safe points — join-tree level boundaries, shard-map steps, and
(strided) the naive evaluator's backtracking search.

Cancellation is cooperative on purpose: evaluators hold no external
resources mid-pass, so a check-point abort is always consistent, and the
check itself is one thread-local read plus two attribute loads — cheap
enough for per-node granularity (the no-fault overhead budget of the
resilience layer is <5%, measured by ``bench_resilience.py``).

A token may also carry a *time slice* (:meth:`CancelToken.set_slice`): the
service runs a short request on its event loop's thread inside one, and a
run still going when the slice ends stops at its next check-point with
:class:`SliceSpent` — not an error of the request, a signal to move it off
the loop.

Thread-safety: ``cancel`` is a single attribute write, ``check`` reads
immutable-after-cancel state; CPython's per-opcode atomicity makes both
safe without a lock, and tokens never cross process boundaries (process
pools re-check at the shard-map step in the coordinating thread).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import CancelledRequestError, DeadlineExceededError

_ACTIVE = threading.local()


class SliceSpent(Exception):
    """A run outlived its token's time slice; raised at a check-point.

    Evaluation is pure and an aborted run records nothing, so whoever
    opened the slice may run the same work again elsewhere.
    """


class CancelToken:
    """One request's deadline + cancellation state, checked cooperatively.

    Parameters
    ----------
    deadline:
        Seconds this request may run, measured from token construction.
        ``None`` means no deadline — the token then only carries explicit
        cancellation (client disconnect, cancel message, abandonment).
    """

    __slots__ = ("_deadline", "_expires_at", "_cancelled", "_reason", "_slice_ends")

    def __init__(self, deadline: Optional[float] = None) -> None:
        if deadline is not None and deadline <= 0:
            # A non-positive budget is expired on arrival; normalize so
            # ``check`` raises the deadline error immediately.
            deadline = 0.0
        self._deadline = deadline
        self._expires_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        self._cancelled = False
        self._reason = ""
        self._slice_ends: Optional[float] = None

    # ------------------------------------------------------------------

    @property
    def deadline(self) -> Optional[float]:
        """The original budget in seconds (``None`` = unbounded)."""
        return self._deadline

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called (deadline expiry aside)."""
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        expires_at = self._expires_at
        return expires_at is not None and time.monotonic() >= expires_at

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (``None`` = unbounded, ≥ 0)."""
        expires_at = self._expires_at
        if expires_at is None:
            return None
        return max(0.0, expires_at - time.monotonic())

    # ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative teardown (idempotent, any thread)."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    def set_slice(self, seconds: Optional[float]) -> None:
        """Open a time slice of *seconds* from now: until it is closed
        (``None``), a :meth:`check` once it has passed raises
        :class:`SliceSpent` (after expiry and cancellation had their say)."""
        self._slice_ends = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        """Raise the typed teardown error when expired or cancelled, and
        :class:`SliceSpent` when a slice is open and spent.

        Deadline expiry wins over explicit cancellation: an abandoned
        request whose deadline also passed reports ``deadline_exceeded``,
        the code its originator already received.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self._deadline:g}s exceeded",
                deadline=self._deadline,
            )
        if self._cancelled:
            raise CancelledRequestError(
                f"request cancelled: {self._reason}", reason=self._reason
            )
        slice_ends = self._slice_ends
        if slice_ends is not None and time.monotonic() >= slice_ends:
            raise SliceSpent

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else (
            "expired" if self.expired else "live"
        )
        budget = "∞" if self._deadline is None else f"{self._deadline:g}s"
        return f"CancelToken({state}, deadline={budget})"


# ----------------------------------------------------------------------
# The ambient token: thread-local, pool-propagated
# ----------------------------------------------------------------------


def current_token() -> Optional[CancelToken]:
    """The token active on this thread (``None`` outside any request)."""
    return getattr(_ACTIVE, "token", None)


def swap_token(token: Optional[CancelToken]) -> Optional[CancelToken]:
    """Install *token* as this thread's active token; return the previous.

    The worker pools use this pair-wise to carry the submitting thread's
    token into their worker threads for the duration of each task.
    """
    previous = getattr(_ACTIVE, "token", None)
    _ACTIVE.token = token
    return previous


@contextmanager
def activate(token: Optional[CancelToken]) -> Iterator[Optional[CancelToken]]:
    """Scope *token* as the active token of the current thread."""
    previous = swap_token(token)
    try:
        yield token
    finally:
        swap_token(previous)


def check_cancelled() -> None:
    """Evaluator check-point: raise if this thread's active token says so.

    A no-op (one thread-local read) when no token is active, so the
    sequential evaluators pay nothing outside the service.
    """
    token = getattr(_ACTIVE, "token", None)
    if token is not None:
        token.check()


__all__ = [
    "CancelToken",
    "SliceSpent",
    "activate",
    "check_cancelled",
    "current_token",
    "swap_token",
]
