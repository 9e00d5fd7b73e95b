"""Per-client fairness on the admission queue: round-robin lane drain.

PR 4's bounded ``asyncio.Queue`` is globally FIFO — fine while every
caller is an in-process coroutine of one application, wrong the moment
the network front-end (:mod:`repro.protocol`) multiplexes *independent*
clients onto the service: one client pipelining hundreds of requests
fills the FIFO and every other client's next request queues behind the
entire flood.  :class:`FairQueue` keeps the ``asyncio.Queue`` surface the
service uses (``put`` / ``put_nowait`` / ``get_nowait`` / ``task_done`` /
``join`` / ``qsize``) but partitions pending items into per-client *lanes*
and drains them round-robin: each get serves the next lane in rotation, so
a polite client's request waits for at most one group per active lane, not
for the flood.  Nothing awaits a get: the service's pump takes items only
when it has a free slot, so only ``put`` waits (for room).

The queue inherits the service's threading model: it is touched only from
the event-loop thread, so there are no locks — waiters are plain
``asyncio`` futures, exactly like ``asyncio.Queue`` itself.

Admission *capacity* stays global (``maxsize`` groups across all lanes —
the natural-backpressure bound), while admission *order* becomes fair.
Per-client rejection (the flood answer the wire protocol needs) lives one
layer up in :class:`~repro.service.QueryService`, which bounds each
client's admitted-but-unfinished requests and rejects the excess with
:class:`~repro.errors.ServiceOverloadedError`.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from typing import Deque, Generic, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Lane key for requests that carry no client tag (in-process callers).
ANONYMOUS = ""


class FairQueue(Generic[T]):
    """A bounded multi-lane queue drained round-robin across lanes.

    ``put(item, client)`` appends to *client*'s lane (awaiting while the
    queue is at ``maxsize`` — global backpressure); ``get_nowait()`` pops from
    the lane at the head of the rotation and sends that lane to the back,
    so K active lanes are served 1/K each regardless of how unevenly they
    fill.  Within one lane, order stays FIFO.  ``task_done``/``join``
    follow the ``asyncio.Queue`` contract the service's drain logic
    relies on.
    """

    def __init__(self, maxsize: int = 0) -> None:
        self._maxsize = maxsize
        self._lanes: "OrderedDict[str, Deque[T]]" = OrderedDict()
        self._rotation: Deque[str] = deque()
        self._size = 0
        self._unfinished = 0
        self._putters: Deque["asyncio.Future[None]"] = deque()
        self._finished: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def qsize(self) -> int:
        """Items currently queued across every lane."""
        return self._size

    def pending_for(self, client: str) -> int:
        """Items currently queued in *client*'s lane."""
        lane = self._lanes.get(client)
        return len(lane) if lane is not None else 0

    def lanes(self) -> Tuple[str, ...]:
        """Client keys with at least one queued item, in rotation order."""
        return tuple(self._rotation)

    def empty(self) -> bool:
        return self._size == 0

    def full(self) -> bool:
        return self._maxsize > 0 and self._size >= self._maxsize

    # ------------------------------------------------------------------
    # Waiter plumbing (the asyncio.Queue pattern: wake one, re-check)
    # ------------------------------------------------------------------

    @staticmethod
    def _wake_next(waiters: Deque["asyncio.Future[None]"]) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break

    async def _wait(self, waiters: Deque["asyncio.Future[None]"]) -> None:
        waiter: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            waiter.cancel()
            try:
                waiters.remove(waiter)
            except ValueError:
                pass
            # If this waiter was already woken, its wake-up token must
            # pass to the next in line or a slot/item goes unserved.
            if not waiter.cancelled():
                self._wake_next(waiters)
            raise

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    async def put(self, item: T, client: str = ANONYMOUS) -> None:
        """Append *item* to *client*'s lane, awaiting while full."""
        while self.full():
            await self._wait(self._putters)
        self.put_nowait(item, client)

    def put_nowait(self, item: T, client: str = ANONYMOUS) -> None:
        """Append without waiting; raises ``asyncio.QueueFull`` when full."""
        if self.full():
            raise asyncio.QueueFull
        lane = self._lanes.get(client)
        if lane is None:
            lane = deque()
            self._lanes[client] = lane
        if not lane:
            self._rotation.append(client)
        lane.append(item)
        self._size += 1
        self._unfinished += 1
        if self._finished is not None:
            self._finished.clear()

    def get_nowait(self) -> T:
        """Pop from the lane at the head of the rotation (round-robin);
        raises ``asyncio.QueueEmpty`` when empty."""
        if self._size == 0:
            raise asyncio.QueueEmpty
        client = self._rotation.popleft()
        lane = self._lanes[client]
        item = lane.popleft()
        if lane:
            self._rotation.append(client)  # back of the rotation: fairness
        else:
            del self._lanes[client]
        self._size -= 1
        self._wake_next(self._putters)
        return item

    def purge(self, predicate) -> int:
        """Remove queued items matching *predicate*; return how many.

        The cancellation path: a group whose every waiter has left must
        free its admission slot *now*, not when the pump eventually
        reaches it.  Purged items count as finished (no ``task_done``
        will ever come for them) and their slots wake blocked putters.
        """
        removed = 0
        for client in list(self._lanes):
            lane = self._lanes[client]
            kept: Deque[T] = deque(
                item for item in lane if not predicate(item)
            )
            dropped = len(lane) - len(kept)
            if not dropped:
                continue
            removed += dropped
            if kept:
                self._lanes[client] = kept
            else:
                del self._lanes[client]
                try:
                    self._rotation.remove(client)
                except ValueError:
                    pass
        if removed:
            self._size -= removed
            self._unfinished -= removed
            if self._unfinished == 0 and self._finished is not None:
                self._finished.set()
            for _ in range(removed):
                self._wake_next(self._putters)
        return removed

    def task_done(self) -> None:
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than items queued")
        self._unfinished -= 1
        if self._unfinished == 0 and self._finished is not None:
            self._finished.set()

    async def join(self) -> None:
        """Wait until every queued item has been fetched *and* completed."""
        if self._unfinished == 0:
            return
        if self._finished is None:
            self._finished = asyncio.Event()
        self._finished.clear()
        await self._finished.wait()

    def __repr__(self) -> str:
        return (
            f"FairQueue(size={self._size}, lanes={len(self._lanes)}, "
            f"maxsize={self._maxsize})"
        )


__all__ = ["ANONYMOUS", "FairQueue"]
