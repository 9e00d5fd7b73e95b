"""Query clients: two drivers of one protocol connection.

A :class:`~.connection.Connection` holds the dialect: framing, the
binary-or-JSON choice, decoding, ``ping`` negotiation and request ids.
The clients move its bytes and own their concurrency:

* :class:`AsyncQueryClient`, over asyncio streams: a reader task resolves
  one future per request id, so **many requests may be in flight on one
  connection** — how a flooding client exercises the server's fairness
  lanes and per-client backpressure;
* :class:`QueryClient`, over a blocking socket, for threads and scripts:
  one request at a time, a response that overtakes it stashed by id.

The rest is spelled once, in their base: ``run``, ``run_batch``,
``register_database``, ``stats`` and ``ping`` (and the per-kind methods of
:class:`~repro.operations.OperationFacade`) are plain ``def``\\ s that hand
the response — on the asyncio client, the awaitable of it — to the
driver's ``_then``; so are the frame negotiation and the retry schedule.
Queries go as rule-notation text or ``ConjunctiveQuery`` objects.

Failures (see ``docs/resilience.md``): an error response raises
:class:`~.messages.RemoteQueryError` with the server's code, message and
detail; a ``deadline`` (seconds) rides the request frame; an opt-in
:class:`~repro.resilience.RetryPolicy` reconnects and retries transport
errors and transient codes with seeded backoff until
:class:`~repro.errors.RetryExhaustedError`; a request that cannot be
encoded (``frame_too_large``) fails alone, nothing written; an abrupt
close fails every pending async request with
:class:`~repro.errors.ConnectionLostError`, carrying the server's final
frame when there was one; and the blocking client's socket timeout is the
typed :class:`~repro.errors.RequestTimeoutError`.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import ConnectionLostError, RequestTimeoutError, RetryExhaustedError
from ..operations import Operation, OperationFacade
from ..resilience.policy import RetryPolicy
from . import codec
from .codec import encode  # noqa: F401 — the e2e tracer wraps it here
from .connection import READ_CHUNK, Connection
from .messages import (
    CANCEL,
    PING,
    ProtocolError,
    REGISTER_DATABASE,
    RUN_BATCH,
    RemoteQueryError,
    Response,
    STATS,
    decode_result,
    encode_database,
    query_text,
)


def _raise_for(response: Response) -> Response:
    if response.error is not None:
        raise RemoteQueryError(
            code=response.error.code,
            message=response.error.message,
            detail=response.error.detail,
            request_id=response.id,
        )
    return response


def _wire_operation(operation: Operation) -> Dict[str, Any]:
    """One ``run_batch`` member entry for *operation*."""
    entry = {"op": operation.kind, "query": query_text(operation.query)}
    if operation.options:
        entry["options"] = operation.options_dict()
    return entry


def _result(response: Response) -> Any:
    return decode_result(response.kind, response.result)


def _members(response: Response) -> List[Any]:
    """Decode a ``results`` payload's tagged members."""
    if not isinstance(response.result, list):
        raise ProtocolError("run_batch result must be a list")
    members = []
    for member in response.result:
        if not isinstance(member, dict) or "kind" not in member:
            raise ProtocolError("run_batch members must be tagged objects")
        members.append(decode_result(member["kind"], member.get("result")))
    return members


class _Client(OperationFacade):
    """What both drivers share.  A driver supplies ``_exchange(id, data)``
    (write one request's bytes, return its checked response), ``_call``
    (the retry loop around ``_request``) and ``_then(response, finish)``
    (``finish(response)`` at once, or once the awaitable resolves)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        binary_frames: bool = False,
    ) -> None:
        self._host = host
        self._port = port
        self._retry = retry
        self._rng = rng if rng is not None else random.Random()
        #: Opt-in: negotiate the binary relation framing on every connect.
        self._binary_requested = binary_frames
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reconnects = 0

    @property
    def binary_frames(self) -> bool:
        """Did this connection negotiate the binary relation framing?"""
        return self._core.binary

    @property
    def reconnects(self) -> int:
        """How many times the retry machinery re-opened the connection."""
        return self._reconnects

    def _negotiate_frames(self) -> Any:
        """Offer our frame formats over ``ping``; send what the server accepts."""
        core = self._core
        return self._then(self._exchange(*core.offer_frames()), core.adopt_frames)

    def _request(self, op: str, **fields: Any) -> Any:
        """One request, not retried.  It is encoded before anything is
        registered or written, so one that cannot be sent fails alone."""
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._broken is not None:
            raise ConnectionError(
                f"connection is broken: {self._broken}"
            ) from self._broken
        return self._exchange(*self._core.request(op, **fields))

    def _retry_delay(
        self, op: str, attempt: int, delays: Iterator[float], error: Exception
    ) -> float:
        """The pause before retrying *op* after its *attempt*-th try failed
        with *error*.  Re-raises *error* when the policy would not retry it
        (a closed client never is) and raises ``RetryExhaustedError`` once
        the budget is spent."""
        if isinstance(error, RuntimeError) or not self._retry.retryable(error):
            raise error
        delay = next(delays, None)
        if delay is None:
            raise RetryExhaustedError(
                f"{op} failed after {attempt} attempt(s): {error}",
                attempts=attempt,
                last_error=error,
            ) from error
        return delay

    # The facade: one generic run/run_batch pair (per-kind: OperationFacade)

    def run(
        self,
        operation: Operation,
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> Any:
        """Run one :class:`~repro.operations.Operation` remotely.

        The operation kind travels as the wire op verbatim; the result is
        decoded by the response's declared kind (relation / boolean /
        count / text), which is all the per-kind methods need.
        """
        response = self._call(
            operation.kind,
            query=query_text(operation.query),
            database=database,
            deadline=deadline,
            options=operation.options_dict() or None,
        )
        return self._then(response, _result)

    def run_batch(
        self,
        operations: Sequence[Operation],
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> Any:
        """Run a (possibly mixed-kind) batch of operations remotely."""
        response = self._call(
            RUN_BATCH,
            operations=tuple(_wire_operation(op) for op in operations),
            database=database,
            deadline=deadline,
        )
        return self._then(response, _members)

    def register_database(self, name: str, database: Any) -> Any:
        """Install *database* (a :class:`~repro.relational.database.Database`
        or a pre-encoded document dict) under *name* on the server; returns
        its relation names.  Idempotent: safe to retry and to replay against
        a respawned worker (the fleet supervisor does exactly that)."""
        data = database if isinstance(database, dict) else encode_database(database)
        response = self._call(REGISTER_DATABASE, database=name, data=data)
        return self._then(response, lambda r: list(r.result["relations"]))

    def stats(self) -> Any:
        return self._then(self._call(STATS), lambda r: dict(r.result))

    def ping(self) -> Any:
        return self._then(self._call(PING), lambda r: True)


class AsyncQueryClient(_Client):
    """Pipelined asyncio client: many requests in flight per connection.
    Open one with :meth:`connect`."""

    def __init__(self, host: str, port: int, **options: Any) -> None:
        super().__init__(host, port, **options)
        self._pending: Dict[int, "asyncio.Future[Response]"] = {}
        self._connect_lock = asyncio.Lock()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        binary_frames: bool = False,
    ) -> "AsyncQueryClient":
        client = cls(host, port, retry=retry, rng=rng, binary_frames=binary_frames)
        await client._open()
        return client

    async def _open(self) -> None:
        # The core frames; the limit only paces reading (asyncio pauses at
        # twice it), which the 64 KiB default would do on every large answer.
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=codec.MAX_LINE_BYTES
        )
        self._core = Connection("client")
        self._broken = None
        self._reader_task = asyncio.ensure_future(self._read_loop())
        if self._binary_requested:
            await self._negotiate_frames()

    @staticmethod
    async def _then(pending: Any, finish: Callable[[Response], Any]) -> Any:
        return finish(await pending)

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while data := await self._reader.read(READ_CHUNK):
                for message in self._core.receive(data):
                    if message is None:
                        continue
                    if message.id is None:
                        _raise_for(message)  # connection-level: fatal
                    future = self._pending.pop(message.id, None)
                    if future is not None and not future.done():
                        future.set_result(message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — delivered to callers
            error = exc
        finally:
            # Nothing can resolve a pending future now: fail them all and
            # refuse new requests — never a silent hang.  The server's final
            # structured frame (e.g. server_busy) is delivered verbatim;
            # EOF, torn frames and transport errors become the typed
            # ConnectionLostError.
            if isinstance(error, (RemoteQueryError, ConnectionLostError)):
                delivered: BaseException = error
            else:
                delivered = ConnectionLostError(
                    f"connection lost with {len(self._pending)} request(s) "
                    f"pending: {error}"
                )
                delivered.__cause__ = error
            self._broken = delivered
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(delivered)
            self._pending.clear()

    async def _exchange(self, request_id: int, data: bytes) -> Response:
        future: "asyncio.Future[Response]" = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(data)
        await self._writer.drain()
        return _raise_for(await future)

    async def _reconnect(self) -> None:
        """Re-open the transport after a break (serialized across callers)."""
        async with self._connect_lock:
            if self._closed:
                raise RuntimeError("AsyncQueryClient is closed")
            if self._broken is None:
                return  # another caller already reconnected
            await self._shut()
            await self._open()
            self._reconnects += 1

    async def _call(self, op: str, **fields: Any) -> Response:
        """One request, retried under the client's policy when it has one."""
        if self._retry is None:
            return await self._request(op, **fields)
        delays = self._retry.backoff(self._rng)
        for attempt in count(1):
            try:
                if self._broken is not None:
                    await self._reconnect()
                return await self._request(op, **fields)
            except Exception as error:  # noqa: BLE001 — the policy decides
                delay = self._retry_delay(op, attempt, delays, error)
            await asyncio.sleep(delay)

    async def cancel(self, target: int) -> bool:
        """Ask the server to cancel in-flight request *target*.

        True when the server found the request still running and tore it
        down (the cancelled request itself answers with a structured
        ``cancelled`` error); False when it had already finished.  Sent
        directly — a cancel is never retried.
        """
        response = await self._request(CANCEL, target=target)
        return bool(response.result)

    def pending_ids(self) -> List[int]:
        """Request ids still awaiting a response — the targets ``cancel``
        accepts.  Ids are assigned in request order, from 1 on each
        connection."""
        return sorted(self._pending)

    async def _shut(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def aclose(self) -> None:
        if not self._closed:
            self._closed = True
            await self._shut()

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


class QueryClient(_Client):
    """Blocking client over a plain socket (threads, scripts, REPLs).

    A socket timeout (default 30 s) or any transport/framing failure is
    **fatal to the connection**: a timeout can fire mid-frame with bytes
    already consumed, after which the framing cannot resynchronize — so
    the client marks itself broken and every later request raises
    instead of decoding garbage.  Keyword options (``retry``, ``rng``,
    ``binary_frames``) are those of :meth:`AsyncQueryClient.connect`.
    """

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 30.0, **options: Any
    ) -> None:
        super().__init__(host, port, **options)
        self._timeout = timeout
        self._stash: Dict[Optional[int], Response] = {}
        self._open()

    def _open(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._core = Connection("client")
        self._broken = None
        self._stash.clear()
        if self._binary_requested:
            self._negotiate_frames()

    @staticmethod
    def _then(response: Response, finish: Callable[[Response], Any]) -> Any:
        return finish(response)

    def _exchange(self, request_id: int, data: bytes) -> Response:
        stash = self._stash
        try:
            self._sock.sendall(data)
            while True:
                # Our response, or a connection-level error (id null).
                response = stash.pop(request_id, None) or stash.pop(None, None)
                if response is not None:
                    return _raise_for(response)
                received = self._sock.recv(READ_CHUNK)
                if not received:
                    raise ConnectionError("server closed the connection")
                for message in self._core.receive(received):
                    if message is not None:
                        stash[message.id] = message
        except socket.timeout as exc:
            # The reply may still arrive later and desynchronize the
            # framing — poison the connection, answer typed.
            self._broken = exc
            raise RequestTimeoutError(
                f"no response within {self._timeout}s", timeout=self._timeout
            ) from exc
        except (OSError, ProtocolError) as exc:
            # Framing failures and transport errors leave the stream
            # position undefined — poison the client.
            self._broken = exc
            raise

    def _reconnect(self) -> None:
        """Re-open the socket after a break (single-threaded client)."""
        if self._closed:
            raise RuntimeError("QueryClient is closed")
        self._sock.close()
        self._open()
        self._reconnects += 1

    def _call(self, op: str, **fields: Any) -> Response:
        """One request, retried under the client's policy when it has one."""
        if self._retry is None:
            return self._request(op, **fields)
        delays = self._retry.backoff(self._rng)
        for attempt in count(1):
            try:
                if self._broken is not None:
                    self._reconnect()
                return self._request(op, **fields)
            except Exception as error:  # noqa: BLE001 — the policy decides
                delay = self._retry_delay(op, attempt, delays, error)
            time.sleep(delay)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = ["AsyncQueryClient", "QueryClient"]
