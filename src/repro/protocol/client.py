"""Query clients: an asyncio pipelining client and a blocking socket one.

Two flavors, one wire dialect:

:class:`AsyncQueryClient`
    For asyncio callers (the benchmark harness, the fairness tests).  A
    background reader task correlates responses to requests by id, so a
    caller may have **many requests in flight on one connection** — which
    is exactly how a flooding client exercises the server's fairness
    lanes and per-client backpressure.

:class:`QueryClient`
    A small blocking client over a plain socket, for threads and scripts
    (the cross-process stress drives 16 of these from worker threads).
    One outstanding request at a time; out-of-order responses (possible
    when an earlier error response overtakes) are buffered by id.

Both raise :class:`~.messages.RemoteQueryError` carrying the server's
structured code/message/detail when a request fails, and both accept
queries as rule-notation text or as ``ConjunctiveQuery`` objects (whose
``repr`` *is* the text form).

Resilience (see ``docs/resilience.md``):

* every query op takes an optional ``deadline`` (seconds) that rides the
  request frame — the server aborts the evaluation and answers
  ``deadline_exceeded`` instead of letting a runaway query hold its lane;
* both clients accept an opt-in :class:`~repro.resilience.RetryPolicy`;
  retryable failures (transport errors, transient server codes) trigger
  reconnect-and-retry with exponential backoff and deterministic jitter,
  and a spent budget raises :class:`~repro.errors.RetryExhaustedError`;
* an abrupt close fails every pending async request with
  :class:`~repro.errors.ConnectionLostError` — never a silent hang —
  carrying the server's final structured frame when there was one;
* the blocking client's socket timeout surfaces as the typed
  :class:`~repro.errors.RequestTimeoutError` (still an ``OSError``).
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from itertools import count
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConnectionLostError, RequestTimeoutError, RetryExhaustedError
from ..operations import Operation, OperationFacade
from ..resilience.policy import RetryPolicy
from .codec import MAX_LINE_BYTES, decode, encode
from .frames import (
    BINARY_FRAME,
    SUPPORTED_FRAMES,
    decode_binary,
    encode_binary,
    read_frame_async,
    read_frame_blocking,
)
from .messages import (
    CANCEL,
    PING,
    ProtocolError,
    REGISTER_DATABASE,
    RUN_BATCH,
    RemoteQueryError,
    Request,
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
    entry: Dict[str, Any] = {
        "op": operation.kind,
        "query": query_text(operation.query),
    }
    if operation.options:
        entry["options"] = operation.options_dict()
    return entry


def _decode_members(result: Any) -> List[Any]:
    """Decode a ``results`` payload's tagged members."""
    if not isinstance(result, list):
        raise ProtocolError("run_batch result must be a list")
    members = []
    for member in result:
        if not isinstance(member, dict) or "kind" not in member:
            raise ProtocolError("run_batch members must be tagged objects")
        members.append(decode_result(member["kind"], member.get("result")))
    return members


class AsyncQueryClient(OperationFacade):
    """Pipelined asyncio client: many requests in flight per connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        binary_frames: bool = False,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._retry = retry
        self._rng = rng if rng is not None else random.Random()
        self._host = host
        self._port = port
        self._ids = count(1)
        self._pending: Dict[int, "asyncio.Future[Response]"] = {}
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reconnects = 0
        self._connect_lock = asyncio.Lock()
        #: Opt-in: negotiate the binary relation framing after connecting.
        self._binary_requested = binary_frames
        #: True once the server accepted the binary framing (per connection).
        self._binary = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

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
        # The protocol allows frames up to MAX_LINE_BYTES; asyncio's
        # default 64 KiB reader limit would kill the connection on the
        # first large result relation.
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        client = cls(
            reader,
            writer,
            retry=retry,
            rng=rng,
            host=host,
            port=port,
            binary_frames=binary_frames,
        )
        if binary_frames:
            await client._negotiate_frames()
        return client

    @property
    def binary_frames(self) -> bool:
        """Did this connection negotiate the binary relation framing?"""
        return self._binary

    async def _negotiate_frames(self) -> None:
        """Offer our frame formats over ``ping``; adopt what the server
        accepts.  Pre-negotiation servers answer a plain pong — the
        client just stays on JSON lines."""
        response = await self._request(PING, frames=SUPPORTED_FRAMES)
        accepted = ()
        if isinstance(response.result, dict):
            accepted = tuple(response.result.get("frames") or ())
        self._binary = bool(accepted)

    @property
    def reconnects(self) -> int:
        """How many times the retry machinery re-opened the connection."""
        return self._reconnects

    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while True:
                tag, line = await read_frame_async(self._reader)
                if not line:
                    break
                message = decode_binary(line) if tag == BINARY_FRAME else decode(line)
                if not isinstance(message, Response):
                    raise ProtocolError("server sent a request frame")
                if message.id is None:
                    # Connection-level error: no request to attribute it
                    # to — it is fatal to the connection, so it raises
                    # here and the finally block delivers it to every
                    # outstanding caller and marks the client broken.
                    _raise_for(message)
                future = self._pending.pop(message.id, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 — delivered to callers
            error = exc
        finally:
            # Once the reader is gone, nothing can ever resolve a pending
            # future — fail the outstanding ones and refuse new requests
            # (a silent forever-hang is the one unacceptable outcome).
            # The server's final structured frame (e.g. a server_busy
            # rejection) is delivered verbatim; everything else — EOF,
            # torn frames, transport errors — becomes the typed
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

    async def _request(self, op: str, **fields: Any) -> Response:
        if self._closed:
            raise RuntimeError("AsyncQueryClient is closed")
        if self._broken is not None:
            raise ConnectionError(
                f"connection is broken: {self._broken}"
            ) from self._broken
        request = Request(op=op, id=next(self._ids), **fields)
        future: "asyncio.Future[Response]" = asyncio.get_running_loop().create_future()
        self._pending[request.id] = future
        data = encode_binary(request) if self._binary else None
        self._writer.write(data if data is not None else encode(request))
        await self._writer.drain()
        return _raise_for(await future)

    async def _reconnect(self) -> None:
        """Re-open the transport after a break (serialized across callers)."""
        async with self._connect_lock:
            if self._closed:
                raise RuntimeError("AsyncQueryClient is closed")
            if self._broken is None:
                return  # another caller already reconnected
            if self._host is None or self._port is None:
                raise ConnectionError(
                    "cannot reconnect: client was built from raw streams "
                    "(use AsyncQueryClient.connect for retryable clients)"
                ) from self._broken
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
            reader, writer = await asyncio.open_connection(
                self._host, self._port, limit=MAX_LINE_BYTES
            )
            self._reader = reader
            self._writer = writer
            self._broken = None
            self._binary = False
            self._reconnects += 1
            self._reader_task = asyncio.ensure_future(self._read_loop())
            if self._binary_requested:
                await self._negotiate_frames()

    async def _call(self, op: str, **fields: Any) -> Response:
        """One request, retried under the client's policy when it has one."""
        policy = self._retry
        if policy is None:
            return await self._request(op, **fields)
        delays = policy.backoff(self._rng)
        for attempt in count(1):
            try:
                if self._broken is not None:
                    await self._reconnect()
                return await self._request(op, **fields)
            except (RuntimeError, asyncio.CancelledError):
                raise  # closed client / caller teardown — never retried
            except BaseException as exc:  # noqa: BLE001 — classified below
                if not policy.retryable(exc):
                    raise
                last = exc
            delay = next(delays, None)
            if delay is None:
                raise RetryExhaustedError(
                    f"{op} failed after {attempt} attempt(s): {last}",
                    attempts=attempt,
                    last_error=last,
                ) from last
            await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # The facade, over the wire: one generic run/run_batch pair (the
    # per-kind methods come from OperationFacade)
    # ------------------------------------------------------------------

    async def run(
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
        operation.validate()
        response = await self._call(
            operation.kind,
            query=query_text(operation.query),
            database=database,
            deadline=deadline,
            options=operation.options_dict() or None,
        )
        return decode_result(response.kind, response.result)

    async def run_batch(
        self,
        operations: Sequence[Operation],
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Run a (possibly mixed-kind) batch of operations remotely."""
        for operation in operations:
            operation.validate()
        response = await self._call(
            RUN_BATCH,
            operations=tuple(_wire_operation(op) for op in operations),
            database=database,
            deadline=deadline,
        )
        return _decode_members(response.result)

    async def register_database(self, name: str, database: Any) -> List[str]:
        """Install *database* under *name* on the server, without restart.

        Accepts a :class:`~repro.relational.database.Database` (encoded
        via :func:`~.messages.encode_database`) or a pre-encoded document
        dict.  Returns the server's list of registered relation names.
        Idempotent — safe to retry and to replay against a respawned
        worker (the fleet supervisor does exactly that).
        """
        data = database if isinstance(database, dict) else encode_database(database)
        response = await self._call(REGISTER_DATABASE, database=name, data=data)
        return list(response.result["relations"])

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
        accepts.  Ids are assigned in request order starting from 1."""
        return sorted(self._pending)

    async def stats(self) -> Dict[str, Any]:
        response = await self._call(STATS)
        return dict(response.result)

    async def ping(self) -> bool:
        await self._call(PING)
        return True

    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
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

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


class QueryClient(OperationFacade):
    """Blocking client over a plain socket (threads, scripts, REPLs).

    A socket timeout (default 30 s) or any transport/framing failure is
    **fatal to the connection**: a timeout can fire mid-frame with bytes
    already consumed, after which the line framing cannot resynchronize —
    so the client marks itself broken and every later request raises
    instead of decoding garbage.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        *,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        binary_frames: bool = False,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry
        self._rng = rng if rng is not None else random.Random()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = count(1)
        self._stash: Dict[int, Response] = {}
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reconnects = 0
        self._binary_requested = binary_frames
        self._binary = False
        if binary_frames:
            self._negotiate_frames()

    @property
    def binary_frames(self) -> bool:
        """Did this connection negotiate the binary relation framing?"""
        return self._binary

    def _negotiate_frames(self) -> None:
        """Offer our frame formats over ``ping``; adopt what the server
        accepts (pre-negotiation servers answer a plain pong)."""
        response = self._request(PING, frames=SUPPORTED_FRAMES)
        accepted = ()
        if isinstance(response.result, dict):
            accepted = tuple(response.result.get("frames") or ())
        self._binary = bool(accepted)

    @property
    def reconnects(self) -> int:
        """How many times the retry machinery re-opened the connection."""
        return self._reconnects

    # ------------------------------------------------------------------

    def _request(self, op: str, **fields: Any) -> Response:
        if self._closed:
            raise RuntimeError("QueryClient is closed")
        if self._broken is not None:
            raise ConnectionError(
                f"connection is broken: {self._broken}"
            ) from self._broken
        request = Request(op=op, id=next(self._ids), **fields)
        try:
            data = encode_binary(request) if self._binary else None
            self._file.write(data if data is not None else encode(request))
            self._file.flush()
            stashed = self._stash.pop(request.id, None)
            if stashed is not None:
                return _raise_for(stashed)
            while True:
                tag, line = read_frame_blocking(self._file)
                if not line:
                    raise ConnectionError("server closed the connection")
                message = decode_binary(line) if tag == BINARY_FRAME else decode(line)
                if not isinstance(message, Response):
                    raise ProtocolError("server sent a request frame")
                if message.id == request.id or message.id is None:
                    return _raise_for(message)
                self._stash[message.id] = message
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
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rwb")
        self._stash.clear()
        self._broken = None
        self._binary = False
        self._reconnects += 1
        if self._binary_requested:
            self._negotiate_frames()

    def _call(self, op: str, **fields: Any) -> Response:
        """One request, retried under the client's policy when it has one."""
        policy = self._retry
        if policy is None:
            return self._request(op, **fields)
        delays = policy.backoff(self._rng)
        for attempt in count(1):
            try:
                if self._broken is not None:
                    self._reconnect()
                return self._request(op, **fields)
            except RuntimeError:
                raise  # closed client — never retried
            except BaseException as exc:  # noqa: BLE001 — classified below
                if not policy.retryable(exc):
                    raise
                last = exc
            delay = next(delays, None)
            if delay is None:
                raise RetryExhaustedError(
                    f"{op} failed after {attempt} attempt(s): {last}",
                    attempts=attempt,
                    last_error=last,
                ) from last
            time.sleep(delay)

    # ------------------------------------------------------------------
    # The facade: one generic run/run_batch pair (per-kind: OperationFacade)
    # ------------------------------------------------------------------

    def run(
        self,
        operation: Operation,
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> Any:
        """Run one :class:`~repro.operations.Operation` remotely."""
        operation.validate()
        response = self._call(
            operation.kind,
            query=query_text(operation.query),
            database=database,
            deadline=deadline,
            options=operation.options_dict() or None,
        )
        return decode_result(response.kind, response.result)

    def run_batch(
        self,
        operations: Sequence[Operation],
        database: str,
        *,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Run a (possibly mixed-kind) batch of operations remotely."""
        for operation in operations:
            operation.validate()
        response = self._call(
            RUN_BATCH,
            operations=tuple(_wire_operation(op) for op in operations),
            database=database,
            deadline=deadline,
        )
        return _decode_members(response.result)

    def register_database(self, name: str, database: Any) -> List[str]:
        """Install *database* under *name* on the server (see the async
        client's docstring; same semantics, blocking)."""
        data = database if isinstance(database, dict) else encode_database(database)
        response = self._call(REGISTER_DATABASE, database=name, data=data)
        return list(response.result["relations"])

    def stats(self) -> Dict[str, Any]:
        return dict(self._call(STATS).result)

    def ping(self) -> bool:
        self._call(PING)
        return True

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = ["AsyncQueryClient", "QueryClient"]
