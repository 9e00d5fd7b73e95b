"""One end of a protocol connection, without I/O.

:class:`Connection` takes the bytes a transport received and gives back
decoded messages; it takes messages and gives back the bytes to write.
It owns what both peers share of the dialect: framing
(:class:`FrameParser`), the binary-or-JSON send choice, decoding by frame
tag — a server answers a frame that does not decode with the error
response it earns, under its best-effort request id; a client raises —
the ``ping`` frame offer and accept, and request ids.

Three drivers move the bytes and own their concurrency:
:class:`~.client.AsyncQueryClient` (asyncio streams),
:class:`~.client.QueryClient` (a blocking socket) and the server's
per-connection reader.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, Optional, Tuple

from . import codec
from .codec import Message, decode, encode, error_response, request_id_of
from .frames import (
    BINARY_FRAME,
    JSON_FRAME,
    KIND_MESSAGE,
    MAGIC,
    SUPPORTED_FRAMES,
    binary_request_id_of,
    decode_binary,
    encode_binary,
    negotiate_frames,
)
from .messages import PING, PONG, ProtocolError, Request, Response

#: How many bytes a driver asks its transport for at a time.
READ_CHUNK = 1 << 18

#: A binary frame's prefix: magic, kind byte, u32 body length.
_PREFIX = struct.Struct(">BBI")


def _too_large(size: int) -> ProtocolError:  # the bound is read at call time
    return ProtocolError(
        f"frame of {size} bytes exceeds the {codec.MAX_LINE_BYTES} bound",
        code="frame_too_large",
        bytes=size,
    )


class FrameParser:
    """Incremental framing of one inbound byte stream.

    :meth:`feed` takes the stream's next bytes and yields each frame they
    complete: ``(JSON_FRAME, line)`` with its ``\\n`` (blank keep-alives
    too) or ``(BINARY_FRAME, body)``.  Each byte is scanned once and each
    frame copied once: an unfinished frame is held as views of its chunks.
    A bad kind byte or a frame past the bound raises ``ProtocolError``
    before it is buffered; the stream cannot resync after one.
    """

    __slots__ = ("_parts", "_size", "_need", "_body")

    def __init__(self) -> None:
        self._parts: List[memoryview] = []
        #: Bytes held in ``_parts``.
        self._size = 0
        #: Bytes the unfinished binary prefix or body needs; None in a line.
        self._need: Optional[int] = None
        self._body = False

    @property
    def buffered(self) -> int:
        """Bytes of an unfinished frame held (0 at a frame boundary)."""
        return self._size

    def _cut(self, last: memoryview) -> bytes:
        """The held bytes plus *last*, as one new ``bytes``."""
        if not self._parts:
            return bytes(last)
        self._parts.append(last)
        whole = b"".join(self._parts)
        self._parts.clear()
        self._size = 0
        return whole

    def _hold(self, part: memoryview) -> None:
        self._parts.append(part)
        self._size += len(part)

    def feed(self, data: bytes) -> Iterator[Tuple[str, bytes]]:
        view = memoryview(data)
        pos, end = 0, len(data)
        while pos < end:
            if self._need is None and not self._size and data[pos] == MAGIC:
                self._need, self._body = _PREFIX.size, False
            if self._need is None:
                newline = data.find(b"\n", pos)
                stop = end if newline < 0 else newline + 1
                # An unfinished line still needs its newline.
                size = self._size + stop - pos + (newline < 0)
                if size > codec.MAX_LINE_BYTES:
                    raise _too_large(size)
                if newline < 0:
                    self._hold(view[pos:])
                    return
                yield JSON_FRAME, self._cut(view[pos:stop])
                pos = stop
                continue
            stop = min(end, pos + self._need - self._size)
            if self._size + stop - pos < self._need:
                self._hold(view[pos:])
                return
            whole = self._cut(view[pos:stop])
            pos = stop
            if self._body:
                self._need = None
                yield BINARY_FRAME, whole
                continue
            _magic, kind, length = _PREFIX.unpack(whole)
            if kind != KIND_MESSAGE:
                raise ProtocolError(f"unknown binary frame kind {kind:#04x}")
            if length > codec.MAX_LINE_BYTES:
                raise _too_large(length)
            self._need, self._body = length, True
            if not length:
                self._need = None
                yield BINARY_FRAME, b""


class Connection:
    """The protocol state of one connection, for the ``client`` or the
    ``server`` side (see the module docstring)."""

    __slots__ = ("_inbound", "_parser", "_next_id", "binary")

    def __init__(self, role: str) -> None:
        if role not in ("client", "server"):
            raise ValueError(f"role must be 'client' or 'server', got {role!r}")
        self._inbound = Response if role == "client" else Request
        self._parser = FrameParser()
        self._next_id = 1
        #: Did ``ping`` negotiate binary frames (for what this side sends)?
        self.binary = False

    # -- out ------------------------------------------------------------

    def send(self, message: Message) -> bytes:
        """*message*'s bytes: a binary frame once negotiated, when it
        applies, else a JSON line.  Raises ``frame_too_large`` past the
        bound."""
        if self.binary:
            data = encode_binary(message)
            if data is not None:
                return data
        return encode(message)

    def request(self, op: str, **fields: Any) -> Tuple[int, bytes]:
        """The next request id and the request's bytes.  It is encoded
        before the id is spent, so one that cannot be sent leaves no trace."""
        request_id = self._next_id
        data = self.send(Request(op=op, id=request_id, **fields))
        self._next_id += 1
        return request_id, data

    def offer_frames(self) -> Tuple[int, bytes]:
        """The client's ``ping`` offering every frame format it speaks."""
        return self.request(PING, frames=SUPPORTED_FRAMES)

    def adopt_frames(self, pong: Response) -> None:
        """Send what the server accepted in answer to :meth:`offer_frames`."""
        self.binary = bool(pong.result["frames"])

    def answer_ping(self, request: Request) -> Response:
        """The server's pong; a ``frames`` offer switches what this side
        sends to the formats both peers speak."""
        if request.frames is None:
            return Response(id=request.id, kind=PONG, result=None)
        accepted = negotiate_frames(request.frames)
        self.binary = bool(accepted)
        return Response(id=request.id, kind=PONG, result={"frames": list(accepted)})

    # -- in -------------------------------------------------------------

    def receive(self, data: bytes) -> Iterator[Optional[Message]]:
        """Each frame *data* completes, decoded: ``None`` for a blank
        keep-alive line, else the peer's message — or, on the server side,
        the error response a frame that does not decode earns.  Framing
        errors raise :class:`ProtocolError` (the connection cannot go on)."""
        for tag, payload in self._parser.feed(data):
            binary = tag == BINARY_FRAME
            if not binary and payload.isspace():
                yield None
                continue
            try:
                message = decode_binary(payload) if binary else decode(payload)
                if not isinstance(message, self._inbound):
                    raise ProtocolError(
                        f"expected a {self._inbound.__name__.lower()} frame"
                    )
            except Exception as exc:  # noqa: BLE001 — answered structurally
                if self._inbound is Response:
                    raise
                id_of = binary_request_id_of if binary else request_id_of
                message = error_response(id_of(payload), exc)
            yield message


__all__ = ["Connection", "FrameParser", "READ_CHUNK"]
