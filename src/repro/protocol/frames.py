"""Binary relation frames: a negotiated bulk encoding for relation payloads.

The line protocol of :mod:`.codec` spells a relation as JSON value
columns, every integer digit by digit.  A **binary relation frame** sends
an integer column as a fixed-width array instead, while leaving everything
else JSON:

``MAGIC`` (1 byte, ``0x00``) · kind (1 byte, ``0x01``) · body length
(u32, big-endian) · body.  JSON frames always start with ``{`` (0x7b), so
the single magic byte is enough for a reader to tell the framings apart —
both peers parse with :class:`~.connection.FrameParser` and a connection
can interleave JSON and binary frames freely.

The body is::

    u32  header length
    ...  header: the message's canonical JSON with every relation it holds
         replaced by a {"__relation_frame__": i} marker
    u32  relation count
    ...  one block per relation, in marker order:
           u16  attribute count, then per attribute: u16 length + UTF-8 name
           u32  row count
           ...  per column: u8 kind · u8 width · u32 byte length · data

A column of exactly-``int`` cells whose minimum and maximum fit a signed
1, 2, 4 or 8-byte integer is **kind 1**: the data is the narrowest such
array, big-endian, ``width`` bytes per row.  Every other column (strings,
floats, bools, ``None``, mixed, ints past 64 bits, empty) is **kind 0**,
width 0: the data is the column as one canonical JSON array text, so each
value arrives spelled exactly as the JSON framing spells it — ``true`` and
``1``, ``-0.0`` and ``0.0`` stay apart.  Both directions work on whole
columns (``Relation._column`` in, the JSON line's decode tail out).

``encode_binary`` returns ``None`` whenever the binary form is not
applicable — the message holds no relation, or the (pathological)
case of a payload already containing a ``__relation_frame__`` key — and
the caller falls back to the JSON line.  Frames are negotiated per
connection: a client announces :data:`BINARY_FRAMES_V2` in the ``frames``
field of a ``ping`` and the server answers with the subset it accepts;
only after that does either side *send* binary (readers accept both
framings unconditionally — the magic byte is unambiguous).
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, Dict, List, Optional, Tuple

from ..relational.relation import Relation
from . import codec
from .codec import CANONICAL, Message, canonical_json, decode_payload, request_id_of
from .messages import ProtocolError, decode_relation

#: First byte of every binary frame.  JSON lines start with ``{`` (0x7b),
#: so a leading NUL unambiguously marks the binary framing.
MAGIC = 0x00

#: Frame kind byte: a whole protocol message with extracted relations.
KIND_MESSAGE = 0x01

#: The negotiation token for this frame format (``ping``'s ``frames``).
BINARY_FRAMES_V2 = "relation-columns-v2"

#: Every frame format this build speaks.
SUPPORTED_FRAMES = (BINARY_FRAMES_V2,)

_MARKER = "__relation_frame__"
#: Column kinds: one canonical JSON array text, or fixed-width integers.
_JSON_COLUMN = 0
_INT_COLUMN = 1
#: Bytes per integer → signed ``array`` typecode, narrowest first.
_TYPECODES = {1: "b", 2: "h", 4: "i", 8: "q"}
#: Integers are big-endian on the wire; ``array`` holds them in native order.
_SWAP = sys.byteorder == "little"
#: The canonical JSON spelling the line codec uses.
_dumps = json.JSONEncoder(**CANONICAL).encode


def _restore(node: Any, relations: List[Relation]) -> Any:
    """The decoded header with every marker swapped for its relation."""
    if isinstance(node, dict):
        if set(node) == {_MARKER}:
            index = node[_MARKER]
            if (
                not isinstance(index, int)
                or isinstance(index, bool)
                or not 0 <= index < len(relations)
            ):
                raise ProtocolError(
                    f"binary frame references relation {index!r} of "
                    f"{len(relations)}"
                )
            return relations[index]
        return {key: _restore(value, relations) for key, value in node.items()}
    if isinstance(node, list):
        return [_restore(item, relations) for item in node]
    return node


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _int_width(column: List[Any]) -> int:
    """Bytes per value of the narrowest signed array that holds *column*,
    or 0 when it is not a non-empty column of exactly-``int`` cells that
    fit 8 bytes (a ``bool`` or an ``IntEnum`` is not exactly ``int``)."""
    if not column or set(map(type, column)) != {int}:
        return 0
    low, high = min(column), max(column)
    for width in _TYPECODES:
        bound = 1 << (8 * width - 1)
        if -bound <= low and high < bound:
            return width
    return 0


def _encode_relation_block(relation: Relation, out: List[bytes]) -> None:
    attributes = relation.attributes
    out.append(struct.pack(">H", len(attributes)))
    for name in attributes:
        raw = name.encode("utf-8")
        out.append(struct.pack(">H", len(raw)))
        out.append(raw)
    out.append(struct.pack(">I", len(relation)))
    for position in range(len(attributes)):
        column = relation._column(position)
        width = _int_width(column)
        if width:
            values = array(_TYPECODES[width], column)
            if _SWAP:
                values.byteswap()
            data = values.tobytes()
            out.append(struct.pack(">BBI", _INT_COLUMN, width, len(data)))
        else:
            data = _dumps(column).encode("utf-8")
            out.append(struct.pack(">BBI", _JSON_COLUMN, 0, len(data)))
        out.append(data)


def encode_binary(message: Message) -> Optional[bytes]:
    """The binary frame for *message*, or ``None`` when not applicable.

    ``None`` means "use the JSON line": the message holds no relation
    (the frame would only add overhead), a payload already uses
    the marker key, or the frame would exceed :data:`~.codec.MAX_LINE_BYTES`.
    """
    relations: List[Relation] = []

    def mark(relation: Relation) -> Dict[str, int]:
        relations.append(relation)
        return {_MARKER: len(relations) - 1}

    text = canonical_json(message.to_wire(), mark)
    # As many marker keys as relations, or the payload had one of its own.
    if not relations or text.count(f'"{_MARKER}"') != len(relations):
        return None
    header = text.encode("utf-8")
    parts: List[bytes] = [struct.pack(">I", len(header)), header]
    parts.append(struct.pack(">I", len(relations)))
    for relation in relations:
        _encode_relation_block(relation, parts)
    body = b"".join(parts)
    frame = struct.pack(">BBI", MAGIC, KIND_MESSAGE, len(body)) + body
    if len(frame) > codec.MAX_LINE_BYTES:
        return None
    return frame


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Cursor:
    """Bounds-checked sequential reader over a frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"binary frame truncated: needed {n} bytes at offset "
                f"{self.pos}, body is {len(self.data)}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def text(self, length: int) -> str:
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"binary frame text is not UTF-8: {error}") from error


def _decode_column(cursor: _Cursor, nrows: int) -> List[Any]:
    kind, width, length = struct.unpack(">BBI", cursor.take(6))
    if kind == _INT_COLUMN:
        typecode = _TYPECODES.get(width)
        if typecode is None or length != nrows * width:
            raise ProtocolError(
                f"binary frame integer column of width {width} and {length} "
                f"bytes for {nrows} rows"
            )
        values = array(typecode, cursor.take(length))
        if _SWAP:
            values.byteswap()
        return values.tolist()
    if kind != _JSON_COLUMN or width != 0:
        raise ProtocolError(f"binary frame column kind {kind} / width {width}")
    try:
        return json.loads(cursor.text(length))
    except json.JSONDecodeError as error:
        raise ProtocolError(f"binary frame column is not JSON: {error.msg}") from error


def _decode_relation_block(cursor: _Cursor) -> Relation:
    attributes = [cursor.text(cursor.u16()) for _ in range(cursor.u16())]
    nrows = cursor.u32()
    columns = [_decode_column(cursor, nrows) for _ in attributes]
    # A block is read into the JSON line's payload: one decode tail for both.
    payload = {"attributes": attributes, "columns": columns, "cardinality": nrows}
    return decode_relation(payload)


def decode_binary(body: bytes) -> Message:
    """Parse one binary frame *body* back into a request or response."""
    cursor = _Cursor(body)
    header = cursor.text(cursor.u32())
    try:
        payload = json.loads(header)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            f"binary frame header is not JSON: {error.msg}", code="not_json"
        ) from error
    if not isinstance(payload, dict):
        raise ProtocolError("binary frame header must be a JSON object")
    relations = [_decode_relation_block(cursor) for _ in range(cursor.u32())]
    if cursor.pos != len(body):
        raise ProtocolError(
            f"binary frame has {len(body) - cursor.pos} trailing byte(s)"
        )
    return decode_payload(_restore(payload, relations))


def binary_request_id_of(body: bytes) -> Optional[int]:
    """Best-effort request id from a possibly invalid binary frame body:
    :func:`~.codec.request_id_of` of its header."""
    return request_id_of(body[4 : 4 + int.from_bytes(body[:4], "big")])


#: Tag for a JSON line frame (the payload is the raw line).
JSON_FRAME = "json"
#: Tag for a binary frame (the payload is the frame body).
BINARY_FRAME = "binary"


def negotiate_frames(requested: Any) -> Tuple[str, ...]:
    """The subset of *requested* frame formats this build speaks, in our
    preference order (the server's side of the ``ping`` negotiation)."""
    if not isinstance(requested, (list, tuple)):
        return ()
    wanted = {name for name in requested if isinstance(name, str)}
    return tuple(name for name in SUPPORTED_FRAMES if name in wanted)


__all__ = [
    "BINARY_FRAME",
    "BINARY_FRAMES_V2",
    "JSON_FRAME",
    "KIND_MESSAGE",
    "MAGIC",
    "SUPPORTED_FRAMES",
    "binary_request_id_of",
    "decode_binary",
    "encode_binary",
    "negotiate_frames",
]
