"""Line-delimited JSON framing and the wire error taxonomy.

Framing is the simplest thing that composes with asyncio streams: one
message per line, UTF-8 JSON with canonical key order and no insignificant
whitespace, terminated by ``\\n``.  JSON escapes embedded newlines, so a
message can never split a frame, and :data:`MAX_LINE_BYTES` bounds what a
peer can make the reader buffer.

``encode``/``decode`` are inverses on valid messages: ``decode(encode(m))``
carries what ``m`` carries (relations as their JSON payloads, see
:mod:`.messages`) and ``encode(decode(encode(m))) == encode(m)``
byte-for-byte (the Hypothesis suite pins both).  ``decode``
rejects garbage with a typed :class:`~.messages.ProtocolError` whose
``code`` lands verbatim in the error response, never a raw traceback.

The **error taxonomy** maps every failure a request can hit to a stable
code:

=====================  ==============================================
code                   raised by
=====================  ==============================================
``not_json``           the line is not a JSON object
``unsupported_version``  the message's ``v`` is not ours
``bad_request``        malformed message shape, unknown op/fields
``frame_too_large``    a line exceeded :data:`MAX_LINE_BYTES`
``parse_error``        ``parse_query`` rejected the query text
``unknown_database``   the request named a database the server lacks
``invalid_query``      the query object is malformed (unsafe head, ...)
``invalid_operation``  a generic operation is malformed (unknown kind,
                       options the kind does not take, bad option values)
``schema_error``       the query used relations/arity the data lacks
``plan_error``         structural requirements failed (acyclicity, ...)
``backpressure``       per-client admission budget exhausted
``server_busy``        the server's connection limit is reached
``deadline_exceeded``  the request's ``deadline`` expired mid-execution
``cancelled``          the request was torn down (explicit ``cancel``
                       message, client disconnect, idle timeout)
``shutting_down``      the server is draining
``unrepresentable``    a result value is not JSON-representable
``query_error``        any other library failure (``ReproError`` catch-all)
``internal_error``     anything unforeseen (message only, no traceback)
=====================  ==============================================

The transient codes — ``server_busy``, ``backpressure``,
``shutting_down`` — are exactly the retry set of
:data:`repro.resilience.DEFAULT_RETRY_CODES`; everything else fails the
same way on a second attempt and is not retried.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Union

from ..errors import (
    InconsistentConstraintsError,
    NotAcyclicError,
    ParseError,
    QueryError,
    ReproError,
    RequestRejectedError,
    SchemaError,
)
from ..relational.relation import Relation
from .messages import (
    ERROR,
    PROTOCOL_VERSION,
    ErrorInfo,
    ProtocolError,
    Request,
    Response,
)

#: Hard bound on one frame — covers large batch responses with room to
#: spare while keeping a hostile peer from ballooning the read buffer.
MAX_LINE_BYTES = 16 * 1024 * 1024

Message = Union[Request, Response]

#: ``json`` encoder settings of the canonical spelling, both framings'.
CANONICAL = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}


def canonical_json(payload: Any, spell: Callable[[Relation], Any]) -> str:
    """*payload* as canonical JSON text — sorted keys, no insignificant
    whitespace — with every relation it holds spelled as ``spell(relation)``
    (the encoder's ``default=`` hook: once per relation, in document order)."""

    def default(value: Any) -> Any:
        if isinstance(value, Relation):
            return spell(value)
        raise TypeError(f"{type(value).__name__} is not JSON-representable")

    return json.dumps(payload, default=default, **CANONICAL)


def _columns_payload(relation: Relation) -> Dict[str, Any]:
    """The relation's cached value columns — what the binary block reads —
    and its row count, which spells the nullary TRUE (it has no column)."""
    columns = [relation._column(p) for p in range(len(relation.attributes))]
    return dict(
        attributes=relation.attributes, cardinality=len(relation), columns=columns
    )


def encode(message: Message) -> bytes:
    """One canonical ``\\n``-terminated JSON line for *message*."""
    text = canonical_json(message.to_wire(), _columns_payload)
    data = text.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"encoded message is {len(data)} bytes; the frame bound is "
            f"{MAX_LINE_BYTES}",
            code="frame_too_large",
            bytes=len(data),
        )
    return data


def decode(line: Union[bytes, str]) -> Message:
    """Parse one frame back into a :class:`Request` or :class:`Response`.

    Dispatch is structural: requests carry ``op``, responses carry
    ``ok``.  Anything else — non-JSON, non-object, wrong version,
    unknown shape — raises a typed :class:`ProtocolError`.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                f"frame is not UTF-8: {error}", code="not_json"
            ) from error
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            f"frame is not JSON: {error.msg}", code="not_json", position=error.pos
        ) from error
    except RecursionError as error:
        raise ProtocolError("frame nests too deeply", code="not_json") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}",
            code="not_json",
        )
    return decode_payload(payload)


def decode_payload(payload: dict) -> Message:
    """Version-check and dispatch an already-parsed message object.

    Shared by the JSON line framing above and the binary relation framing
    of :mod:`.frames`, so both paths validate identically.
    """
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this build speaks "
            f"{PROTOCOL_VERSION})",
            code="unsupported_version",
            version=version if isinstance(version, (int, str)) else str(version),
        )
    if "op" in payload:
        return Request.from_wire(payload)
    if "ok" in payload:
        return Response.from_wire(payload)
    raise ProtocolError("frame is neither a request ('op') nor a response ('ok')")


def request_id_of(line: Union[bytes, str]) -> Optional[int]:
    """Best-effort request id from a possibly invalid frame.

    Lets the server attribute a structured error to the request that
    caused it even when the frame fails full validation; ``None`` when
    the id is unrecoverable.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        payload = json.loads(line)
    except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep
        return None
    if not isinstance(payload, dict):
        return None
    candidate = payload.get("id")
    if isinstance(candidate, bool) or not isinstance(candidate, int):
        return None
    return candidate if candidate >= 0 else None


def error_info(exc: BaseException) -> ErrorInfo:
    """The taxonomy: one stable code per failure class, never a traceback."""
    if isinstance(exc, RequestRejectedError):
        # Covers ProtocolError and ServiceOverloadedError too — the code
        # travels on the exception itself.
        return ErrorInfo(code=exc.code, message=str(exc), detail=_jsonable(exc.detail))
    if isinstance(exc, ParseError):
        return ErrorInfo(
            code="parse_error",
            message=str(exc),
            detail={
                "position": exc.position,
                "line": exc.line,
                "column": exc.column,
            },
        )
    if isinstance(exc, (NotAcyclicError, InconsistentConstraintsError)):
        return ErrorInfo(code="plan_error", message=str(exc))
    if isinstance(exc, QueryError):
        return ErrorInfo(code="invalid_query", message=str(exc))
    if isinstance(exc, SchemaError):
        return ErrorInfo(code="schema_error", message=str(exc))
    if isinstance(exc, ReproError):
        return ErrorInfo(code="query_error", message=str(exc))
    return ErrorInfo(
        code="internal_error",
        message=str(exc) or type(exc).__name__,
        detail={"type": type(exc).__name__},
    )


def error_response(request_id: Optional[int], exc: BaseException) -> Response:
    """A structured error response attributed to *request_id*."""
    return Response(id=request_id, kind=ERROR, error=error_info(exc))


def _jsonable(detail: Any) -> dict:
    """Clamp an error detail mapping to JSON scalars (defense in depth)."""
    out = {}
    for key, value in dict(detail).items():
        if isinstance(value, (str, int, float, bool, type(None))):
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


__all__ = [
    "MAX_LINE_BYTES",
    "Message",
    "decode",
    "decode_payload",
    "encode",
    "error_info",
    "error_response",
    "request_id_of",
]
