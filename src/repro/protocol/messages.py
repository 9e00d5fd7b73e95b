"""Wire message types: versioned requests, responses, and error payloads.

The protocol keeps the service facade's six operation kinds (``execute`` /
``decide`` / ``explain`` / ``count`` / ``grouped_count`` / ``forall``,
one wire op each) and the mixed-kind ``run_batch`` first-class on the
wire, plus ``stats`` for observability and ``ping`` for liveness.
Every message is one JSON object on one line (see :mod:`.codec` for the
framing) carrying the protocol version ``v``; a server rejects versions it
does not speak with a structured ``unsupported_version`` error instead of
guessing.

Messages are plain frozen dataclasses with a *canonical* wire form:
``to_wire`` emits only the fields the message actually uses, and
``from_wire`` validates shape and types strictly — a decoded frame
re-encodes to the same bytes (the codec property suite pins this with
Hypothesis, including unicode constants, empty relations, and oversized
batches).

Queries travel as rule-notation *text* (``"G(x) :- E(x, y)."``) — the
format :func:`repro.query.parser.parse_query` reads and
``ConjunctiveQuery.__repr__`` emits, so objects round-trip through the
wire without a second serialization scheme.

A message to be sent holds each relation as the
:class:`~repro.relational.relation.Relation` itself (only checked to hold
JSON scalars) and its framing spells its value columns: ``{"attributes":
[...], "columns": [[...], ...], "cardinality": n}`` on a JSON line, a
column block in a binary frame.  A received message holds that object, or
the relation the binary framing built through the same
:func:`decode_relation`.  The wire carries a *set* of rows — their order
is the sender's and means nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ReproError, RequestRejectedError, SchemaError
from ..operations import COUNT, DECIDE, EXECUTE, EXPLAIN, OP_KINDS
from ..relational.attributes import check_attribute_names
from ..relational.relation import Relation

#: The one protocol version this build speaks (1 sent a relation's rows;
#: 2 had an ``aggregate`` op whose ``mode`` option named the question).
PROTOCOL_VERSION = 3

# Request operations (the service facade, on the wire).  The query ops are
# the operation kinds of :mod:`repro.operations`, imported, so a wire op
# string IS an engine operation kind and a new kind is added there alone.
RUN_BATCH = "run_batch"
STATS = "stats"
PING = "ping"
CANCEL = "cancel"
REGISTER_DATABASE = "register_database"

OPS = OP_KINDS + (
    RUN_BATCH,
    STATS,
    PING,
    CANCEL,
    REGISTER_DATABASE,
)

#: Ops that carry one query and a database name (one engine operation).
QUERY_OPS = OP_KINDS

# Response result kinds.
RELATION = "relation"
BOOLEAN = "boolean"
COUNT_RESULT = "count"
RESULTS = "results"
TEXT = "text"
STATS_RESULT = "stats"
PONG = "pong"
CANCELLED = "cancelled"
REGISTERED = "registered"
ERROR = "error"

RESULT_KINDS = (
    RELATION,
    BOOLEAN,
    COUNT_RESULT,
    RESULTS,
    TEXT,
    STATS_RESULT,
    PONG,
    CANCELLED,
    REGISTERED,
)

#: JSON scalar types a relation value may carry on the wire.
_WIRE_SCALARS = (str, int, float, bool, type(None))


class ProtocolError(RequestRejectedError):
    """A wire message violated the protocol (framing, version, shape).

    Shares the typed-rejection contract of
    :class:`~repro.errors.RequestRejectedError`: a stable ``code`` plus a
    JSON-able ``detail`` mapping, which the codec serializes verbatim.
    """

    code = "bad_request"


class RemoteQueryError(ReproError):
    """A server answered a client request with a structured error.

    The client-side mirror of an error response: ``code`` / ``message`` /
    ``detail`` exactly as the server sent them, so remote failures are as
    inspectable as local :class:`~repro.errors.RequestRejectedError`\\ s.
    """

    def __init__(
        self,
        code: str,
        message: str,
        detail: Optional[Mapping[str, Any]] = None,
        request_id: Optional[int] = None,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message
        self.detail = dict(detail or {})
        self.request_id = request_id


@dataclass(frozen=True)
class ErrorInfo:
    """The structured error payload of a failed response."""

    code: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> "ErrorInfo":
        if not isinstance(payload, dict):
            raise ProtocolError("error payload must be an object")
        code = payload.get("code")
        message = payload.get("message")
        if not isinstance(code, str) or not isinstance(message, str):
            raise ProtocolError("error payload needs string 'code' and 'message'")
        detail = payload.get("detail", {})
        if not isinstance(detail, dict):
            raise ProtocolError("error detail must be an object")
        return cls(code=code, message=message, detail=detail)


def _validate_options(options: Any, op: str) -> None:
    """Structural check only — semantic option validation (allowed names,
    ``group_by``) is :class:`repro.operations.Operation`'s own, server-side,
    where it produces a typed error response."""
    if not isinstance(options, dict) or not all(
        isinstance(name, str) for name in options
    ):
        raise ProtocolError(
            f"{op} 'options' must be an object with string keys", op=op
        )


def _valid_operation_entry(entry: Any) -> bool:
    """Is *entry* a structurally valid ``run_batch`` member?"""
    if not isinstance(entry, dict) or not set(entry) <= {"op", "query", "options"}:
        return False
    if entry.get("op") not in QUERY_OPS or not isinstance(entry.get("query"), str):
        return False
    options = entry.get("options")
    if options is not None and (
        not isinstance(options, dict)
        or not all(isinstance(name, str) for name in options)
    ):
        return False
    return True


@dataclass(frozen=True)
class Request:
    """One client request: an operation plus its operands.

    ``id`` correlates the response on a pipelined connection — the server
    answers requests as they complete, not in arrival order.
    """

    op: str
    id: int
    query: Optional[str] = None
    database: Optional[str] = None
    #: Optional per-request budget in seconds (query/batch ops only):
    #: past it the server answers ``deadline_exceeded`` and cancels the
    #: execution cooperatively.
    deadline: Optional[float] = None
    #: For ``cancel``: the id of the in-flight request to tear down.
    target: Optional[int] = None
    #: Operation options for the query ops (``grouped_count``'s
    #: ``group_by``, a forced ``evaluator``); forwarded into
    #: :class:`repro.operations.Operation` server-side, where unknown names
    #: fail with a typed error.
    options: Optional[Dict[str, Any]] = None
    #: For ``run_batch``: one ``{"op", "query", "options"?}`` object per
    #: member operation.
    operations: Optional[Tuple[Dict[str, Any], ...]] = None
    #: For ``register_database``: the database document —
    #: ``{"relations": {name: relation}, "domain"?: [...]}``
    #: (what :func:`encode_database` returns).
    data: Optional[Dict[str, Any]] = None
    #: For ``ping``: frame formats the client can read (e.g. the binary
    #: relation framing of :mod:`.frames`).  The server answers with the
    #: subset it accepts and only then sends non-JSON frames.
    frames: Optional[Tuple[str, ...]] = None

    def to_wire(self) -> Dict[str, Any]:
        self.validate()
        payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": self.op, "id": self.id}
        if self.query is not None:
            payload["query"] = self.query
        if self.database is not None:
            payload["database"] = self.database
        if self.deadline is not None:
            payload["deadline"] = self.deadline
        if self.target is not None:
            payload["target"] = self.target
        if self.options is not None:
            payload["options"] = dict(self.options)
        if self.operations is not None:
            payload["operations"] = [dict(entry) for entry in self.operations]
        if self.data is not None:
            payload["data"] = dict(self.data)
        if self.frames is not None:
            payload["frames"] = list(self.frames)
        return payload

    def validate(self) -> None:
        """Reject structurally invalid requests with a typed error."""
        if self.op not in OPS:
            raise ProtocolError(
                f"unknown op {self.op!r}", code="bad_request", op=str(self.op)
            )
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 0:
            raise ProtocolError("request id must be a non-negative integer")
        if self.deadline is not None:
            if self.op not in QUERY_OPS and self.op != RUN_BATCH:
                raise ProtocolError(f"{self.op} takes no 'deadline'", op=self.op)
            if (
                isinstance(self.deadline, bool)
                or not isinstance(self.deadline, (int, float))
                or not self.deadline > 0
                or self.deadline != self.deadline  # NaN
                or self.deadline == float("inf")
            ):
                raise ProtocolError(
                    "'deadline' must be a positive finite number of seconds"
                )
        if self.target is not None and self.op != CANCEL:
            raise ProtocolError(f"{self.op} takes no 'target'", op=self.op)
        if self.options is not None:
            if self.op not in QUERY_OPS:
                raise ProtocolError(f"{self.op} takes no 'options'", op=self.op)
            _validate_options(self.options, self.op)
        if self.operations is not None and self.op != RUN_BATCH:
            raise ProtocolError(f"{self.op} takes no 'operations'", op=self.op)
        if self.data is not None and self.op != REGISTER_DATABASE:
            raise ProtocolError(f"{self.op} takes no 'data'", op=self.op)
        if self.frames is not None:
            if self.op != PING:
                raise ProtocolError(f"{self.op} takes no 'frames'", op=self.op)
            if not all(isinstance(name, str) for name in self.frames):
                raise ProtocolError("'frames' must be a list of strings")
        if self.op in QUERY_OPS:
            if not isinstance(self.query, str):
                raise ProtocolError(f"{self.op} needs a 'query' string", op=self.op)
            if not isinstance(self.database, str):
                raise ProtocolError(f"{self.op} needs a 'database' name", op=self.op)
        elif self.op == RUN_BATCH:
            if self.operations is None or not all(
                _valid_operation_entry(entry) for entry in self.operations
            ):
                raise ProtocolError(
                    "run_batch needs an 'operations' list of "
                    '{"op", "query", "options"?} objects with op in '
                    f"{QUERY_OPS}",
                    op=self.op,
                )
            if not isinstance(self.database, str):
                raise ProtocolError(f"{self.op} needs a 'database' name", op=self.op)
            if self.query is not None:
                raise ProtocolError(f"{self.op} takes 'operations', not 'query'")
        elif self.op == REGISTER_DATABASE:
            if not isinstance(self.database, str) or not self.database:
                raise ProtocolError(
                    f"{self.op} needs a nonempty 'database' name", op=self.op
                )
            if not isinstance(self.data, dict) or not isinstance(
                self.data.get("relations"), dict
            ):
                raise ProtocolError(
                    f"{self.op} needs a 'data' object with a 'relations' "
                    "mapping",
                    op=self.op,
                )
            if self.query is not None:
                raise ProtocolError(
                    f"{self.op} takes 'database' and 'data' only", op=self.op
                )
        elif self.op == CANCEL:
            if (
                not isinstance(self.target, int)
                or isinstance(self.target, bool)
                or self.target < 0
            ):
                raise ProtocolError(
                    "cancel needs a non-negative integer 'target'", op=self.op
                )
            if self.query is not None or self.database is not None:
                raise ProtocolError("cancel takes only a 'target'", op=self.op)
        else:  # stats / ping carry no operands
            if self.query is not None or self.database is not None:
                raise ProtocolError(f"{self.op} takes no operands", op=self.op)

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Request":
        unknown = set(payload) - {
            "v",
            "op",
            "id",
            "query",
            "database",
            "deadline",
            "target",
            "options",
            "operations",
            "data",
            "frames",
        }
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {sorted(unknown)}",
                fields=sorted(map(str, unknown)),
            )
        operations = payload.get("operations")
        if operations is not None:
            if not isinstance(operations, list):
                raise ProtocolError("'operations' must be a list")
            operations = tuple(operations)
        frames = payload.get("frames")
        if frames is not None:
            if not isinstance(frames, list):
                raise ProtocolError("'frames' must be a list")
            frames = tuple(frames)
        request = cls(
            op=payload.get("op"),
            id=payload.get("id"),
            query=payload.get("query"),
            database=payload.get("database"),
            deadline=payload.get("deadline"),
            target=payload.get("target"),
            options=payload.get("options"),
            operations=operations,
            data=payload.get("data"),
            frames=frames,
        )
        request.validate()
        return request


@dataclass(frozen=True)
class Response:
    """One server response: a result of a declared kind, or an error.

    ``id`` echoes the request; connection-level failures that cannot be
    attributed to a request (an unparseable line) carry ``id=None``.
    """

    id: Optional[int]
    kind: str
    result: Any = None
    error: Optional[ErrorInfo] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_wire(self) -> Dict[str, Any]:
        self.validate()
        payload: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "ok": self.ok,
            "kind": self.kind,
        }
        if self.error is not None:
            payload["error"] = self.error.to_wire()
        else:
            payload["result"] = self.result
        return payload

    def validate(self) -> None:
        if self.error is not None:
            if self.kind != ERROR:
                raise ProtocolError("error responses must use kind 'error'")
        elif self.kind not in RESULT_KINDS:
            raise ProtocolError(f"unknown response kind {self.kind!r}")
        if self.id is not None and (
            not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 0
        ):
            raise ProtocolError("response id must be a non-negative integer or null")

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Response":
        unknown = set(payload) - {"v", "id", "ok", "kind", "result", "error"}
        if unknown:
            raise ProtocolError(
                f"unknown response field(s): {sorted(unknown)}",
                fields=sorted(map(str, unknown)),
            )
        ok = payload.get("ok")
        if not isinstance(ok, bool):
            raise ProtocolError("response needs a boolean 'ok'")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ProtocolError("response needs a string 'kind'")
        if ok:
            if "error" in payload:
                raise ProtocolError("ok responses carry no 'error'")
            response = cls(
                id=payload.get("id"), kind=kind, result=payload.get("result")
            )
        else:
            if "result" in payload:
                raise ProtocolError("error responses carry no 'result'")
            response = cls(
                id=payload.get("id"),
                kind=kind,
                error=ErrorInfo.from_wire(payload.get("error")),
            )
        response.validate()
        return response


# ----------------------------------------------------------------------
# Relation payloads
# ----------------------------------------------------------------------


def _check_scalars(values: list, what: str) -> None:
    """``unrepresentable`` unless every value is a JSON scalar: one C-level
    pass over the types; the values are walked only to name an offender."""
    if not set(map(type, values)).issubset(_WIRE_SCALARS):
        for value in values:
            if not isinstance(value, _WIRE_SCALARS):
                raise ProtocolError(
                    f"{what} {value!r} is not JSON-representable",
                    code="unrepresentable",
                )


def encode_relation(relation: Relation) -> Relation:
    """*relation* as a message holds it — itself — once every value of the
    columns both framings spell is known to be a JSON scalar."""
    for position in range(relation.arity):
        _check_scalars(relation._column(position), "relation value")
    return relation


def decode_relation(payload: Any) -> Relation:
    """The relation a received answer or binary block holds, born as its
    rows: a client reads an answer's rows, so they are built once, here.
    (A JSON-line registration is born as its columns instead:
    :func:`decode_database`.)  One already built passes through;
    otherwise *payload* is ``{"attributes": [...], "columns": [[...],
    ...], "cardinality": n}`` (a JSON line's, or the one a binary block is
    read into), each column an array of ``n`` values; ``n`` alone tells
    the nullary TRUE from FALSE.  Anything else is a ``bad_request``
    (C-level passes, and the constructor for attribute names and
    unhashable values)."""
    return _decode_relation(payload, _born_as_rows)


def _born_as_rows(attributes: list, columns: list) -> Relation:
    # The checks leave one column per attribute, all of one length, so the
    # zipped rows have the arity; the dedupe makes them distinct.
    names = check_attribute_names(attributes)
    return Relation._from_order(names, tuple(dict.fromkeys(zip(*columns))))


def _decode_relation(payload: Any, build: Callable[[list, list], Relation]) -> Relation:
    """:func:`decode_relation`'s checks, with *build* making the relation
    from checked attributes and columns."""
    if isinstance(payload, Relation):
        return payload
    if not isinstance(payload, dict):
        raise ProtocolError("relation payload must be an object")
    attributes = payload.get("attributes")
    columns = payload.get("columns")
    cardinality = payload.get("cardinality")
    if not isinstance(attributes, list) or not isinstance(columns, list):
        raise ProtocolError("relation payload needs 'attributes' and 'columns' lists")
    if type(cardinality) is not int or cardinality < 0:  # a bool is no count
        raise ProtocolError("relation 'cardinality' must be an integer >= 0")
    if not set(map(type, columns)) <= {list} or set(map(len, columns)) - {cardinality}:
        raise ProtocolError(f"relation columns must be arrays of {cardinality} values")
    if len(columns) != len(attributes):
        raise ProtocolError(
            f"malformed relation: {len(attributes)} attributes but "
            f"{len(columns)} columns"
        )
    if not attributes and cardinality:
        if cardinality > 1:
            raise ProtocolError(f"a nullary relation of {cardinality} rows")
        return Relation.unit()  # TRUE has no column-major spelling
    try:
        return build(attributes, columns)
    except (SchemaError, TypeError) as error:
        raise ProtocolError(f"malformed relation: {error}") from error


def encode_result(value: Any) -> Tuple[str, Any]:
    """``(kind, payload)`` for one operation's return value.

    Type-driven on purpose: every facade return type — relation, bool,
    int (counts), str (explain renderings) — maps to exactly one result
    kind, so the server encodes *any* operation's answer, including kinds
    added after this code shipped, through this one function.  ``bool``
    is checked before ``int`` (it is a subtype).
    """
    if isinstance(value, Relation):
        return (RELATION, encode_relation(value))
    if isinstance(value, bool):
        return (BOOLEAN, bool(value))
    if isinstance(value, int):
        return (COUNT_RESULT, int(value))
    if isinstance(value, str):
        return (TEXT, str(value))
    raise ProtocolError(
        f"operation result of type {type(value).__name__} is not "
        "JSON-representable",
        code="unrepresentable",
    )


def decode_result(kind: str, payload: Any) -> Any:
    """Inverse of :func:`encode_result` (client side)."""
    if kind == RELATION:
        return decode_relation(payload)
    if kind == BOOLEAN:
        return bool(payload)
    if kind == COUNT_RESULT:
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise ProtocolError("count result must be an integer")
        return payload
    if kind == TEXT:
        return str(payload)
    raise ProtocolError(f"unexpected result kind {kind!r}")


def encode_database(database: Any) -> Dict[str, Any]:
    """The document of a whole database, as a message holds it.

    The payload of the ``register_database`` op: every relation under its
    name (checked by :func:`encode_relation`), plus the domain only when
    the database declared one — the server derives the active domain from
    the relations itself.  A declared value that is not a JSON scalar is
    ``unrepresentable``, as a cell is.
    """
    relations = {
        name: encode_relation(database[name]) for name in sorted(database.names())
    }
    payload: Dict[str, Any] = {"relations": relations}
    if database.declared_domain is not None:
        payload["domain"] = sorted(database.declared_domain, key=repr)
        _check_scalars(payload["domain"], "domain value")
    return payload


def decode_database(payload: Any) -> Any:
    """Inverse of :func:`encode_database` (server side).

    Returns a :class:`~repro.relational.database.Database` whose relations
    a JSON line spelled are born as their columns
    (:meth:`~repro.relational.relation.Relation.from_columns`): the first
    count reads columns and key censuses, and no row is built until
    something reads rows.  A binary frame's relations arrive built, as
    :func:`decode_relation` builds an answer's; malformed
    documents raise :class:`ProtocolError` so the server answers a typed
    ``bad_request`` instead of an internal error.
    """
    from ..relational.database import Database

    if not isinstance(payload, dict):
        raise ProtocolError("database payload must be an object")
    relations = payload.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise ProtocolError(
            "database payload needs a nonempty 'relations' mapping"
        )
    decoded = {
        str(name): _decode_relation(relation, Relation.from_columns)
        for name, relation in relations.items()
    }
    domain = payload.get("domain")
    if domain is not None:
        if not isinstance(domain, list):
            raise ProtocolError("database 'domain' must be a list")
        try:
            return Database(decoded, domain=domain)
        except (ReproError, TypeError) as error:
            raise ProtocolError(
                f"database domain is inconsistent with its rows: {error}"
            ) from error
    return Database(decoded)


def query_text(query: Any) -> str:
    """The wire form of a query: rule-notation text.

    Accepts text verbatim, or anything whose ``repr`` is rule notation
    (``ConjunctiveQuery`` prints exactly the grammar the parser reads).
    """
    if isinstance(query, str):
        return query
    return repr(query)


__all__ = [
    "BOOLEAN",
    "CANCEL",
    "CANCELLED",
    "COUNT",
    "COUNT_RESULT",
    "DECIDE",
    "ERROR",
    "EXECUTE",
    "EXPLAIN",
    "ErrorInfo",
    "OPS",
    "PING",
    "PONG",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY_OPS",
    "REGISTERED",
    "REGISTER_DATABASE",
    "RELATION",
    "RESULTS",
    "RESULT_KINDS",
    "RUN_BATCH",
    "RemoteQueryError",
    "Request",
    "Response",
    "STATS",
    "STATS_RESULT",
    "TEXT",
    "decode_database",
    "decode_relation",
    "decode_result",
    "encode_database",
    "encode_relation",
    "encode_result",
    "query_text",
]
