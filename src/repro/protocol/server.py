"""``QueryServer``: an asyncio TCP front-end over one shared service.

One listening socket, one :class:`~repro.service.QueryService`, one shared
:class:`~repro.engine.QueryEngine` — every connection's requests flow
through the same plan cache, single-flight map, and open batch
groups, which is the entire point: the concurrency machinery PR 4
built in-process now serves *cross-process* traffic.

Per-connection mechanics:

* each connection gets a **client tag** (``conn-N``) that follows its
  requests into the service's fairness lanes — the round-robin drain of
  :class:`~repro.service.fairness.FairQueue` is what keeps one flooding
  connection from starving the rest;
* requests on one connection are handled **concurrently** (pipelining):
  the reader loop spawns a task per request and responses are written as
  they complete, correlated by request id;
* failures become **structured error responses** (:mod:`.codec`'s
  taxonomy) on the same connection — a parse error, an unknown database,
  or a backpressure rejection never costs the client its connection;
* shutdown **drains**: the listener closes first, in-flight requests
  finish and their responses flush, late requests get ``shutting_down``
  errors, and only then do connections and the owned service close.

Resilience mechanics (see ``docs/resilience.md``):

* a request's ``deadline`` flows into the service's
  :class:`~repro.resilience.CancelToken` machinery — oversized queries
  answer ``deadline_exceeded`` on time instead of holding their lane;
* a ``cancel`` op (or the client vanishing mid-request) tears the
  in-flight handler task down; the service releases the FairQueue slot
  and the target request answers with a typed ``cancelled`` error;
* ``max_connections`` rejects connections past the limit with a typed
  ``server_busy`` final frame; ``idle_timeout`` closes connections that
  stay silent — both surfaced in ``stats()``'s ``transport`` section;
* a :class:`~repro.resilience.FaultPlan` (constructor or the
  ``REPRO_FAULTS`` environment variable — the chaos suite drives
  subprocess servers through the latter) injects delayed responses,
  dropped connections, and torn frames at named sites.

The module doubles as the server executable::

    PYTHONPATH=src python -m repro.protocol.server \\
        --database movies=movies.json --port 0

which prints ``QUERYSERVER READY host=... port=...`` once the socket is
bound (the cross-process test harness reads that line) and drains
gracefully on SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from itertools import count
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import CancelledRequestError, ReproError, ServerBusyError
from ..operations import Operation
from ..relational.database import Database
from ..relational.io import load_database_json
from ..resilience.faults import FaultPlan
from ..service.service import QueryService
from ..service.stats import ServiceStats
from .codec import MAX_LINE_BYTES, decode, encode, error_response, request_id_of
from .frames import (
    BINARY_FRAME,
    binary_request_id_of,
    decode_binary,
    encode_binary,
    negotiate_frames,
    read_frame_async,
)
from .messages import (
    CANCEL,
    CANCELLED,
    PING,
    PONG,
    ProtocolError,
    QUERY_OPS,
    REGISTER_DATABASE,
    REGISTERED,
    RESULTS,
    RUN_BATCH,
    Request,
    Response,
    STATS,
    STATS_RESULT,
    decode_database,
    encode_result,
)


class _Connection:
    """Per-connection state: writer, write lock, in-flight request tasks."""

    __slots__ = ("client", "writer", "tasks", "lock", "inflight", "binary")

    def __init__(self, client: str, writer: asyncio.StreamWriter) -> None:
        self.client = client
        self.writer = writer
        self.tasks: "set[asyncio.Task[None]]" = set()
        self.lock = asyncio.Lock()
        #: Request id → handler task, while the request is in flight.  The
        #: ``cancel`` op and disconnect teardown both cancel through here.
        self.inflight: Dict[int, "asyncio.Task[None]"] = {}
        #: Did this client negotiate binary relation frames (via ``ping``)?
        self.binary = False

    async def send(self, response: Response) -> None:
        """Write one response frame atomically (pipelined tasks interleave).

        After a client negotiates binary frames, relation-bearing
        responses go out in the binary framing; everything else (and any
        message the binary encoder declines) stays a JSON line.
        """
        data: Optional[bytes] = None
        if self.binary:
            data = encode_binary(response)
        if data is None:
            data = encode(response)
        async with self.lock:
            if self.writer.is_closing():
                return
            self.writer.write(data)
            try:
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # peer vanished mid-write; the reader loop will see EOF

    async def settle(self) -> None:
        """Wait for every in-flight request task (responses flushed)."""
        while self.tasks:
            await asyncio.gather(*list(self.tasks), return_exceptions=True)


class QueryServer:
    """A line-delimited JSON TCP server over named databases.

    Parameters
    ----------
    databases:
        Name → :class:`Database` the server exposes; requests address
        databases by these names.
    host, port:
        Bind address.  ``port=0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    service:
        An externally owned service to front.  ``None`` constructs one
        (forwarding ``service_kwargs``) that the server owns and closes.
    max_connections:
        Accept at most this many concurrent connections; the next one
        gets a single ``server_busy`` error frame and is closed.
        ``None`` (default) means unbounded.
    idle_timeout:
        Close a connection after this many seconds without a complete
        request frame.  ``None`` (default) keeps silent connections open.
    fault_plan:
        Deterministic fault injection for the chaos suite.  ``None``
        reads :data:`~repro.resilience.faults.FAULTS_ENV_VAR` so
        subprocess servers inherit the plan from their environment.
    """

    def __init__(
        self,
        databases: Mapping[str, Database],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[QueryService] = None,
        max_connections: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        **service_kwargs: Any,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError(
                "pass service_kwargs only when the server constructs the "
                f"service; got both a service and {sorted(service_kwargs)}"
            )
        if max_connections is not None and max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        self._databases = dict(databases)
        self._host = host
        self._port = port
        self._service = (
            service if service is not None else QueryService(**service_kwargs)
        )
        self._owns_service = service is None
        self._max_connections = max_connections
        self._idle_timeout = idle_timeout
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self._faults = fault_plan if fault_plan else None
        #: op → handler coroutine.  Every query op (execute / decide /
        #: explain / count / aggregate — the wire mirror of
        #: :data:`repro.operations.OP_KINDS`) shares ``_op_query``, so a
        #: new engine operation reaches the wire by appearing in
        #: ``QUERY_OPS``; only transport-level ops get bespoke handlers.
        self._op_table = {
            **{op: self._op_query for op in QUERY_OPS},
            RUN_BATCH: self._op_run_batch,
            PING: self._op_ping,
            STATS: self._op_stats,
            CANCEL: self._op_cancel,
            REGISTER_DATABASE: self._op_register_database,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[str, _Connection] = {}
        self._handler_tasks: "set[asyncio.Task[None]]" = set()
        self._conn_ids = count(1)
        self._draining = False
        self._closed = False
        # Transport-level counters (loop thread only, like the service's).
        self._connections_total = 0
        self._busy_rejections = 0
        self._idle_closed = 0
        self._cancel_requests = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port, limit=MAX_LINE_BYTES
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — call after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return (host, port)

    @property
    def service(self) -> QueryService:
        """The service behind the socket (shared engine, fairness lanes)."""
        return self._service

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests complete and their responses flush before any
        # connection is torn down.
        for connection in list(self._connections.values()):
            await connection.settle()
        for connection in list(self._connections.values()):
            connection.writer.close()
        # Reader loops see the closed transports and unwind.
        if self._handler_tasks:
            await asyncio.gather(*list(self._handler_tasks), return_exceptions=True)
        if self._owns_service:
            await self._service.aclose()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        client = f"conn-{next(self._conn_ids)}"
        connection = _Connection(client, writer)
        if (
            self._max_connections is not None
            and len(self._connections) >= self._max_connections
        ):
            # One typed final frame, then hang up — the client's retry
            # policy treats server_busy as transient.
            self._busy_rejections += 1
            await connection.send(
                error_response(
                    None,
                    ServerBusyError(
                        f"connection limit of {self._max_connections} reached",
                        max_connections=self._max_connections,
                    ),
                )
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
            return
        self._connections_total += 1
        self._connections[client] = connection
        try:
            await self._read_loop(reader, connection)
        finally:
            self._connections.pop(client, None)
            # The reader is done — EOF, error, or idle timeout.  No test
            # or shipped client half-closes, so a vanished reader means a
            # vanished client: tear down its in-flight work instead of
            # letting it hold fairness-lane slots.  (On graceful drain the
            # connections were settled *before* their writers closed, so
            # there is nothing left to cancel here.)
            self._cancel_inflight(connection, "client disconnected")
            await connection.settle()
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _cancel_inflight(self, connection: _Connection, reason: str) -> None:
        """Tear down every in-flight handler task on *connection*.

        Cancellation propagates into the service's ``_await_result``,
        which releases the FairQueue slot (last-waiter teardown) — a
        vanished client cannot leave zombie work holding its lane.
        """
        for task in list(connection.inflight.values()):
            if not task.done():
                task.cancel(reason)

    async def _read_loop(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        while True:
            try:
                if self._idle_timeout is not None:
                    try:
                        tag, line = await asyncio.wait_for(
                            read_frame_async(reader), self._idle_timeout
                        )
                    except asyncio.TimeoutError:
                        # Silent too long — one typed final frame, hang up.
                        self._idle_closed += 1
                        await connection.send(
                            error_response(
                                None,
                                CancelledRequestError(
                                    f"connection idle for more than "
                                    f"{self._idle_timeout}s",
                                    idle_timeout=self._idle_timeout,
                                ),
                            )
                        )
                        return
                else:
                    tag, line = await read_frame_async(reader)
            except ProtocolError as exc:
                # A malformed binary frame prefix cannot be resynchronized
                # — answer structurally, then hang up.
                await connection.send(error_response(None, exc))
                return
            except (ValueError, asyncio.LimitOverrunError):
                # An overlong frame cannot be resynchronized — answer
                # structurally, then hang up.
                await connection.send(
                    error_response(
                        None,
                        ProtocolError(
                            f"frame exceeds {MAX_LINE_BYTES} bytes",
                            code="frame_too_large",
                        ),
                    )
                )
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not line:
                return  # EOF: client is done sending
            if tag == BINARY_FRAME:
                decode_frame, id_of = decode_binary, binary_request_id_of
            else:
                if not line.strip():
                    continue  # blank keep-alive lines are free
                decode_frame, id_of = decode, request_id_of
            try:
                message = decode_frame(line)
                if not isinstance(message, Request):
                    raise ProtocolError("expected a request, got a response frame")
            except Exception as exc:  # noqa: BLE001 — answered structurally
                await connection.send(error_response(id_of(line), exc))
                continue
            if self._draining:
                await connection.send(
                    error_response(
                        message.id,
                        ProtocolError("server is shutting down", code="shutting_down"),
                    )
                )
                continue
            task = asyncio.ensure_future(self._handle(message, connection))
            connection.tasks.add(task)
            task.add_done_callback(connection.tasks.discard)

    async def _handle(self, request: Request, connection: _Connection) -> None:
        task = asyncio.current_task()
        if task is not None and request.id not in connection.inflight:
            connection.inflight[request.id] = task
            task.add_done_callback(
                lambda _t, rid=request.id: connection.inflight.pop(rid, None)
            )
        try:
            response = await self._dispatch(request, connection)
        except asyncio.CancelledError:
            # Torn down — explicit cancel op or disconnect.  Answer with a
            # typed error (best effort: the transport may already be gone)
            # and swallow the cancellation so the response can flush.
            await connection.send(
                error_response(
                    request.id,
                    CancelledRequestError("request was cancelled"),
                )
            )
            return
        except BaseException as exc:  # noqa: BLE001 — answered structurally
            response = error_response(request.id, exc)
        if self._faults is not None and not await self._inject_faults(
            request, connection
        ):
            return  # the fault consumed the response (drop / torn frame)
        try:
            await connection.send(response)
        except ProtocolError as exc:
            # The *response* could not be encoded (a result relation past
            # the frame bound).  The request still gets an answer — the
            # error response is tiny and always encodes.
            await connection.send(error_response(request.id, exc))

    async def _inject_faults(
        self, request: Request, connection: _Connection
    ) -> bool:
        """Fire response-path fault sites; False means "send no response"."""
        plan = self._faults
        assert plan is not None
        delay = plan.fire("server.delay")
        if delay is not None and delay.delay > 0:
            await asyncio.sleep(delay.delay)
        if plan.fire("server.drop") is not None:
            # The connection vanishes without an answer — the client sees
            # an abrupt close and its pending requests fail typed.
            transport = connection.writer.transport
            if transport is not None:
                transport.abort()
            return False
        if plan.fire("server.torn_frame") is not None:
            # Half a frame, then a hard close: the client's decoder must
            # fail loudly, never hand back a truncated result.
            data = encode(error_response(request.id, ProtocolError("torn")))
            async with connection.lock:
                if not connection.writer.is_closing():
                    connection.writer.write(data[: max(1, len(data) // 2)])
                    try:
                        await connection.writer.drain()
                    except (ConnectionError, RuntimeError):
                        pass
            transport = connection.writer.transport
            if transport is not None:
                transport.abort()
            return False
        return True

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _database(self, request: Request) -> Database:
        database = self._databases.get(request.database or "")
        if database is None:
            raise ProtocolError(
                f"unknown database {request.database!r}; this server has "
                f"{sorted(self._databases)}",
                code="unknown_database",
                database=str(request.database),
            )
        return database

    async def _dispatch(self, request: Request, connection: _Connection) -> Response:
        handler = self._op_table.get(request.op)
        if handler is None:
            raise ProtocolError(f"unknown op {request.op!r}")  # past validate()
        return await handler(request, connection)

    async def _op_query(self, request: Request, connection: _Connection) -> Response:
        """One generic handler for every single-operation query op.

        The wire op string is the operation kind, so building the
        :class:`~repro.operations.Operation` here (semantic option
        validation included — unknown options and malformed aggregate
        modes answer as typed errors) and running it through the
        service's generic ``run`` covers execute / decide / explain /
        count / aggregate without per-op code.
        """
        database = self._database(request)
        operation = Operation.make(request.op, request.query, request.options)
        value = await self._service.run(
            operation,
            database,
            client=connection.client,
            deadline=request.deadline,
        )
        kind, payload = encode_result(value)
        return Response(id=request.id, kind=kind, result=payload)

    async def _op_run_batch(
        self, request: Request, connection: _Connection
    ) -> Response:
        database = self._database(request)
        operations = [
            Operation.make(entry["op"], entry["query"], entry.get("options"))
            for entry in request.operations or ()
        ]
        values = await self._service.run_batch(
            operations,
            database,
            client=connection.client,
            deadline=request.deadline,
        )
        members = []
        for value in values:
            kind, payload = encode_result(value)
            members.append({"kind": kind, "result": payload})
        return Response(id=request.id, kind=RESULTS, result=members)

    async def _op_ping(self, request: Request, connection: _Connection) -> Response:
        if request.frames is not None:
            # Frame negotiation: accept the intersection with what this
            # build speaks and switch the connection's send side over.
            accepted = negotiate_frames(request.frames)
            connection.binary = bool(accepted)
            return Response(
                id=request.id, kind=PONG, result={"frames": list(accepted)}
            )
        return Response(id=request.id, kind=PONG, result=None)

    async def _op_stats(self, request: Request, connection: _Connection) -> Response:
        stats = await self._service.stats()
        return Response(
            id=request.id,
            kind=STATS_RESULT,
            result=stats_payload(stats, transport=self._transport_stats()),
        )

    async def _op_cancel(self, request: Request, connection: _Connection) -> Response:
        # Cancellation is scoped to the requesting connection — one
        # client cannot reach into another's in-flight requests.
        self._cancel_requests += 1
        target = None
        if request.target is not None:
            target = connection.inflight.get(request.target)
        cancelled = False
        if target is not None and not target.done():
            cancelled = target.cancel("cancelled by client request")
        return Response(id=request.id, kind=CANCELLED, result=bool(cancelled))

    async def _op_register_database(
        self, request: Request, connection: _Connection
    ) -> Response:
        """Install (or replace) a named database without a restart.

        The fleet's workload-distribution op: the supervisor/router
        broadcast one ``register_database`` frame per worker, so a new
        tenant's data is servable fleet-wide while every process keeps
        running.  Registration is idempotent — re-registering a name
        replaces its database atomically (requests in flight keep the
        object they resolved; the dict swap is loop-thread-only).
        """
        assert request.database is not None  # validate() guarantees it
        database = decode_database(request.data)
        self._databases[request.database] = database
        return Response(
            id=request.id,
            kind=REGISTERED,
            result={
                "database": request.database,
                "relations": sorted(database.names()),
            },
        )

    def _transport_stats(self) -> Dict[str, Any]:
        """The transport-level counters for the ``stats`` payload."""
        return {
            "connections_total": self._connections_total,
            "connections_active": len(self._connections),
            "busy_rejections": self._busy_rejections,
            "idle_closed": self._idle_closed,
            "cancel_requests": self._cancel_requests,
            "max_connections": self._max_connections,
            "idle_timeout": self._idle_timeout,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("bound" if self._server else "idle")
        return (
            f"QueryServer({state}, databases={sorted(self._databases)}, "
            f"connections={len(self._connections)})"
        )


def stats_payload(
    stats: ServiceStats, *, transport: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """A JSON-able rendering of :class:`ServiceStats` for the wire."""
    counters = stats.service
    cache = stats.engine.cache
    payload: Dict[str, Any] = {
        "service": {
            "submitted": counters.submitted,
            "coalesced": counters.coalesced,
            "batched": counters.batched,
            "groups": counters.groups,
            "completed": counters.completed,
            "failed": counters.failed,
            "rejected": counters.rejected,
            "cancelled": counters.cancelled,
            "deadline_exceeded": counters.deadline_exceeded,
            "max_queue_depth": counters.max_queue_depth,
            "max_group": counters.max_group,
        },
        "clients": [
            {
                "client": client.client,
                "submitted": client.submitted,
                "coalesced": client.coalesced,
                "batched": client.batched,
                "completed": client.completed,
                "failed": client.failed,
                "rejected": client.rejected,
                "p50_seconds": client.p50_seconds,
                "p95_seconds": client.p95_seconds,
            }
            for client in stats.clients
        ],
        "engine": {
            "executions": stats.engine.executions,
            "total_seconds": stats.engine.total_seconds,
            "replans": stats.engine.replans,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": cache.size,
                "capacity": cache.capacity,
            },
            "shapes": [
                {
                    "shape": shape.shape,
                    "evaluator": shape.evaluator,
                    "structural_class": shape.structural_class,
                    "executions": shape.executions,
                    "total_seconds": shape.total_seconds,
                    "mean_seconds": shape.mean_seconds,
                    "p95_seconds": shape.p95_seconds,
                    "replans": shape.replans,
                }
                for shape in stats.engine.shapes
            ],
        },
    }
    if transport is not None:
        payload["transport"] = transport
    return payload


# ----------------------------------------------------------------------
# Executable entry point (the subprocess the cross-process tests spawn)
# ----------------------------------------------------------------------


def _parse_database_arg(value: str) -> Tuple[str, str]:
    name, separator, path = value.partition("=")
    if not separator or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH.json, got {value!r}")
    return (name, path)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds a free port (printed on READY)"
    )
    parser.add_argument(
        "--database",
        action="append",
        type=_parse_database_arg,
        required=True,
        metavar="NAME=PATH.json",
        help="expose the database at PATH.json under NAME (repeatable)",
    )
    parser.add_argument("--batch-limit", type=int, default=None)
    parser.add_argument("--max-pending", type=int, default=None)
    parser.add_argument("--dispatchers", type=int, default=None)
    parser.add_argument(
        "--per-client-pending",
        type=int,
        default=None,
        help="admitted-but-unfinished budget per connection (reject beyond)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="reject connections past this count with server_busy",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="close connections silent for this many seconds",
    )
    return parser


def _load_databases(pairs: Sequence[Tuple[str, str]]) -> Dict[str, Database]:
    """Load every ``NAME=PATH.json`` pair, failing with a one-line error.

    A missing or unparsable database file must exit nonzero with a clear
    single-line message on stderr — never a raw traceback: the fleet
    supervisor reads exactly that line to distinguish "this worker can
    never start" (a config problem, breaker food) from a transient crash.
    """
    databases: Dict[str, Database] = {}
    for name, path in pairs:
        try:
            databases[name] = load_database_json(path)
        except (OSError, ValueError, ReproError) as exc:
            # ValueError covers json.JSONDecodeError; ReproError covers
            # SchemaError documents (e.g. a JSON file missing 'relations').
            raise SystemExit(
                f"QUERYSERVER ERROR: cannot load database {name!r} from "
                f"{path}: {exc}"
            ) from exc
    return databases


async def _serve(args: argparse.Namespace, databases: Dict[str, Database]) -> int:
    service_kwargs: Dict[str, Any] = {}
    if args.batch_limit is not None:
        service_kwargs["batch_limit"] = args.batch_limit
    if args.max_pending is not None:
        service_kwargs["max_pending"] = args.max_pending
    if args.dispatchers is not None:
        service_kwargs["dispatchers"] = args.dispatchers
    if args.per_client_pending is not None:
        service_kwargs["max_pending_per_client"] = args.per_client_pending
    server_kwargs: Dict[str, Any] = {}
    if args.max_connections is not None:
        server_kwargs["max_connections"] = args.max_connections
    if args.idle_timeout is not None:
        server_kwargs["idle_timeout"] = args.idle_timeout
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    async with QueryServer(
        databases, host=args.host, port=args.port, **server_kwargs, **service_kwargs
    ) as server:
        host, port = server.address
        print(f"QUERYSERVER READY host={host} port={port}", flush=True)
        await stop.wait()
        print("QUERYSERVER DRAINING", flush=True)
    print("QUERYSERVER CLOSED", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(list(argv) if argv is not None else None)
    try:
        databases = _load_databases(args.database)
    except SystemExit as exc:
        print(exc, file=sys.stderr, flush=True)
        return 2
    return asyncio.run(_serve(args, databases))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())


__all__ = ["QueryServer", "build_arg_parser", "main", "stats_payload"]
