"""``QueryServer``: an asyncio TCP front-end over one shared service.

One listening socket, one :class:`~repro.service.QueryService`, one shared
:class:`~repro.engine.QueryEngine`: every connection's requests flow
through the same plan cache, single-flight map and open batch groups.

Each connection drives one server-side :class:`~.connection.Connection`:
its reader feeds the core the bytes it receives and acts on what comes
out.  A request becomes a handler task (pipelining: responses go out as
they complete, correlated by id); a frame that did not decode is answered
with the error response the core built; a framing error is answered and
hung up on.  The connection owns only its concurrency — write lock,
in-flight tasks and the idle deadline.

* Each connection's **client tag** (``conn-N``) follows its requests into
  the service's fairness lanes, so one flooding connection cannot starve
  the rest.
* Failures are **structured error responses** (:mod:`.codec`'s taxonomy)
  and never cost the client its connection.
* A request's ``deadline`` flows into the service's
  :class:`~repro.resilience.CancelToken` machinery; a ``cancel`` op or a
  vanished client tears its in-flight task down, releasing its FairQueue
  slot, and the request answers ``cancelled``.
* ``max_connections`` and ``idle_timeout`` (time without a complete frame)
  answer one typed final frame and hang up; both are counted in
  ``stats()``'s ``transport`` section.
* Shutdown **drains**: the listener closes, in-flight requests finish and
  flush, late requests get ``shutting_down``, then connections close.
* A :class:`~repro.resilience.FaultPlan` (or the ``REPRO_FAULTS``
  environment variable) injects delayed responses, dropped connections
  and torn frames; see ``docs/resilience.md``.

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
import gc
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
from . import codec
from .codec import error_response
from .connection import READ_CHUNK, Connection
from .messages import (
    CANCEL,
    CANCELLED,
    PING,
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
    """Per-connection state: the protocol core, writer, write lock and
    in-flight request tasks."""

    __slots__ = ("client", "writer", "tasks", "lock", "inflight", "core")

    def __init__(self, client: str, writer: asyncio.StreamWriter) -> None:
        self.client = client
        self.writer = writer
        self.tasks: "set[asyncio.Task[None]]" = set()
        self.lock = asyncio.Lock()
        #: Request id → handler task, while the request is in flight.  The
        #: ``cancel`` op and disconnect teardown both cancel through here.
        self.inflight: Dict[int, "asyncio.Task[None]"] = {}
        self.core = Connection("server")

    async def send(self, response: Response) -> None:
        """Write one response frame atomically (pipelined tasks interleave)."""
        await self.write(self.core.send(response))

    async def write(self, data: bytes) -> None:
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
        #: op → handler coroutine.  Every query op shares ``_op_query``, and
        #: ``QUERY_OPS`` is ``repro.operations.OP_KINDS``, so a new engine
        #: operation kind reaches the wire with no change here.
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
        self._closed = False
        # Transport-level counters (loop thread only, like the service's).
        self._connections_total = 0
        self._busy_rejections = 0
        self._idle_closed = 0
        self._cancel_requests = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port, limit=codec.MAX_LINE_BYTES
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

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        client = f"conn-{next(self._conn_ids)}"
        connection = _Connection(client, writer)
        limit = self._max_connections
        try:
            if limit is not None and len(self._connections) >= limit:
                # One typed final frame, then hang up — the client's retry
                # policy treats server_busy as transient.
                self._busy_rejections += 1
                busy = ServerBusyError(
                    f"connection limit of {limit} reached", max_connections=limit
                )
                await connection.send(error_response(None, busy))
                return
            self._connections_total += 1
            self._connections[client] = connection
            await self._read_loop(reader, connection)
        finally:
            self._connections.pop(client, None)
            # The reader is done — EOF, error, or idle timeout.  A vanished
            # reader means a vanished client: cancel its in-flight work,
            # which releases its FairQueue slots (on graceful drain the
            # connections were settled before their writers closed, so
            # nothing is left to cancel).
            for task in list(connection.inflight.values()):
                task.cancel("client disconnected")
            await connection.settle()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_loop(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        """Feed the connection's bytes to its core and act on each frame.
        ``idle_timeout`` runs from the last *complete* frame, so a peer
        trickling an unfinished one is reaped all the same."""
        loop = asyncio.get_running_loop()
        idle = self._idle_timeout
        deadline = None if idle is None else loop.time() + idle
        while True:
            try:
                timeout = None if deadline is None else deadline - loop.time()
                data = await asyncio.wait_for(reader.read(READ_CHUNK), timeout)
            except asyncio.TimeoutError:
                # Silent too long — one typed final frame, hang up.
                self._idle_closed += 1
                await connection.send(
                    error_response(
                        None,
                        CancelledRequestError(
                            f"connection idle for more than {idle}s",
                            idle_timeout=idle,
                        ),
                    )
                )
                return
            except ConnectionError:
                return
            if not data:
                return  # EOF: client is done sending
            try:
                for message in connection.core.receive(data):
                    if deadline is not None:
                        deadline = loop.time() + idle
                    if message is None:
                        continue
                    if isinstance(message, Response):  # a frame that did not decode
                        await connection.send(message)
                    elif self._closed:  # draining
                        await connection.send(
                            error_response(
                                message.id,
                                ProtocolError(
                                    "server is shutting down", code="shutting_down"
                                ),
                            )
                        )
                    else:
                        task = asyncio.ensure_future(self._handle(message, connection))
                        connection.tasks.add(task)
                        task.add_done_callback(connection.tasks.discard)
            except ProtocolError as exc:
                # A bad frame prefix or an overlong frame cannot be
                # resynchronized — answer structurally, then hang up.
                await connection.send(error_response(None, exc))
                return

    async def _handle(self, request: Request, connection: _Connection) -> None:
        task = asyncio.current_task()
        if task is not None and request.id not in connection.inflight:
            connection.inflight[request.id] = task
            task.add_done_callback(
                lambda _t, rid=request.id: connection.inflight.pop(rid, None)
            )
        try:
            handler = self._op_table.get(request.op)
            if handler is None:
                raise ProtocolError(f"unknown op {request.op!r}")  # past validate()
            response = await handler(request, connection)
        except asyncio.CancelledError:
            # Torn down — explicit cancel op or disconnect.  Answer with a
            # typed error (best effort: the transport may already be gone)
            # and swallow the cancellation so the response can flush.
            cancelled = CancelledRequestError("request was cancelled")
            await connection.send(error_response(request.id, cancelled))
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
        dropped = plan.fire("server.drop") is not None
        if not dropped and plan.fire("server.torn_frame") is not None:
            # Half a frame, then a hard close: the client's decoder must
            # fail loudly, never hand back a truncated result.
            torn = error_response(request.id, ProtocolError("torn"))
            data = connection.core.send(torn)
            await connection.write(data[: max(1, len(data) // 2)])
        elif not dropped:
            return True
        # Either way the connection vanishes without an answer — the client
        # sees an abrupt close and its pending requests fail typed.
        transport = connection.writer.transport
        if transport is not None:
            transport.abort()
        return False

    # -- request dispatch ----------------------------------------------

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

    async def _op_query(self, request: Request, connection: _Connection) -> Response:
        """Every single-operation query op: the wire op *is* the operation
        kind, so ``Operation.make`` (which validates options into typed
        errors) and the service's generic ``run`` cover them all."""
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
        members = [
            {"kind": kind, "result": payload}
            for kind, payload in map(encode_result, values)
        ]
        return Response(id=request.id, kind=RESULTS, result=members)

    async def _op_ping(self, request: Request, connection: _Connection) -> Response:
        return connection.core.answer_ping(request)

    async def _op_stats(self, request: Request, connection: _Connection) -> Response:
        stats = await self._service.stats()
        return Response(
            id=request.id,
            kind=STATS_RESULT,
            result={**stats, "transport": self._transport_stats()},
        )

    async def _op_cancel(self, request: Request, connection: _Connection) -> Response:
        # Cancellation is scoped to the requesting connection — one
        # client cannot reach into another's in-flight requests.
        self._cancel_requests += 1
        target = connection.inflight.get(request.target)
        cancelled = target is not None and target.cancel("cancelled by client request")
        return Response(id=request.id, kind=CANCELLED, result=cancelled)

    async def _op_register_database(
        self, request: Request, connection: _Connection
    ) -> Response:
        """Install (or replace) a named database without a restart — how
        the fleet distributes a tenant's data to every worker.  Idempotent:
        re-registering swaps the database atomically (requests in flight
        keep the object they resolved; the swap is loop-thread-only)."""
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
        """The transport-level counters for the ``stats`` payload, and the
        interpreter's own count of collector runs per generation."""
        return {
            "gc": {"collections": [g["collections"] for g in gc.get_stats()]},
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


# -- the executable (the subprocess the cross-process tests spawn) -------


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
    never start" (a config problem it backs off on) from a transient crash.
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
    options = {
        "batch_limit": args.batch_limit,
        "max_pending": args.max_pending,
        "dispatchers": args.dispatchers,
        "max_pending_per_client": args.per_client_pending,
        "max_connections": args.max_connections,
        "idle_timeout": args.idle_timeout,
    }
    given = {key: value for key, value in options.items() if value is not None}
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    async with QueryServer(
        databases, host=args.host, port=args.port, **given
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


__all__ = ["QueryServer", "build_arg_parser", "main"]
