"""The traced run (``--trace 1``): per-layer metrics, never end-to-end ones.

Four parts, each given a share of ``--seconds``:

1. the real topology (server subprocess, nothing wrapped), briefly — for the
   end-to-end numbers of single request classes and the wire ``stats`` op;
2. a ``QueryServer`` inside this process on loopback, the same clients and
   the same rounds, once untraced and once with the timing wrappers of
   :mod:`e2e_trace` installed — for the per-layer time budget and the
   tracing overhead (traced / untraced round time, same topology);
3. the wire codecs called directly on the workload's largest relation;
4. A/B comparisons of two public configurations on the workload's own
   queries: sharded vs sequential engine, sqlite pushdown vs native, fleet
   router vs direct client, far-future deadline vs none.

A layer is a package under ``src/repro/``.
"""

from __future__ import annotations

import asyncio
import bisect
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import e2e_gen as gen
import e2e_harness as harness
import e2e_trace as trace
from e2e_stats import median, ratio

Metrics = Dict[str, Tuple[float, str]]

LAYERS = (
    "query", "protocol", "service", "engine", "evaluation", "inequalities",
    "parallel", "relational",
)

#: Evaluator families of ``evaluation.<family>_share``, by class name.
FAMILIES = {
    "YannakakisEvaluator": "yannakakis",
    "ParallelYannakakisEvaluator": "yannakakis",
    "CountingYannakakisEvaluator": "counting",
    "NaiveEvaluator": "naive",
    "TreewidthEvaluator": "treewidth",
}

#: Shares of ``--seconds``: real topology, in-process untraced, traced.
REAL_SHARE, PLAIN_SHARE, TRACED_SHARE = 0.3, 0.15, 0.25
#: Seconds each A/B comparison may spend measuring, as a share of ``--seconds``.
AB_SHARE = 0.08


# ----------------------------------------------------------------------
# Per-layer metrics from spans (pure: the self-test feeds it synthetic spans)
# ----------------------------------------------------------------------


class _Sum:
    __slots__ = ("calls", "duration", "self_ns", "rows_in", "rows_out")

    def __init__(self) -> None:
        self.calls = 0
        self.duration = 0
        self.self_ns = 0.0
        self.rows_in = 0
        self.rows_out = 0


def by_name(spans: Sequence[list]) -> Dict[str, _Sum]:
    sums: Dict[str, _Sum] = {}
    for span in spans:
        entry = sums.get(span[trace.NAME])
        if entry is None:
            entry = sums[span[trace.NAME]] = _Sum()
        entry.calls += 1
        entry.duration += span[trace.END] - span[trace.START]
        entry.self_ns += span[trace.SELF]
        entry.rows_in += span[trace.ROWS_IN]
        entry.rows_out += span[trace.ROWS_OUT]
    return sums


def service_wait_us(spans: Sequence[list]) -> float:
    """Median time from the entry of ``QueryService.run`` to the entry of the
    engine call that served it: queueing, the batch window, the hand-off to
    a dispatch thread."""
    runs = sorted(
        (s[trace.START], s[trace.END], s[trace.NAME].rpartition(":")[2])
        for s in spans
        if s[trace.NAME].startswith("QueryEngine.run")
    )
    starts = [run[0] for run in runs]
    waits = []
    for span in spans:
        if span[trace.KIND] != trace.ENVELOPE:
            continue
        kind = span[trace.NAME].rpartition(":")[2]
        first = bisect.bisect_left(starts, span[trace.START])
        for start, end, run_kind in runs[first:]:
            if start > span[trace.END]:
                break
            if end <= span[trace.END] and run_kind in (kind, "QueryEngine.run_batch"):
                waits.append((start - span[trace.START]) / 1e3)
                break
    return median(waits)


def family_shares(spans: Sequence[list], wall_ns: float) -> Dict[str, float]:
    """Share of the wall during which an evaluator of each family was open,
    counting outermost evaluator spans only (the counting fold reduces with
    a Yannakakis evaluator inside)."""
    def family_of(span: list):
        return FAMILIES.get(span[trace.NAME].partition(".")[0])

    open_ns = {family: 0.0 for family in set(FAMILIES.values())}
    for span in spans:
        family = family_of(span)
        if family is None:
            continue
        parent = span[trace.PARENT]
        while parent is not None and family_of(parent) is None:
            parent = parent[trace.PARENT]
        if parent is None:
            open_ns[family] += span[trace.END] - span[trace.START]
    return {family: ratio(ns, wall_ns) for family, ns in open_ns.items()}


def layer_metrics(
    spans: Sequence[list], begin_ns: int, end_ns: int, requests: int
) -> Metrics:
    """Everything the traced window says.  *spans* are those of the window
    (the budget sums to its wall time)."""
    spans = [s for s in spans if s[trace.START] >= begin_ns and s[trace.END] <= end_ns]
    budget = trace.attribute(spans, begin_ns, end_ns)
    wall = float(end_ns - begin_ns)
    requests = max(1, requests)
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[trace.LAYER]] = calls.get(span[trace.LAYER], 0) + 1
    out: Metrics = {}
    for layer in LAYERS:
        own = budget.get(layer, 0.0)
        out[f"{layer}.self_share"] = (own / wall, "ratio")
        out[f"{layer}.self_us_per_req"] = (own / 1e3 / requests, "us")
        out[f"{layer}.calls_per_req"] = (calls.get(layer, 0) / requests, "count")
    out["untraced_share"] = (budget[trace.UNTRACED] / wall, "ratio")

    names = by_name(spans)

    def of(name: str) -> _Sum:
        return names.get(name, _Sum())

    out["query.parse_us_per_req"] = (of("parse_query").duration / 1e3 / requests, "us")
    request_ns = sum(
        entry.self_ns for name, entry in names.items() if name.endswith(":request")
    )
    out["protocol.request_us_per_req"] = (request_ns / 1e3 / requests, "us")
    decode_db = of("decode_database")
    out["protocol.register_decode_ns_per_row"] = (
        ratio(decode_db.duration, decode_db.rows_out), "ns",
    )
    out["service.wait_us_per_req"] = (service_wait_us(spans), "us")
    for family, share in sorted(family_shares(spans, wall).items()):
        out[f"evaluation.{family}_share"] = (share, "ratio")
    relational = [s for s in spans if s[trace.LAYER] == "relational"]
    out["relational.rows_in_per_output_row"] = (
        ratio(
            sum(s[trace.ROWS_IN] for s in relational),
            sum(s[trace.ROWS_OUT] for s in relational),
        ),
        "ratio",
    )
    for label, name in (
        ("semijoin", "Relation.semijoin"),
        ("join", "Relation.natural_join"),
        ("project", "Relation.project"),
    ):
        entry = of(name)
        out[f"relational.ns_per_row_{label}"] = (
            ratio(entry.self_ns, entry.rows_in), "ns",
        )
    bucket = of("bucket_semijoin")
    out["parallel.ns_per_row_bucket_semijoin"] = (
        ratio(bucket.self_ns, bucket.rows_in), "ns",
    )
    out["parallel.pool_wait_share"] = (
        of("WorkerPool.map").duration / wall, "ratio",
    )
    return out


def cold_metrics(spans: Sequence[list]) -> Metrics:
    """Costs paid on first touch, from every span of the traced session
    (its warm-up round runs traced for exactly this)."""
    names = by_name(spans)
    out: Metrics = {}
    for metric, name in (
        ("engine.plan_us_per_miss", "Planner.plan"),
        ("engine.analyze_us_per_miss", "analyze"),
    ):
        entry = names.get(name, _Sum())
        out[metric] = (ratio(entry.duration / 1e3, entry.calls), "us")
    from_rows = names.get("Relation.from_rows", _Sum())
    out["relational.from_rows_ns_per_row"] = (
        ratio(from_rows.duration, from_rows.rows_out), "ns",
    )
    return out


# ----------------------------------------------------------------------
# Part 3: the wire codecs, called directly
# ----------------------------------------------------------------------


def _median_time(fn: Callable[[], Any], repeats: int = 5) -> Tuple[float, Any]:
    """Median seconds of *fn* over *repeats* calls, and its last result."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return median(times), result


def codec_probe(session: harness.Session) -> Metrics:
    """Encode and decode the workload's largest relation — an answer if it
    has any, else its largest input relation — as one response frame in
    each framing.  Byte counts are exact."""
    out: Metrics = {
        f"protocol.{what}_{framing}": (0.0, unit)
        for framing in ("json", "binary")
        for what, unit in (
            ("encode_ns_per_row", "ns"), ("decode_ns_per_row", "ns"),
            ("bytes_per_row", "B"),
        )
    }
    try:
        codec = importlib.import_module("repro.protocol.codec")
        frames = importlib.import_module("repro.protocol.frames")
        messages = importlib.import_module("repro.protocol.messages")
        encode, decode = codec.encode, codec.decode
        encode_binary, decode_binary = frames.encode_binary, frames.decode_binary
        encode_result, response_type = messages.encode_result, messages.Response
    except (ImportError, AttributeError):
        return out
    answers = [
        answer for answer in session.oracle.answers.values()
        if isinstance(answer, tuple) and len(answer) == 2
    ]
    if answers:
        attributes, rows = max(answers, key=lambda answer: len(answer[1]))
        relation = session.api["Relation"].from_rows(attributes, rows)
    else:
        relation = max(
            (db[name] for db in session.databases.values() for name in db.names()),
            key=len,
        )
    rows = max(1, len(relation))
    kind, payload = encode_result(relation)
    response = response_type(id=1, kind=kind, result=payload)
    seconds, line = _median_time(lambda: encode(response))
    out["protocol.encode_ns_per_row_json"] = (seconds * 1e9 / rows, "ns")
    out["protocol.bytes_per_row_json"] = (len(line) / rows, "B")
    seconds, _ = _median_time(lambda: decode(line))
    out["protocol.decode_ns_per_row_json"] = (seconds * 1e9 / rows, "ns")
    seconds, frame = _median_time(lambda: encode_binary(response))
    out["protocol.encode_ns_per_row_binary"] = (seconds * 1e9 / rows, "ns")
    out["protocol.bytes_per_row_binary"] = (len(frame) / rows, "B")
    # A frame is a 6-byte prefix (magic, kind, u32 length) and then the body
    # that decode_binary reads.
    body = frame[6:]
    seconds, decoded = _median_time(lambda: decode_binary(body))
    out["protocol.decode_ns_per_row_binary"] = (seconds * 1e9 / rows, "ns")
    if decoded != response:
        raise RuntimeError("binary frame did not round-trip")
    return out


# ----------------------------------------------------------------------
# Part 4: A/B comparisons on the workload's own queries
# ----------------------------------------------------------------------


def _query_requests(workload: gen.Workload) -> List[gen.Request]:
    """The distinct query requests of one round, in first-seen order."""
    seen, out = set(), []
    for _conn, request in workload.round(0):
        key = harness.oracle_key(request)
        if request.kind in ("execute", "count", "decide") and key not in seen:
            seen.add(key)
            out.append(request)
    return out


def _passes(fn: Callable[[], None], budget: float) -> float:
    """Median seconds of *fn*, called until *budget* seconds have passed.  The
    first call warms up and is not counted, unless it alone uses the budget."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first >= budget:
        return first
    times: List[float] = []
    spent = first
    while not times or spent < budget:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return median(times)


def ab_parallel(session: harness.Session, budget: float) -> Metrics:
    """``QueryEngine(parallel=True)`` over ``parallel=False`` on one pass
    over the workload's distinct queries, in-process."""
    api = session.api
    operations = [
        (
            api["Operation"].make(r.kind, api["parse_query"](r.query)),
            session.databases[r.database],
        )
        for r in _query_requests(session.workload)
    ]
    seconds = {}
    for label, parallel in (("sharded", True), ("serial", False)):
        engine = api["QueryEngine"](parallel=parallel)
        try:
            seconds[label] = _passes(
                lambda: [engine.run(op, db) for op, db in operations], budget / 2
            )
        finally:
            engine.close()
    return {
        "parallel.sharded_over_serial": (
            ratio(seconds["sharded"], seconds["serial"]), "ratio",
        )
    }


def ab_backends(session: harness.Session, budget: float) -> Metrics:
    """``SqliteBackend.run`` over the native sequential engine, per operation
    kind, on the workload's distinct queries the backend supports."""
    api = session.api
    out: Metrics = {
        f"backends.sqlite_over_native_{kind}": (0.0, "ratio")
        for kind in ("execute", "count", "decide")
    }
    try:
        backend = importlib.import_module("repro.backends.sqlite").SqliteBackend()
    except (ImportError, AttributeError):
        return out
    engine = api["QueryEngine"](parallel=False)
    try:
        offered = {
            (r.query, r.database) for r in _query_requests(session.workload) if r.sql_ab
        }
        queries = []
        for text, database in sorted(offered):
            query = api["parse_query"](text)
            if backend.supports(query):
                queries.append((query, session.databases[database]))
        for kind in ("execute", "count", "decide"):
            operations = [(api["Operation"].make(kind, q), db) for q, db in queries]
            pushed = _passes(
                lambda: [backend.run(op, db) for op, db in operations], budget / 6
            )
            native = _passes(
                lambda: [engine.run(op, db) for op, db in operations], budget / 6
            )
            out[f"backends.sqlite_over_native_{kind}"] = (
                ratio(pushed, native), "ratio",
            )
    finally:
        engine.close()
        backend.close()
    return out


def _wire_stream(session: harness.Session, limit: int = 200):
    """(operation on text, database name) for the query requests of one
    round, at most *limit*."""
    api = session.api
    return [
        (api["Operation"].make(r.kind, r.query), r.database)
        for _conn, r in session.workload.round(0)
        if r.kind != gen.REGISTER
    ][:limit]


def ab_fleet_and_deadline(session: harness.Session, paths, budget: float) -> Metrics:
    """A 2-worker fleet of the server executable.  Both comparisons send each
    request of the stream both ways, back to back and in alternating order,
    so drift cancels.  ``fleet.route_overhead_us`` is the median of
    (``FleetRouter.run`` - ``QueryClient.run`` straight to one worker);
    ``resilience.deadline_overhead_ratio`` is the median latency with a
    far-future ``deadline=`` over that without, on one ``AsyncQueryClient``."""
    out: Metrics = {
        "fleet.route_overhead_us": (0.0, "us"),
        "resilience.deadline_overhead_ratio": (0.0, "ratio"),
    }
    try:
        fleet = importlib.import_module("repro.fleet")
        client_module = importlib.import_module("repro.protocol.client")
        supervisor = fleet.FleetSupervisor(
            {name: str(path) for name, path in paths.items()}, workers=2
        )
        router_type, client_type = fleet.FleetRouter, client_module.QueryClient
    except (ImportError, AttributeError):
        return out
    stream = _wire_stream(session)

    def timed_call(call, *args, **kwargs) -> float:
        start = time.perf_counter()
        call(*args, **kwargs)
        return time.perf_counter() - start

    async def timed_await(call, *args, **kwargs) -> float:
        start = time.perf_counter()
        await call(*args, **kwargs)
        return time.perf_counter() - start

    with supervisor:
        endpoints = supervisor.endpoints()
        if len(endpoints) < 2:
            raise RuntimeError(f"fleet came up with {len(endpoints)} of 2 workers")
        router = router_type(supervisor)
        direct = client_type(endpoints[0][1], endpoints[0][2])
        try:
            for operation, database in stream[:20]:
                router.run(operation, database)
                direct.run(operation, database)
            differences: List[float] = []
            spent, flip = 0.0, False
            while not differences or spent < budget / 2:
                for operation, database in stream:
                    pair = [router.run, direct.run][:: -1 if flip else 1]
                    times = [timed_call(run, operation, database) for run in pair]
                    routed, straight = times[::-1] if flip else times
                    differences.append(routed - straight)
                    spent += routed + straight
                    flip = not flip
        finally:
            direct.close()
            router.close()
        out["fleet.route_overhead_us"] = (median(differences) * 1e6, "us")

        async def deadline_ab() -> float:
            client = await session.api["AsyncQueryClient"].connect(
                endpoints[1][1], endpoints[1][2]
            )
            try:
                for operation, database in stream[:20]:
                    await client.run(operation, database)
                bounded: List[float] = []
                free: List[float] = []
                spent, flip = 0.0, False
                while not bounded or spent < budget / 2:
                    for operation, database in stream:
                        for with_deadline in ((True, False) if flip else (False, True)):
                            kwargs = {"deadline": 3600.0} if with_deadline else {}
                            seconds = await timed_await(
                                client.run, operation, database, **kwargs
                            )
                            (bounded if with_deadline else free).append(seconds)
                            spent += seconds
                        flip = not flip
                return ratio(median(bounded), median(free))
            finally:
                await client.aclose()

        out["resilience.deadline_overhead_ratio"] = (
            asyncio.run(deadline_ab()), "ratio",
        )
    return out


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


async def _in_process_session(real: harness.Session) -> harness.Session:
    """A ``QueryServer`` in this process on loopback, clients connected and
    warmed up — the topology the wrappers can see all of.  Inputs and oracle
    answers are those of the *real* session."""
    server_type = importlib.import_module("repro.protocol.server").QueryServer
    server = server_type(real.databases, port=0)
    await server.start()
    host, port = server.address
    session = harness.Session(
        real.api, real.workload, real.databases, real.oracle, [], server=server
    )
    return await harness.connect_and_warm(session, host, port)


async def _measure(api, name: str, seed: int, seconds: float):
    # Part 1: the real topology.
    start = time.perf_counter()
    real = await harness.set_up(api, name, seed)
    setup_seconds = harness.setup_at_reference(time.perf_counter() - start, real)
    try:
        real_window = await harness.timed_window(real, seconds * REAL_SHARE)
    finally:
        await harness.tear_down(real)
    metrics = harness.class_metrics(real, real_window)

    # Part 2: in-process, untraced then traced (fresh server each, so both
    # start from the same cold state).
    plain = await _in_process_session(real)
    try:
        plain_window = await harness.timed_window(plain, seconds * PLAIN_SHARE)
    finally:
        await harness.tear_down(plain)
    recorder = trace.Recorder()
    with trace.Installer(recorder) as installer:
        traced_session = await _in_process_session(real)
        try:
            window = await harness.timed_window(traced_session, seconds * TRACED_SHARE)
        finally:
            await harness.tear_down(traced_session)
    spans = recorder.spans
    metrics.update(
        layer_metrics(spans, window.begin_ns, window.end_ns, len(window.samples))
    )
    metrics.update(cold_metrics(spans))
    metrics["trace_overhead_ratio"] = (
        ratio(median(window.round_seconds), median(plain_window.round_seconds)),
        "ratio",
    )
    metrics["trace.wrapped"] = (float(installer.wrapped), "count")
    metrics["trace.missing"] = (float(len(installer.missing)), "count")
    detail = {
        "setup_seconds": [setup_seconds],
        "real_window": {
            "seconds": real_window.seconds,
            "rounds": len(real_window.round_seconds),
            "end_to_end": {
                n: v for n, (v, _u) in harness.end_to_end_metrics(
                    real_window, [setup_seconds]
                ).items()
            },
            "classes": harness.class_table(real_window.samples),
        },
        "traced_window": {
            "seconds": window.seconds,
            "rounds": len(window.round_seconds),
            "requests": len(window.samples),
            "spans": len(spans),
        },
        "trace_missing": installer.missing,
    }
    sessions = (real, plain, traced_session)
    return metrics, sessions, window, detail, spans


def traced(api, name: str, seed: int, seconds: float):
    metrics, sessions, window, detail, spans = asyncio.run(
        _measure(api, name, seed, seconds)
    )
    real = sessions[0]
    budget = seconds * AB_SHARE
    metrics.update(codec_probe(real))
    metrics.update(ab_parallel(real, budget))
    metrics.update(ab_backends(real, budget))
    paths = harness.write_databases(api, real.databases)
    metrics.update(ab_fleet_and_deadline(real, paths, budget))
    spans_path = harness.HERE / "results" / f"{name}-seed{seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(trace.dump(spans), separators=(",", ":")))
    detail["spans_file"] = str(spans_path)
    return metrics, sessions, window, detail
