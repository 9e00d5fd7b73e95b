"""Set-up, the closed-loop driver, the oracle and the end-to-end metrics.

The untraced path deliberately touches only the generic surface ROADMAP item
3d keeps — ``Operation.make``, ``AsyncQueryClient.connect`` / ``run`` /
``register_database`` / ``stats`` / ``aclose``, the ``python -m
repro.protocol.server`` executable with its READY line,
``save_database_json``, ``Relation.from_rows``, ``Database``, and
``parse_query`` + ``QueryEngine.run`` for the oracle — so a simplicity PR that
deletes per-kind facades cannot break a benchmark it may not edit.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import e2e_gen as gen
from e2e_stats import (
    growth_exponent,
    median,
    percentile,
    ratio,
    second_half_slope,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

READY_PREFIX = "QUERYSERVER READY"
READY_TIMEOUT = 120.0

# ----------------------------------------------------------------------
# Speed normalisation
# ----------------------------------------------------------------------
#
# The sandbox's cores change speed by up to a third, each on its own, for
# seconds or minutes at a time (neighbours on the host).  So the benchmark
# runs client and server on ONE cpu, times a fixed burst of interpreter work
# on that cpu before and after every round and around every stage of set-up,
# and reports timings scaled to the speed at which the burst takes
# CAL_REFERENCE_S: "ms at reference speed".  Raw timings are kept alongside.

CAL_ITERATIONS = 120_000
#: What one burst takes on an undisturbed core of the sandbox the benchmark
#: was written on; on such a core normalised and raw timings agree.
CAL_REFERENCE_S = 0.013


def pin_to_one_cpu() -> None:
    """Client and (by inheritance) every server subprocess on one cpu, so the
    bursts see what the work sees.  Requests are answered one at a time per
    connection and the interpreter lock serialises the rest, so a second cpu
    buys these workloads almost nothing — and its speed is independent noise."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def burst() -> float:
    """Seconds a fixed piece of pure-Python work takes right now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = total
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(bursts: Sequence[float]) -> float:
    """Multiply a timing taken near *bursts* by this to get it at reference
    speed.  The median keeps one preempted burst from mattering."""
    return CAL_REFERENCE_S / median(bursts) if bursts else 1.0


def import_repro() -> Dict[str, Any]:
    """The narrow surface, imported once.  Exits non-zero when the tree the
    benchmark measures is not there (a checkout holding only the benchmark)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"e2e: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.engine.engine import QueryEngine
    from repro.operations import Operation
    from repro.protocol.client import AsyncQueryClient
    from repro.query.parser import parse_query
    from repro.relational.database import Database
    from repro.relational.io import save_database_json
    from repro.relational.relation import Relation

    return {
        "QueryEngine": QueryEngine,
        "Operation": Operation,
        "AsyncQueryClient": AsyncQueryClient,
        "parse_query": parse_query,
        "Database": Database,
        "save_database_json": save_database_json,
        "Relation": Relation,
    }


# ----------------------------------------------------------------------
# Canonical answers and the oracle
# ----------------------------------------------------------------------


def canonical(kind: str, value: Any) -> Any:
    """The form answers are compared in: relations as (attributes, row
    set) — equal to comparing sorted rows — counts as ints, decisions as
    bools, ``explain`` only for non-emptiness, registrations as the sorted
    relation names."""
    if kind == "explain":
        return bool(value)
    if kind == gen.REGISTER:
        return sorted(value)
    if kind == "execute":
        return (tuple(value.attributes), frozenset(value.rows))
    if kind == "decide":
        if not isinstance(value, bool):
            raise TypeError(f"decide answered {type(value).__name__}")
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"count answered {type(value).__name__}")
    return value


def build_database(api: Dict[str, Any], relations) -> Any:
    return api["Database"](
        {
            name: api["Relation"].from_rows(attrs, rows)
            for name, (attrs, rows) in relations.items()
        }
    )


def oracle_key(request: gen.Request) -> Tuple[str, str, str]:
    return (request.kind, request.query, request.database)


class Oracle:
    """Answers from a sequential in-process engine, computed on demand and
    remembered per distinct request."""

    def __init__(self, api: Dict[str, Any], databases: Dict[str, Any]) -> None:
        self._api = api
        self._databases = databases
        self._engine = api["QueryEngine"](parallel=False)
        self.answers: Dict[Tuple[str, str, str], Any] = {}

    def expect(self, request: gen.Request) -> Any:
        key = oracle_key(request)
        if key not in self.answers:
            database = self._databases[request.database]
            if request.kind == gen.REGISTER:
                value: Any = list(database.names())
            else:
                operation = self._api["Operation"].make(
                    request.kind, self._api["parse_query"](request.query)
                )
                value = self._engine.run(operation, database)
            self.answers[key] = canonical(request.kind, value)
        return self.answers[key]

    def close(self) -> None:
        self._engine.close()


# ----------------------------------------------------------------------
# The server subprocess and /proc
# ----------------------------------------------------------------------


def _proc_status_kb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {key}")


def server_rss_kb(pid: int) -> float:
    return _proc_status_kb(pid, "VmRSS")


def server_peak_kb(pid: int) -> float:
    return _proc_status_kb(pid, "VmHWM")


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* from /proc (clock ticks -> seconds)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def spawn_server(paths: Dict[str, Path], stderr_path: Path):
    """Start ``python -m repro.protocol.server`` and wait for its READY line."""
    command = [sys.executable, "-m", "repro.protocol.server", "--port", "0"]
    for name, path in sorted(paths.items()):
        command += ["--database", f"{name}={path}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(stderr_path, "wb") as stderr:
        process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=stderr, env=env
        )
    try:
        line = await asyncio.wait_for(process.stdout.readline(), READY_TIMEOUT)
        text = line.decode("utf-8", "replace").strip()
        if not text.startswith(READY_PREFIX):
            raise RuntimeError(
                f"server did not come up: {text!r}; stderr: "
                f"{stderr_path.read_text(errors='replace')[-2000:]}"
            )
        fields = dict(part.split("=", 1) for part in text.split()[2:])
        return process, fields["host"], int(fields["port"])
    except BaseException:
        await stop_process(process)
        raise


async def stop_process(process) -> None:
    """SIGTERM (the server drains), then SIGKILL; always waits for the end."""
    if process.returncode is None:
        try:
            process.terminate()
        except ProcessLookupError:
            pass
        try:
            await asyncio.wait_for(process.wait(), 15.0)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()


# ----------------------------------------------------------------------
# A session: everything set-up produces
# ----------------------------------------------------------------------


@dataclass
class Sample:
    phase: str  # "warmup" or "timed"
    round: int
    conn: int
    tag: str
    kind: str
    raw_seconds: float
    tuples_in: int
    rows_out: int
    cold: bool
    ok: bool
    #: ``raw_seconds`` at reference speed; set when the round's bursts are in.
    seconds: float = field(init=False)

    def __post_init__(self) -> None:
        self.seconds = self.raw_seconds


@dataclass
class Session:
    api: Dict[str, Any]
    workload: gen.Workload
    databases: Dict[str, Any]
    oracle: Oracle
    clients: List[Any]
    process: Any = None  # the server subprocess, or
    server: Any = None  # the QueryServer in this process (traced runs only)
    rounds_done: int = 0
    #: Bursts taken between the stages of this session's set-up.
    setup_bursts: List[float] = field(default_factory=list)
    operations: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    seen: set = field(default_factory=set)
    generation: Dict[str, int] = field(default_factory=dict)
    samples: List[Sample] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def pid(self) -> int:
        return self.process.pid if self.process is not None else os.getpid()


async def send(session: Session, phase: str, rnd: int, conn: int, request) -> None:
    """One closed-loop request: send, wait, time, check against the oracle."""
    api, client = session.api, session.clients[conn]
    if request.kind == gen.REGISTER:
        base = session.workload.databases[request.database]
        payload = build_database(
            api,
            {
                name: (attrs, gen.shifted(rows, request.generation))
                for name, (attrs, rows) in base.items()
            },
        )
        session.generation[request.database] = request.generation
    else:
        op_key = (request.kind, request.query)
        operation = session.operations.get(op_key)
        if operation is None:
            operation = api["Operation"].make(request.kind, request.query)
            session.operations[op_key] = operation
    cold_key = (request.tag, session.generation.get(request.database, 0))
    cold = cold_key not in session.seen
    session.seen.add(cold_key)
    expected = session.oracle.expect(request)
    rows_out, ok = 0, False
    start = time.perf_counter()
    try:
        if request.kind == gen.REGISTER:
            value = await client.register_database(request.database, payload)
        else:
            value = await client.run(operation, request.database)
        seconds = time.perf_counter() - start
        got = canonical(request.kind, value)
        ok = got == expected
        if request.kind == "execute":
            rows_out = len(got[1])
        if not ok:
            session.failures.append(
                f"wrong answer for {request.tag} ({request.query!r}): "
                f"{_brief(got)} != {_brief(expected)}"
            )
    except Exception as exc:  # noqa: BLE001 — a failure counts, it stops nothing
        seconds = time.perf_counter() - start
        session.failures.append(
            f"{request.tag} ({request.query!r}) failed: {type(exc).__name__}: {exc}"
        )
    session.samples.append(
        Sample(
            phase, rnd, conn, request.tag, request.kind, seconds,
            request.tuples_in, rows_out, cold, ok,
        )
    )


def _brief(value: Any) -> str:
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], frozenset):
        return f"{len(value[1])} rows over {value[0]}"
    return repr(value)[:80]


async def run_round(session: Session, phase: str, index: int, rnd: gen.Round) -> None:
    if phase == "warmup" or not session.workload.concurrent:
        for conn, request in rnd:
            await send(session, phase, index, conn, request)
        return

    async def drive(conn: int) -> None:
        for owner, request in rnd:
            if owner == conn:
                await send(session, phase, index, conn, request)

    await asyncio.gather(*(drive(c) for c in range(len(session.clients))))


def prepare(api: Dict[str, Any], name: str, seed: int, bursts: List[float]):
    """Inputs from the seed: the workload, its databases, a fresh oracle."""
    workload = gen.build(name, seed)
    bursts.append(burst())
    databases = {
        db: build_database(api, relations)
        for db, relations in workload.databases.items()
    }
    bursts.append(burst())
    return workload, databases, Oracle(api, databases)


def work_dir() -> Path:
    """This process's own directory under ``_work/`` (removed by
    :func:`remove_work_dir` when the run ends)."""
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work_dir() -> None:
    shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)


def write_databases(api: Dict[str, Any], databases) -> Dict[str, Path]:
    paths = {}
    for db, database in databases.items():
        paths[db] = work_dir() / f"{db}.json"
        api["save_database_json"](database, paths[db])
    return paths


async def connect_and_warm(session: Session, host: str, port: int) -> Session:
    """Connect the workload's clients, put every distinct request to the
    oracle, run the warm-up round.  Tears the session down if that fails."""
    workload = session.workload
    try:
        for binary in workload.connections:
            session.clients.append(
                await session.api["AsyncQueryClient"].connect(
                    host, port, binary_frames=binary
                )
            )
        for request in workload.also_distinct:
            session.oracle.expect(request)
        # Every distinct request of the warm-up meets the oracle here, not
        # inside the round, so a burst can sit between oracle and warm-up.
        for _conn, request in workload.warmup:
            session.oracle.expect(request)
        session.setup_bursts.append(burst())
        await run_round(session, "warmup", -1, workload.warmup)
        session.setup_bursts.append(burst())
    except BaseException:
        await tear_down(session)
        raise
    return session


def setup_at_reference(raw: float, session: Session) -> float:
    """A set-up that took *raw* seconds, at reference speed and without the
    time its own bursts took."""
    bursts = session.setup_bursts
    return (raw - sum(bursts)) * speed_factor(bursts)


async def set_up(api: Dict[str, Any], name: str, seed: int) -> Session:
    """Generate inputs, write the database files, spawn the server to READY,
    connect, answer every distinct request with the oracle, and warm up —
    everything ``setup_s`` times, bursts between the stages included."""
    bursts = [burst()]
    workload, databases, oracle = prepare(api, name, seed, bursts)
    paths = write_databases(api, databases)
    bursts.append(burst())
    process, host, port = await spawn_server(paths, work_dir() / "server.stderr")
    bursts.append(burst())
    session = Session(api, workload, databases, oracle, [], process)
    session.setup_bursts = bursts
    return await connect_and_warm(session, host, port)


async def tear_down(session: Session) -> None:
    for client in session.clients:
        try:
            await client.aclose()
        except Exception:  # noqa: BLE001 — teardown goes on to stop the server
            pass
    session.oracle.close()
    if session.server is not None:
        await session.server.aclose()
    if session.process is not None:
        await stop_process(session.process)


# ----------------------------------------------------------------------
# The timed window
# ----------------------------------------------------------------------


@dataclass
class Window:
    """What one timed window observed, beyond the per-request samples."""

    samples: List[Sample]
    seconds: float
    begin_ns: int
    end_ns: int
    #: Raw wall time of each round, and the factor that takes it (and the
    #: round's samples) to reference speed.
    round_seconds: List[float]
    factors: List[float]
    rss_kb_after_round: List[float]
    peak_kb_fixed: float
    server_cpu_seconds: float
    client_cpu_seconds: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]


async def timed_window(session: Session, seconds: float) -> Window:
    """Whole rounds until *seconds* have passed (at least one).  A second
    window on one session goes on with the rounds the first did not use."""
    workload, pid = session.workload, session.pid
    first_round = session.rounds_done
    first_sample = len(session.samples)
    stats_before = await session.clients[0].stats()
    round_seconds: List[float] = []
    rss: List[float] = []
    peak_fixed = 0.0
    server_cpu = process_cpu_seconds(pid)
    client_cpu = time.process_time()
    begin_ns = time.perf_counter_ns()
    index = first_round
    bursts = [burst()]
    busy = 0.0
    while True:
        rnd = workload.round(index)
        start = time.perf_counter()
        await run_round(session, "timed", index, rnd)
        now = time.perf_counter()
        round_seconds.append(now - start)
        busy += now - start
        rss.append(server_rss_kb(pid))
        bursts.append(burst())
        index += 1
        if index - first_round == workload.rss_rounds:
            peak_fixed = server_peak_kb(pid)
        # The bursts are not part of the window the workload is given.
        if busy >= seconds:
            break
    end_ns = time.perf_counter_ns()
    session.rounds_done = index
    # Round i ran between bursts i and i+1; one more on either side smooths.
    factors = [
        speed_factor(bursts[max(0, i - 1) : i + 3]) for i in range(len(round_seconds))
    ]
    for sample in session.samples[first_sample:]:
        sample.seconds = sample.raw_seconds * factors[sample.round - first_round]
    client_cpu = time.process_time() - client_cpu - sum(bursts)
    server_cpu = process_cpu_seconds(pid) - server_cpu
    if not peak_fixed:
        peak_fixed = server_peak_kb(pid)
    stats_after = await session.clients[0].stats()
    return Window(
        samples=session.samples[first_sample:],
        seconds=busy,
        begin_ns=begin_ns,
        end_ns=end_ns,
        round_seconds=round_seconds,
        factors=factors,
        rss_kb_after_round=rss,
        peak_kb_fixed=peak_fixed,
        server_cpu_seconds=server_cpu,
        client_cpu_seconds=client_cpu,
        stats_before=stats_before,
        stats_after=stats_after,
    )


# ----------------------------------------------------------------------
# Metrics from samples
# ----------------------------------------------------------------------


def _per_tuple_ns(sample: Sample) -> float:
    return sample.seconds * 1e9 / max(1, sample.tuples_in + sample.rows_out)


def _round_rates(window: Window, factors: Sequence[float]) -> List[float]:
    """Correct answers per second of each round, its wall time scaled by the
    matching factor."""
    counts: Dict[int, int] = {}
    for s in window.samples:
        if s.ok:
            counts[s.round] = counts.get(s.round, 0) + 1
    first = min(counts) if counts else 0
    return [
        counts.get(first + i, 0) / (seconds * factor)
        for i, (seconds, factor) in enumerate(zip(window.round_seconds, factors))
    ]


def end_to_end_metrics(
    window: Window, setup_seconds: Sequence[float]
) -> Dict[str, Tuple[float, str]]:
    """The metrics every workload reports (see README: End-to-end metrics).
    Timings are at reference speed; *setup_seconds* come in that way."""
    good = [s for s in window.samples if s.ok]
    latencies = [s.seconds * 1e3 for s in good]
    by_round: Dict[int, List[Sample]] = {}
    for s in good:
        by_round.setdefault(s.round, []).append(s)
    per_tuple = [
        sum(s.seconds for s in members)
        * 1e9
        / max(1, sum(s.tuples_in + s.rows_out for s in members))
        for members in by_round.values()
    ]
    cpu_ms = window.server_cpu_seconds * 1e3 / max(1, len(window.samples))
    return {
        "setup_s": (median(setup_seconds), "s"),
        # Median over rounds, not total / wall: one stalled round (a
        # collection, a noisy neighbour) moves the tail percentile, not this.
        "req_per_s_norm": (median(_round_rates(window, window.factors)), "1/s"),
        "latency_ms_p50_norm": (percentile(latencies, 50), "ms"),
        "latency_ms_p90_norm": (percentile(latencies, 90), "ms"),
        "ns_per_tuple_norm": (median(per_tuple), "ns"),
        "server_cpu_ms_per_req_norm": (cpu_ms * median(window.factors), "ms"),
        "server_rss_peak_mb": (window.peak_kb_fixed / 1024.0, "MB"),
    }


def raw_metrics(window: Window) -> Dict[str, Tuple[float, str]]:
    """What a stopwatch would have read, for comparison with the normalised
    numbers, and how far this run was from reference speed."""
    good = [s for s in window.samples if s.ok]
    unscaled = [1.0] * len(window.round_seconds)
    return {
        "e2e.speed_factor": (median(window.factors), "ratio"),
        "e2e.req_per_s_raw": (median(_round_rates(window, unscaled)), "1/s"),
        "e2e.latency_ms_p50_raw": (
            percentile([s.raw_seconds * 1e3 for s in good], 50), "ms",
        ),
    }


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    def dig(doc: Any) -> float:
        for key in path:
            doc = doc.get(key, {}) if isinstance(doc, dict) else {}
        return float(doc) if isinstance(doc, (int, float)) else 0.0

    return dig(after) - dig(before)


def class_metrics(session: Session, window: Window) -> Dict[str, Tuple[float, str]]:
    """End-to-end numbers of single request classes, and what the wire
    ``stats`` op says about service and engine over the window.  They are
    per-layer metrics in BENCHMARK.json because each is defined on some
    workloads only (0 = this workload sends no such request)."""
    workload = session.workload
    good = [s for s in window.samples if s.ok]
    by_tag: Dict[str, List[Sample]] = {}
    for s in good:
        if not s.cold:
            by_tag.setdefault(s.tag, []).append(s)
    out: Dict[str, Tuple[float, str]] = raw_metrics(window)
    out["e2e.latency_ms_p99"] = (percentile([s.seconds * 1e3 for s in good], 99), "ms")
    out["e2e.client_cpu_ms_per_req"] = (
        window.client_cpu_seconds * 1e3 / max(1, len(window.samples)), "ms",
    )
    for kind in ("execute", "count", "decide"):
        members = by_tag.get(workload.per_tuple_tags.get(kind, ""), [])
        out[f"e2e.ns_per_tuple_{kind}"] = (
            median([_per_tuple_ns(s) for s in members]), "ns",
        )
    exponent = 0.0
    if workload.growth_tags:
        small, large = (by_tag.get(tag, []) for tag in workload.growth_tags)
        if small and large:
            exponent = growth_exponent(
                median([s.seconds for s in small]),
                median([s.seconds for s in large]),
                small[0].tuples_in + median([s.rows_out for s in small]),
                large[0].tuples_in + median([s.rows_out for s in large]),
            )
    out["e2e.growth_exponent_execute"] = (exponent, "ratio")
    for label, binary in (("json", False), ("binary", True)):
        members = [
            s for s in good
            if workload.connections[s.conn] == binary and s.rows_out
        ]
        out[f"e2e.rows_per_s_{label}"] = (
            ratio(sum(s.rows_out for s in members), sum(s.seconds for s in members)),
            "rows/s",
        )
    registers = [s.seconds * 1e3 for s in good if s.kind == gen.REGISTER]
    firsts = [s.seconds * 1e3 for s in good if s.cold and s.kind != gen.REGISTER]
    out["e2e.register_ms_p50"] = (median(registers), "ms")
    out["e2e.first_query_ms_p50"] = (median(firsts), "ms")
    out["e2e.rss_growth_kb_per_round"] = (
        second_half_slope(window.rss_kb_after_round), "KB",
    )
    out["relational.cold_over_warm"] = (cold_over_warm(session.samples), "ratio")

    after, before = window.stats_after, window.stats_before
    submitted = _delta(after, before, "service", "submitted")
    out["service.coalesced_share"] = (
        ratio(_delta(after, before, "service", "coalesced"), submitted), "ratio",
    )
    out["service.batched_share"] = (
        ratio(_delta(after, before, "service", "batched"), submitted), "ratio",
    )
    out["service.max_queue_depth"] = (
        float(after.get("service", {}).get("max_queue_depth", 0)), "count",
    )
    hits = _delta(after, before, "engine", "cache", "hits")
    misses = _delta(after, before, "engine", "cache", "misses")
    out["engine.plan_cache_hit_share"] = (ratio(hits, hits + misses), "ratio")
    out["engine.replans"] = (_delta(after, before, "engine", "replans"), "count")
    out["engine.busy_share"] = (
        ratio(_delta(after, before, "engine", "total_seconds"), window.seconds),
        "ratio",
    )
    return out


def cold_over_warm(samples: Sequence[Sample]) -> float:
    """Median over request classes of (median first-touch latency) /
    (median latency once warm) — first touch pays column and index builds.
    A ratio, so taken from raw timings (warm-up samples have no factor)."""
    cold: Dict[str, List[float]] = {}
    warm: Dict[str, List[float]] = {}
    for s in samples:
        if s.ok and s.kind != gen.REGISTER:
            (cold if s.cold else warm).setdefault(s.tag, []).append(s.raw_seconds)
    ratios = [
        median(cold[tag]) / median(warm[tag])
        for tag in cold
        if tag in warm and median(warm[tag]) > 0
    ]
    return median(ratios)


def class_table(samples: Sequence[Sample]) -> Dict[str, Dict[str, float]]:
    """Per request class: sample count, p50 and p90 latency, rows out."""
    by_tag: Dict[str, List[Sample]] = {}
    for s in samples:
        if s.ok:
            by_tag.setdefault(s.tag + (":cold" if s.cold else ""), []).append(s)
    return {
        tag: {
            "samples": len(members),
            "p50_ms": percentile([s.seconds * 1e3 for s in members], 50),
            "p90_ms": percentile([s.seconds * 1e3 for s in members], 90),
            "rows_out": median([s.rows_out for s in members]),
            "tuples_in": members[0].tuples_in,
        }
        for tag, members in sorted(by_tag.items())
    }
