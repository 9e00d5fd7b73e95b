"""The e2e benchmark: one wire-to-kernel run of one workload.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --suite SET.json --seed N --seconds S --repeats R
    python3 benchmarks/e2e/run.py --compare A.json B.json

``--trace 0`` measures the end-to-end metrics through the real path — one
client process, loopback TCP, a ``python -m repro.protocol.server``
subprocess — with no wrapper installed anywhere.  ``--trace 1`` is the
separate traced run that yields the per-layer metrics.  Either way every
metric is printed as ``name value unit``, a results file is written under
``benchmarks/e2e/results/``, and the last line of standard output is the
JSON object the benchmark contract asks for.  ``--suite`` runs every workload
``--repeats`` times untraced and once traced, each in a fresh process, and
writes one result set; ``--compare`` checks two result sets against the bounds
in BENCHMARK.json.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import e2e_gen as gen  # noqa: E402
import e2e_harness as harness  # noqa: E402

#: ``setup_s`` is the median of this many complete set-ups.
SETUP_REPEATS = 3

Metrics = Dict[str, Tuple[float, str]]


def environment() -> Dict[str, Any]:
    """Where the numbers come from: stamped into every results file."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": head or "unknown (not a git checkout)",
    }


async def untraced(api, name: str, seed: int, seconds: float):
    """Set up SETUP_REPEATS times, measure on the last set-up."""
    setup_seconds: List[float] = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        session = await harness.set_up(api, name, seed)
        setup_seconds.append(
            harness.setup_at_reference(time.perf_counter() - start, session)
        )
        if repeat < SETUP_REPEATS - 1:
            await harness.tear_down(session)
    try:
        window = await harness.timed_window(session, seconds)
    finally:
        await harness.tear_down(session)
    metrics = harness.end_to_end_metrics(window, setup_seconds)
    extra = harness.class_metrics(session, window)
    return session, window, metrics, extra, setup_seconds


def report(
    args, metrics: Metrics, extra: Metrics, sessions, window, detail: Dict[str, Any]
) -> None:
    # Warm-up requests, and those of every part of a traced run, are checked
    # like timed ones: a wrong answer anywhere makes the run incorrect.
    samples = [sample for session in sessions for sample in session.samples]
    failures = [message for session in sessions for message in session.failures]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    for message in failures[:20]:
        print(f"FAILED {message}")
    print(
        f"workload {args.workload} seed {args.seed}: sent {attempted} "
        f"succeeded {attempted - failed} failed {failed} "
        f"({len(window.samples)} of them in the timed window)"
    )
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "extra": {n: {"value": v, "unit": u} for n, (v, u) in extra.items()},
        **detail,
    }
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"results written to {out}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": document["metrics"],
            }
        )
    )


#: What a result set keeps of each run's results file.
SET_FIELDS = (
    "workload", "seed", "seconds", "trace", "attempted", "failed", "rounds",
    "setup_seconds", "metrics", "extra",
)


def suite(args) -> int:
    """Every workload, ``--repeats`` untraced runs and one traced run, each a
    fresh process like the driver's; one result-set file."""
    runs = []
    scratch = HERE / "results" / f"suite-{os.getpid()}.json"
    for workload in sorted(gen.WORKLOADS):
        for repeat in range(args.repeats + 1):
            trace_flag = int(repeat == args.repeats)
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace_flag), "--out", str(scratch),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-4000:], sep="\n")
                return done.returncode
            document = json.loads(scratch.read_text())
            runs.append({key: document[key] for key in SET_FIELDS if key in document})
            print(
                f"{workload} trace {trace_flag} run {repeat + 1}: "
                f"failed {document['failed']} of {document['attempted']}",
                flush=True,
            )
    scratch.unlink(missing_ok=True)
    result_set = {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "environment": environment(), "runs": runs,
    }
    Path(args.suite).write_text(json.dumps(result_set, indent=1, sort_keys=True) + "\n")
    print(f"result set written to {args.suite}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file (default: results/…json)")
    parser.add_argument("--suite", metavar="SET.json", help="write a result set")
    parser.add_argument("--repeats", type=int, default=5, help="runs per workload")
    parser.add_argument(
        "--compare", nargs=2, metavar="SET.json", help="compare two result sets"
    )
    args = parser.parse_args(argv)
    if args.compare:
        import e2e_compare

        return e2e_compare.main(args.compare)
    if args.suite:
        return suite(args)
    if not args.workload:
        parser.error("--workload is required")
    api = harness.import_repro()
    harness.pin_to_one_cpu()
    try:
        return measure(args, api)
    finally:
        harness.remove_work_dir()


def measure(args, api) -> int:
    if args.trace:
        import e2e_layers

        metrics, sessions, window, detail = e2e_layers.traced(
            api, args.workload, args.seed, args.seconds
        )
        report(args, metrics, {}, sessions, window, detail)
        return 0
    session, window, metrics, extra, setup_seconds = asyncio.run(
        untraced(api, args.workload, args.seed, args.seconds)
    )
    detail = {
        "setup_seconds": setup_seconds,
        "window_seconds": window.seconds,
        "rounds": len(window.round_seconds),
        "round_seconds": window.round_seconds,
        "classes": harness.class_table(window.samples),
    }
    report(args, metrics, extra, [session], window, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
