"""Timing and sweep utilities shared by the benchmark suite.

The benchmarks print paper-shaped tables (rows = parameter settings,
columns = engines), so the harness here is deliberately simple: time a
thunk a few times, keep the best, run sweeps over parameter grids, and
estimate growth exponents from log–log slopes for the n^k-shape claims.

Machine-readable output: every standalone benchmark script supports a
``--json PATH`` flag through :func:`add_json_argument` /
:func:`emit_json_report`, writing the same schema as the committed
``BENCH_*.json`` baselines (top-level ``bench`` / ``smoke`` / ``repeats``
/ ``environment`` keys plus benchmark-specific sections).  The CI
regression gate (``benchmarks/check_regressions.py``) and local runs
therefore share one code path — the gate compares whatever a fresh ``--json`` run emits
against the committed baseline, leaf by leaf.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .reporting import write_json_report


@dataclass
class Measurement:
    """One timed configuration."""

    label: str
    parameters: Dict[str, Any]
    seconds: float
    result: Any = None


def time_thunk(thunk: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Best-of-*repeats* wall time of *thunk*; returns (seconds, last result)."""
    best = math.inf
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def sweep(
    label: str,
    grid: Iterable[Dict[str, Any]],
    make_thunk: Callable[..., Callable[[], Any]],
    repeats: int = 3,
) -> List[Measurement]:
    """Time ``make_thunk(**point)()`` for each grid point."""
    out: List[Measurement] = []
    for point in grid:
        thunk = make_thunk(**point)
        seconds, result = time_thunk(thunk, repeats=repeats)
        out.append(
            Measurement(label=label, parameters=dict(point), seconds=seconds, result=result)
        )
    return out


def growth_exponent(
    sizes: Sequence[float], times: Sequence[float]
) -> float:
    """Least-squares slope of log(time) against log(size).

    For data following t = c·n^e, returns ≈ e; the shape checks assert,
    e.g., that the acyclic engine's exponent stays near 1 while the naive
    engine's grows with k.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two matching (size, time) points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        raise ValueError("all sizes identical")
    return numerator / denominator


def speedup(baseline: float, contender: float) -> float:
    """baseline / contender, guarding tiny denominators."""
    return baseline / max(contender, 1e-9)


# ----------------------------------------------------------------------
# Machine-readable reports (shared schema with the BENCH_*.json baselines)
# ----------------------------------------------------------------------


def add_json_argument(parser: argparse.ArgumentParser) -> None:
    """Register the standard ``--json PATH`` flag on a benchmark CLI."""
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the machine-readable report (BENCH_*.json schema) here",
    )


def environment() -> Dict[str, Any]:
    """Where a report's numbers come from: CPU count, Python, commit, and
    the source tree measured (``src_sha256``: unlike ``git_head``, which
    names the commit the tree was built on, it names the tree itself, so
    it matches the commit that lands the record)."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        head = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": head or "unknown (not a git checkout)",
        "src_sha256": source_digest(os.path.dirname(os.path.dirname(here))),
    }


def source_digest(root: str) -> str:
    """SHA-256 over every file under *root* but bytecode caches: each
    file's path relative to *root*, then its bytes, in path order."""
    digest = hashlib.sha256()
    paths = []
    for directory, subdirectories, files in os.walk(root):
        subdirectories[:] = [d for d in subdirectories if d != "__pycache__"]
        paths += [os.path.join(directory, name) for name in files]
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        digest.update(os.path.relpath(path, root).replace(os.sep, "/").encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def json_report_payload(
    bench: str, *, smoke: bool, repeats: int, **sections: Any
) -> Dict[str, Any]:
    """Assemble the standard report: header keys + named sections.

    Every committed baseline and every ``--json`` run goes through this
    helper, so the regression gate can rely on the shape: ``bench`` names
    the benchmark, ``smoke``/``repeats`` describe the configuration,
    ``environment`` the machine and commit, and each section holds either
    a mapping or a list of record dicts whose timing leaves are keyed
    ``*seconds*``.
    """
    payload: Dict[str, Any] = {
        "bench": bench,
        "smoke": smoke,
        "repeats": repeats,
        "environment": environment(),
    }
    for name, section in sections.items():
        payload[name] = section
    return payload


def emit_json_report(path: Optional[str], payload: Dict[str, Any]) -> None:
    """Write *payload* to *path* (no-op when the flag was not given)."""
    if path is None:
        return
    write_json_report(path, payload)
    print(f"\nwrote {path}")
