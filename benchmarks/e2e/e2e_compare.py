"""``--compare A.json B.json``: two result sets, metric by metric.

A result set is what ``run.py --suite`` writes: several untraced runs of every
workload.  For each workload and each end-to-end metric of BENCHMARK.json the
tool takes the median of either set and the spread inside each set (distance
between the first and third quartile as a share of the median), and says

``unchanged``   B's median is within the metric's bound of A's;
``improved`` / ``regressed``   it moved by more than the bound;
``unresolved``  the spread inside a set exceeds the bound, so the sets cannot
                tell — never reported as unchanged.

Each workload is printed in its own row, one cell per metric: the verdict,
how much worse B's median is, and the larger spread.  Exit code 0 means no
``regressed`` and no ``unresolved`` cell.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from e2e_stats import iqr_spread

ROOT = Path(__file__).resolve().parent.parent.parent

UNCHANGED, IMPROVED, REGRESSED, UNRESOLVED = (
    "unchanged", "improved", "regressed", "unresolved",
)


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from the benchmark's own definition."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def by_workload(result_set: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> the values of the set's untraced runs."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in result_set["runs"]:
        if run.get("trace"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, cell in run["metrics"].items():
            metrics.setdefault(name, []).append(cell["value"])
    return out


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """(verdict, B's median relative to A's as a signed share where positive
    is worse, the larger spread inside a set)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    spread = max(iqr_spread(a), iqr_spread(b))
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worse = change if better == "lower" else -change
    if spread > bound:
        return UNRESOLVED, worse, spread
    if worse > bound:
        return REGRESSED, worse, spread
    if worse < -bound:
        return IMPROVED, worse, spread
    return UNCHANGED, worse, spread


def compare(
    set_a: Dict[str, Any], set_b: Dict[str, Any], bounds
) -> Tuple[List[str], bool]:
    """The report's lines and whether every cell is unchanged or improved."""
    values_a, values_b = by_workload(set_a), by_workload(set_b)
    lines: List[str] = []
    clean = True
    for workload in sorted(set(values_a) | set(values_b)):
        cells = []
        for metric, (better, bound) in bounds.items():
            a = values_a.get(workload, {}).get(metric)
            b = values_b.get(workload, {}).get(metric)
            if not a or not b:
                cells.append(f"{metric}=missing")
                clean = False
                continue
            word, worse, spread = verdict(a, b, better, bound)
            clean = clean and word in (UNCHANGED, IMPROVED)
            cells.append(f"{metric}={word}({worse:+.1%},±{spread:.1%})")
        lines.append(f"{workload:16s} " + "  ".join(cells))
    return lines, clean


def main(paths: Sequence[str]) -> int:
    set_a, set_b = (json.loads(Path(p).read_text()) for p in paths)
    lines, clean = compare(set_a, set_b, load_bounds())
    for label, path, result_set in (("A", paths[0], set_a), ("B", paths[1], set_b)):
        env = result_set.get("environment", {})
        print(
            f"{label}: {path} seed {result_set.get('seed')} commit "
            f"{env.get('git_head')} nproc {env.get('nproc')} python {env.get('python')}"
        )
    print("cell: metric=verdict(B's median worse by, larger spread inside a set)")
    print("\n".join(lines))
    print("OK: nothing regressed or unresolved" if clean else "NOT OK")
    return 0 if clean else 1
