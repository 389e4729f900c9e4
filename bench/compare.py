"""Compare two sets of benchmark runs metric by metric.

For each (metric, workload) pair both sets hold, report each side's
median and quartiles and a verdict under the metric's bound from
``BENCHMARK.json``:

* ``ok`` — the second median is not worse than the first by more than
  the bound;
* ``WORSE`` — it is, and both sets' spreads are within the bound (or
  every run of the second set reads worse than every run of the first);
* ``unresolved`` — a set's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell a change from noise;
* ``better`` — an unresolved pair where every run of the second set
  reads better than every run of the first.

Per-layer metrics carry no bound; they are listed with a ``-`` verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Values = Dict[Tuple[str, str], List[float]]


def load_values(path: Path) -> Values:
    """(workload, metric) -> values over the runs of a results file."""
    values: Values = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for metric, value in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(float(value))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = second - first if better == "lower" else first - second
    if first == 0.0:
        return 0.0 if change <= 0.0 else float("inf")
    return change / abs(first)


def compare(a: Values, b: Values, spec: Dict) -> List[Dict[str, object]]:
    """One row per (workload, metric) found in both ``a`` and ``b``."""
    metrics = {m["name"]: m for m in (*spec["end_to_end"], *spec["per_layer"])}
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = metrics.get(name)
        if metric is None:
            continue
        first, second = a[key], b[key]
        better = metric["better"]
        row = {
            "workload": workload,
            "metric": name,
            "unit": metric["unit"],
            "a": quartiles(first),
            "b": quartiles(second),
            "spread": max(spread(first), spread(second)),
            "worse_by": _worse_by(quartiles(first)[1], quartiles(second)[1], better),
            "bound": metric.get("bound"),
            "verdict": "-",
        }
        bound = row["bound"]
        if bound is not None:
            sign = 1.0 if better == "lower" else -1.0
            all_better = sign * max(second) < sign * min(first)
            all_worse = sign * min(second) > sign * max(first)
            if row["worse_by"] > bound and (row["spread"] <= bound or all_worse):
                row["verdict"] = "WORSE"
            elif row["spread"] > bound:
                row["verdict"] = "better" if all_better else "unresolved"
            else:
                row["verdict"] = "ok"
        rows.append(row)
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    lines = [
        f"{'workload':<16} {'metric':<36} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    ]
    for r in rows:
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        lines.append(
            f"{r['workload']:<16} {r['metric'] + ' (' + r['unit'] + ')':<36} "
            f"{q(r['a']):<34} {q(r['b']):<34} {r['worse_by']:>9.1%} "
            f"{r['spread']:>7.1%} {bound:>6}  {r['verdict']}"
        )
    return "\n".join(lines)


__all__ = ["compare", "load_values", "quartiles", "render", "spread"]
