"""The benchmark's command line.

    PYTHONPATH=src python -m bench run --seed 7            # end-to-end metrics
    python -m bench run --seeds 1-10 --out bench/results/set1.json
    python -m bench trace --seed 7                         # per-layer metrics
    python -m bench compare A.json B.json                  # bound verdicts
    python -m bench golden                                 # re-pin golden.json
    python -m bench baseline SET1.json SET2.json TRACE.json

``run`` and ``trace`` start one ``bench/run.py`` child per (workload,
seed), one at a time, pass its ``workload metric value unit n=<samples>``
lines through and write every run to a results JSON.  They exit non-zero
when any child failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _seeds(text: str) -> List[int]:
    """``"7"``, ``"1,4,9"`` or ``"1-10"``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_child(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One ``bench/run.py`` child; its result plus the lines it printed."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    samples = {
        parts[1]: int(parts[4][2:])
        for parts in (line.split() for line in lines)
        if len(parts) == 5 and parts[4].startswith("n=")
    }
    return {
        "workload": workload,
        "seed": seed,
        "exit": proc.returncode,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "samples": samples,
        "lines": lines,
        "stderr": proc.stderr[-2000:],
    }


def _machine() -> Dict[str, object]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.regression import machine_info

    return machine_info()


def cmd_runs(args: argparse.Namespace, trace: int) -> int:
    runs = []
    for seed in _seeds(args.seeds):
        for workload in args.workload or WORKLOADS:
            run = run_child(workload, seed, args.seconds, trace)
            for line in run["lines"]:
                print(line, flush=True)
            if run["exit"] != 0:
                print(f"{workload} seed {seed}: exit {run['exit']} {run['stderr']}")
            runs.append(run)
    out = Path(args.out or BENCH / "results" / ("trace.json" if trace else "run.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "mode": "trace" if trace else "run",
                "seconds": args.seconds,
                "machine": _machine(),
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    failed = [r for r in runs if r["exit"] != 0 or not r["correct"]]
    total = sum(r["wall_s"] for r in runs)
    print(
        f"{len(runs)} runs in {total:.1f} s, {len(failed)} failed; results in {out}"
    )
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare, load_values, render

    rows = compare(load_values(args.a), load_values(args.b), SPEC)
    print(render(rows))
    return 1 if any(r["verdict"] == "WORSE" for r in rows) else 0


def cmd_golden(args: argparse.Namespace) -> int:
    """Re-pin the digests of ``golden.json`` from a fresh run of each workload."""
    pinned = json.loads((BENCH / "golden.json").read_text())
    bad = 0
    for workload in WORKLOADS:
        run = run_child(workload, pinned["seed"], 1, 0)
        problems = [
            line for line in run["lines"]
            if " problem " in line and " problem golden: " not in line
        ]
        digest = next(
            line.split()[2] for line in run["lines"] if line.split()[1:2] == ["digest"]
        )
        print(f"{workload} digest {digest}")
        for line in problems:
            print(line)
        bad += bool(problems)
        pinned["digests"][workload] = digest
    (BENCH / "golden.json").write_text(json.dumps(pinned, indent=2) + "\n")
    return 1 if bad else 0


def cmd_baseline(args: argparse.Namespace) -> int:
    """Fold two run sets and a traced run into ``bench/baseline.json``."""
    from bench.compare import compare, load_values

    def slim(path: Path) -> Dict:
        data = json.loads(Path(path).read_text())
        for run in data["runs"]:
            run.pop("lines", None)
            run.pop("stderr", None)
        return data

    sets = [slim(args.set1), slim(args.set2)]
    trace = slim(args.trace)
    rows = compare(load_values(args.set1), load_values(args.set2), SPEC)
    baseline = {
        "machine": sets[0]["machine"],
        "sets": sets,
        "compare": [
            {k: r[k] for k in ("workload", "metric", "a", "b", "spread", "worse_by",
                               "bound", "verdict")}
            for r in rows
        ],
        "trace": {run["workload"]: run["metrics"] for run in trace["runs"]},
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"baseline written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--seed", "--seeds", dest="seeds", default="7")
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
        p.add_argument("--out")
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    sub.add_parser("golden")
    p = sub.add_parser("baseline")
    p.add_argument("set1", type=Path)
    p.add_argument("set2", type=Path)
    p.add_argument("trace", type=Path)
    p.add_argument("-o", "--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)
    if args.command in ("run", "trace"):
        return cmd_runs(args, int(args.command == "trace"))
    return {"compare": cmd_compare, "golden": cmd_golden, "baseline": cmd_baseline}[
        args.command
    ](args)


if __name__ == "__main__":
    sys.exit(main())
