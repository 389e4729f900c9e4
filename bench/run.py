#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

    python3 bench/run.py --workload gra-dense --seed 7 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Prints one ``workload metric value unit n=<samples>`` line per metric,
the output digest and any failed check, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json``, ``--trace 1`` its ``per_layer`` metrics.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no program to measure.
"""

import os

# One BLAS thread: the reference box has two CPUs and the benchmark runs
# one busy process at a time.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"bench: {ROOT} holds no src/repro or BENCHMARK.json; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.measure import measure, measure_traced
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workload = WORKLOADS[args.workload]
    wanted = json.loads(spec_path.read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.trace:
            trace_path = RESULTS / f"{workload.name}.trace.jsonl"
            metrics, gate = measure_traced(
                workload, args.seed, args.seconds, workdir, trace_path
            )
        else:
            metrics, gate = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"] for m in wanted}
    if declared != set(metrics):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{sorted(declared)}"
        )
    for m in wanted:
        value, samples = metrics[m["name"]]
        print(f"{workload.name} {m['name']} {value!r} {m['unit']} n={samples}")
    print(f"{workload.name} digest {gate.reference}")
    for problem in gate.problems:
        print(f"{workload.name} problem {problem}")
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
