"""Measuring one workload run: set-up, the timed window, the checks.

End-to-end numbers come from an untraced run.  A traced run repeats the
workload with the :mod:`bench.layers` wrappers installed and reports the
per-layer numbers, plus what the wrappers and the program's own tracer
cost relative to the untraced operation.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.layers import Layers, layer_metrics
from bench.workloads import Workload, child_env

GOLDEN = Path(__file__).with_name("golden.json")

#: set-up repeats: at least 3, more while they add up to under a second
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 25

#: span records a traced run may hold; a run that overflows it fails
TRACE_CAPACITY = 400_000

#: metric name -> (value, number of samples behind it)
Metrics = Dict[str, Tuple[float, int]]


class Gate:
    """Correctness checks, all made outside the timed sections.

    Every operation's output must pass the workload's invariants and be
    bit-identical to the first repetition's; for the seed pinned in
    ``golden.json`` its digest must equal the committed one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[str] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def check(self, what: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def output(self, workload: Workload, inputs: object, out: object) -> None:
        problems = list(workload.check(inputs, out))
        digest = workload.digest(out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output differs from the first repetition")
        self.check("output", problems)

    def golden(self, workload: str, seed: int, path: Path = GOLDEN) -> None:
        pinned = json.loads(path.read_text())
        if seed != pinned["seed"]:
            return
        expected = pinned["digests"].get(workload)
        self.check(
            "golden",
            [] if expected == self.reference
            else [f"digest {self.reference} != {path.name} {expected}"],
        )


def _setup(workload: Workload, seed: int, workdir: Path):
    times: List[float] = []
    inputs = None
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        inputs = None  # free the previous inputs so peak RSS holds one copy
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return inputs, times


def _window(
    op: Callable[[], object], seconds: float, consume: Callable[[object], None]
) -> List[float]:
    """Run ``op`` back to back until ``seconds`` have passed (at least once)."""
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        out = op()
        times.append(time.perf_counter() - start)
        consume(out)
    return times


def measure(
    workload: Workload, seed: int, seconds: float, workdir: Path
) -> Tuple[Metrics, Gate]:
    """The end-to-end metrics of one untraced run."""
    gate = Gate()
    inputs, setup_times = _setup(workload, seed, workdir)
    gate.check("setup", workload.setup_check(inputs))
    # one untimed warm-up: lazy imports, allocator and page cache settle
    gate.output(workload, inputs, workload.op(inputs))
    op_times = _window(
        lambda: workload.op(inputs),
        seconds,
        lambda out: gate.output(workload, inputs, out),
    )
    gate.golden(workload.name, seed)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "op_s_p50": (statistics.median(op_times), len(op_times)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, 1),
    }, gate


def _import_seconds(module: Optional[str]) -> Tuple[float, int]:
    """Median wall time of ``python -c "import module"`` over three runs."""
    if module is None:
        return 0.0, 0
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=child_env(), check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def measure_traced(
    workload: Workload, seed: int, seconds: float, workdir: Path, trace_path: Path
) -> Tuple[Metrics, Gate]:
    """The per-layer metrics of one traced run; spans go to ``trace_path``.

    Rounds of three operations share the window: untraced, under the
    bench wrappers, and under ``RunContext(trace=True)`` (the program's
    own tracer).  All three must return bit-identical outputs.
    """
    from repro.runtime import RunContext
    from repro.utils.tracing import Tracer

    gate = Gate()
    layers = Layers()
    tracer = Tracer(capacity=TRACE_CAPACITY)
    with layers.recording(tracer, "setup"):
        inputs = workload.setup(seed, workdir)
    gate.check("setup", workload.setup_check(inputs))
    op = workload.inprocess_op or workload.op
    gate.output(workload, inputs, op(inputs))  # untimed warm-up

    variants = {
        "plain": nullcontext,
        "wrapped": lambda: layers.recording(tracer, "op"),
        "traced": lambda: RunContext(trace=True).activate(),
    }
    times: Dict[str, List[float]] = {name: [] for name in variants}
    deadline = time.perf_counter() + seconds
    while not times["traced"] or time.perf_counter() < deadline:
        for name, context in variants.items():
            with context():
                start = time.perf_counter()
                out = op(inputs)
                times[name].append(time.perf_counter() - start)
            gate.output(workload, inputs, out)

    records = tracer.records()
    fired = {r["name"] for r in records if r.get("type") == "span"}
    gate.check("wrappers restored", [f"{t} still wrapped" for t in layers.leaks()])
    gate.check(
        "declared spans", [f"{s} never fired" for s in workload.spans if s not in fired]
    )
    gate.check(
        "trace buffer", [f"{tracer.dropped} records dropped"] if tracer.dropped else []
    )
    gate.golden(workload.name, seed)
    tracer.write(str(trace_path))

    n = len(times["wrapped"])
    metrics: Metrics = {
        name: (value, n)
        for name, value in layer_metrics(records, layers, n).items()
    }
    plain = statistics.median(times["plain"])
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(times["wrapped"]) / plain, n
    )
    metrics["obs.tracer_overhead_ratio"] = (
        statistics.median(times["traced"]) / plain, n
    )
    metrics["cli.import_s"] = _import_seconds(workload.import_probe)
    return metrics, gate


__all__ = ["GOLDEN", "Gate", "Metrics", "measure", "measure_traced"]
