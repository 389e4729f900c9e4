"""The six benchmark workloads.

Each workload turns ``--seed`` into inputs (its set-up), runs one timed
operation on them, and checks what the operation returned.  The program
only ever receives the generated inputs.  Every workload is a batch
closed loop: one caller issues the next operation when the previous one
has returned; nothing in this repository serves requests as they arrive.

Calls go through module attributes (``generator.generate_instance``, not
a name imported from it) so the traced run's wrappers in
:mod:`bench.layers` see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.algorithms import sra
from repro.algorithms.agra import AGRAParams
from repro.algorithms.gra import GAParams
from repro.algorithms.gra import engine as gra_engine
from repro.core.cost import CostModel
from repro.distributed import sra_protocol
from repro.distributed.retry import RetryPolicy
from repro.errors import ReproError
from repro.experiments import scale
from repro.io import persistence
from repro.sim import adaptive, protocol
from repro.sim.faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
    PartitionWindow,
)
from repro.workload import WorkloadSpec, generator, mutation
from repro.workload import trace as trace_mod

SRC = Path(repro.__file__).resolve().parent.parent

#: the replay fault plan: a crash, a degraded link and a partition
STORM_PLAN = FaultPlan(
    crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
    degradations=(LinkDegradation(src=0, dst=2, factor=4.0, start=0.1, end=0.9),),
    partitions=(PartitionWindow(group=(3,), start=0.4, end=0.6),),
    seed=9,
)

#: the CI causal-smoke chaos plan: a crash plus lossy, duplicating links
CHAOS_PLAN = FaultPlan(
    crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
    messages=MessageFaultSpec(loss=0.1, duplicate=0.05),
    seed=9,
)


@dataclass(frozen=True)
class Workload:
    """Set-up, timed operation and output checks of one workload.

    ``spans`` must each fire at least once in a traced run.
    ``inprocess_op`` replaces ``op`` in traced runs when ``op`` leaves
    the process (wrappers cannot reach a child).  ``import_probe`` names
    a module whose fresh-interpreter import time a traced run reports.
    """

    name: str
    setup: Callable[[int, Path], object]
    op: Callable[[object], object]
    check: Callable[[object, object], List[str]]
    digest: Callable[[object], str]
    spans: Tuple[str, ...]
    setup_check: Callable[[object], List[str]] = lambda inputs: []
    inprocess_op: Optional[Callable[[object], object]] = None
    import_probe: Optional[str] = None
    rss_of_children: bool = False


def _seeds(seed: int, count: int) -> List[int]:
    """Independent integer seeds derived from the workload seed."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def sha256(*parts: object) -> str:
    """Digest of byte strings and ``repr``s of everything else."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def scheme_problems(scheme) -> List[str]:
    try:
        scheme.validate()
    except ReproError as exc:
        return [f"invalid scheme: {exc}"]
    return []


def cost_problems(cost: float, d_prime: float) -> List[str]:
    """A solved scheme must not cost more than primary-only: ``D <= D'``."""
    return [] if cost <= d_prime else [f"cost {cost!r} exceeds D' {d_prime!r}"]


def result_problems(inputs, result) -> List[str]:
    """Invariants of an algorithm result: valid scheme, ``D <= D'``."""
    return scheme_problems(result.scheme) + cost_problems(
        result.total_cost, result.d_prime
    )


def result_digest(result) -> str:
    return sha256(
        result.scheme.matrix.tobytes(), result.total_cost, result.d_prime
    )


# --------------------------------------------------------------------- #
# scale-sra: the sparse SRA scan at the ROADMAP medium tier
# --------------------------------------------------------------------- #
def _scale_setup(seed: int, workdir: Path):
    m, n = scale.SCALE_TIERS["medium"]
    return scale.generate_scale_problem(scale.ScaleSpec(m, n), rng=seed)


def _scale_op(problem):
    return sra.SRA().run(problem)


# --------------------------------------------------------------------- #
# gra-dense: the GA over the cost kernel and its LRU cache
# --------------------------------------------------------------------- #
def _gra_setup(seed: int, workdir: Path):
    instance_seed, ga_seed = _seeds(seed, 2)
    spec = WorkloadSpec(30, 80, update_ratio=0.05, capacity_ratio=0.15)
    return generator.generate_instance(spec, rng=instance_seed), ga_seed


def _gra_op(inputs):
    instance, ga_seed = inputs
    return gra_engine.GRA(GAParams(16, 16), rng=ga_seed).run(instance)


# --------------------------------------------------------------------- #
# adaptive-agra: the Section 5 monitor loop
# --------------------------------------------------------------------- #
@dataclass
class _Adaptive:
    base: object
    scheme: object
    seed_matrices: List[np.ndarray]
    epochs: List[object]
    loop_seed: int


ADAPTIVE_EPOCHS = 6


def _adaptive_setup(seed: int, workdir: Path) -> _Adaptive:
    instance_seed, night_seed, loop_seed, *drift_seeds = _seeds(
        seed, 3 + ADAPTIVE_EPOCHS // 2
    )
    spec = WorkloadSpec(16, 40, update_ratio=0.05, capacity_ratio=0.15)
    base = generator.generate_instance(spec, rng=instance_seed)
    night, population = gra_engine.GRA(
        GAParams(20, 20), rng=night_seed
    ).run_with_population(base)
    # A new drift every two epochs, alternating read and write storms;
    # drift 0 is the night estimate itself.
    drifts = [base]
    for j in range(1, ADAPTIVE_EPOCHS // 2):
        read_share = 1.0 if j % 2 else 0.0
        drifted, _ = mutation.apply_pattern_change(
            base, 6.0, 0.2, read_share, rng=drift_seeds[j]
        )
        drifts.append(drifted)
    return _Adaptive(
        base=base,
        scheme=night.scheme,
        seed_matrices=[member.matrix.copy() for member in population.members],
        epochs=[drifts[i // 2] for i in range(ADAPTIVE_EPOCHS)],
        loop_seed=loop_seed,
    )


def _adaptive_op(x: _Adaptive):
    loop = adaptive.AdaptiveReplicationLoop(
        x.base,
        x.scheme,
        threshold=0.5,
        mini_gra_generations=5,
        agra_params=AGRAParams(10, 25),
        gra_params=GAParams(20, 20),
        seed_matrices=x.seed_matrices,
        rng=x.loop_seed,
    )
    return loop.run(x.epochs)


def _adaptive_check(x: _Adaptive, report) -> List[str]:
    problems = scheme_problems(report.final_scheme)
    if report.adaptations < 1:
        problems.append("no drift triggered an adaptation")
    if not all(math.isfinite(s) for s in report.savings_series()):
        problems.append("non-finite epoch savings")
    return problems


def _adaptive_digest(report) -> str:
    return sha256(
        report.final_scheme.matrix.tobytes(),
        [
            (e.savings_percent, e.measured_ntc, e.adapted, e.migrations,
             tuple(e.changed_objects))
            for e in report.epochs
        ],
    )


# --------------------------------------------------------------------- #
# sim-write-storm: fault-injected replay of a write-heavy trace
# --------------------------------------------------------------------- #
@dataclass
class _Storm:
    instance: object
    scheme: object
    trace: list


def _storm_setup(seed: int, workdir: Path) -> _Storm:
    instance_seed, storm_seed, trace_seed = _seeds(seed, 3)
    spec = WorkloadSpec(40, 120, update_ratio=0.05, capacity_ratio=0.15)
    base = generator.generate_instance(spec, rng=instance_seed)
    scheme = sra.SRA().run(base).scheme
    # every object's writes grow tenfold against a read-tuned scheme
    storm, _ = mutation.apply_pattern_change(base, 9.0, 1.0, 0.0, rng=storm_seed)
    return _Storm(storm, scheme, trace_mod.generate_trace(storm, rng=trace_seed))


def _storm_op(x: _Storm):
    system = protocol.ReplicaSystem(x.instance, x.scheme)
    return system.replay(x.trace, injector=FaultInjector(STORM_PLAN))


def _storm_setup_check(x: _Storm) -> List[str]:
    """A fault-free replay must measure exactly the analytic ``D(X)``."""
    problems = scheme_problems(x.scheme)
    measured = protocol.ReplicaSystem(x.instance, x.scheme).replay(x.trace)
    analytic = CostModel(x.instance).total_cost(x.scheme)
    if measured.request_ntc != analytic:
        problems.append(
            f"fault-free replay NTC {measured.request_ntc!r} != D(X) {analytic!r}"
        )
    return problems


def _storm_check(x: _Storm, metrics) -> List[str]:
    problems = []
    if metrics.transfers <= 0:
        problems.append("replay made no transfers")
    if metrics.rejected_reads + metrics.rejected_writes <= 0:
        problems.append("the fault plan rejected no request")
    return problems


def _storm_digest(metrics) -> str:
    return sha256(sorted(metrics.summary().items()), metrics.ntc_by_site.tobytes())


# --------------------------------------------------------------------- #
# dsra-chaos: the distributed protocol under message faults
# --------------------------------------------------------------------- #
def _dsra_setup(seed: int, workdir: Path):
    # Ample storage keeps the replica count, and so the message volume,
    # nearly the same from seed to seed.
    spec = WorkloadSpec(40, 200, update_ratio=0.01, capacity_ratio=2.0)
    return generator.generate_instance(spec, rng=seed)


def _dsra_op(instance):
    # Five attempts per send: with the default three, about a sixth of the
    # sites exhaust their retries and are retired, and how many varies by
    # seed, which makes the work done vary with it.
    return sra_protocol.DistributedSRA(
        fault_plan=CHAOS_PLAN, retry=RetryPolicy(max_attempts=5)
    ).run(instance)


def _dsra_check(instance, report) -> List[str]:
    model = CostModel(instance)
    return scheme_problems(report.scheme) + cost_problems(
        model.total_cost(report.scheme), model.d_prime()
    )


def _dsra_digest(report) -> str:
    return sha256(
        report.scheme.matrix.tobytes(),
        sorted(report.summary().items()),
        report.leader_history,
    )


# --------------------------------------------------------------------- #
# cli-solve: what one `repro solve` invocation costs its user
# --------------------------------------------------------------------- #
@dataclass
class _Cli:
    instance_path: Path
    scheme_path: Path

    @property
    def argv(self) -> List[str]:
        return [
            "solve", str(self.instance_path), "--algorithm", "sra",
            "--save-scheme", str(self.scheme_path),
        ]


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    scheme_path: Path
    scheme_bytes: bytes


def _cli_setup(seed: int, workdir: Path) -> _Cli:
    spec = WorkloadSpec(20, 40, update_ratio=0.05, capacity_ratio=0.15)
    instance = generator.generate_instance(spec, rng=seed)
    path = persistence.save_instance(instance, workdir / "instance.json")
    return _Cli(path, workdir / "scheme.json")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _cli_output(x: _Cli, returncode: int, stdout: str) -> CliOutput:
    data = x.scheme_path.read_bytes() if x.scheme_path.exists() else b""
    return CliOutput(returncode, stdout, x.scheme_path, data)


def _cli_op(x: _Cli) -> CliOutput:
    x.scheme_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *x.argv],
        env=child_env(),
        cwd=x.scheme_path.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return _cli_output(x, proc.returncode, proc.stdout + proc.stderr)


def _cli_inprocess(x: _Cli) -> CliOutput:
    # imported here: repro.cli pulls in scipy, which no other workload needs
    from repro import cli

    x.scheme_path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        returncode = cli.main(x.argv)
    return _cli_output(x, returncode, out.getvalue())


def _cost_line(stdout: str) -> str:
    return next(
        (line for line in stdout.splitlines() if line.startswith("D' = ")), ""
    )


def _cli_check(x: _Cli, out: CliOutput) -> List[str]:
    if out.returncode != 0:
        return [f"repro solve exited {out.returncode}: {out.stdout[-300:]}"]
    try:
        scheme = persistence.load_scheme(out.scheme_path)
    except (ReproError, OSError) as exc:
        return [f"saved scheme does not load: {exc}"]
    model = CostModel(scheme.instance)
    cost, d_prime = model.total_cost(scheme), model.d_prime()
    problems = scheme_problems(scheme) + cost_problems(cost, d_prime)
    expected = f"D' = {d_prime:,.2f}   D = {cost:,.2f}"
    if _cost_line(out.stdout) != expected:
        problems.append(f"printed {_cost_line(out.stdout)!r}, expected {expected!r}")
    return problems


def _cli_digest(out: CliOutput) -> str:
    return sha256(out.scheme_bytes, _cost_line(out.stdout))


# --------------------------------------------------------------------- #
_NETWORK = ("network.topology", "network.apsp", "workload.generate")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scale-sra", _scale_setup, _scale_op, result_problems, result_digest,
            (*_NETWORK, "algorithms.sra", "core.total_cost", "core.d_prime"),
        ),
        Workload(
            "gra-dense", _gra_setup, _gra_op, result_problems, result_digest,
            (*_NETWORK, "algorithms.gra", "algorithms.sra", "core.kernel",
             "core.population_costs", "core.total_cost", "core.d_prime"),
        ),
        Workload(
            "adaptive-agra", _adaptive_setup, _adaptive_op, _adaptive_check,
            _adaptive_digest,
            (*_NETWORK, "workload.mutate", "workload.trace", "algorithms.gra",
             "algorithms.agra.adapt", "core.kernel", "sim.replay", "sim.realize"),
        ),
        Workload(
            "sim-write-storm", _storm_setup, _storm_op, _storm_check, _storm_digest,
            (*_NETWORK, "algorithms.sra", "workload.mutate", "workload.trace",
             "sim.replay"),
            setup_check=_storm_setup_check,
        ),
        Workload(
            "dsra-chaos", _dsra_setup, _dsra_op, _dsra_check, _dsra_digest,
            (*_NETWORK, "distributed.run"),
        ),
        Workload(
            "cli-solve", _cli_setup, _cli_op, _cli_check, _cli_digest,
            (*_NETWORK, "cli.main", "io.load_instance", "io.save_scheme",
             "algorithms.sra", "core.total_cost"),
            inprocess_op=_cli_inprocess,
            import_probe="repro.cli",
            rss_of_children=True,
        ),
    )
}


__all__ = [
    "WORKLOADS",
    "Workload",
    "child_env",
    "result_digest",
    "result_problems",
    "sha256",
]
