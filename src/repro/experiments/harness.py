"""Instance-averaged algorithm runs (the paper averages over 15 networks).

For each data point the paper generates 15 networks and records the
average NTC savings, execution time and replica count.  The helpers here
do the same over any number of instances, with seeds derived
deterministically from one master seed so every figure is reproducible.

Runs fan out over worker processes when ``max_workers > 1`` (or when a
process-wide default is installed via
:func:`repro.experiments.parallel.configure` / ``$REPRO_PARALLEL``);
results are bit-identical to the serial loop because every task derives
the same :class:`numpy.random.SeedSequence` children — see
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmResult, ReplicationAlgorithm
from repro.core.cost import CostModel
from repro.errors import ValidationError
from repro.utils.metrics import MetricsRegistry, current_metrics
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.tracing import current_tracer
from repro.workload.generator import generate_instance
from repro.workload.spec import WorkloadSpec

#: factory signature: given a per-run seed, build a fresh algorithm
AlgorithmFactory = Callable[[np.random.SeedSequence], ReplicationAlgorithm]


@dataclass
class InstanceAverages:
    """Means over instances for one algorithm at one data point."""

    algorithm: str
    savings_percent: float
    extra_replicas: float
    runtime_seconds: float
    total_cost: float
    runs: int

    @classmethod
    def from_results(cls, results: Sequence[AlgorithmResult]) -> "InstanceAverages":
        if not results:
            raise ValidationError("cannot average zero results")
        return cls(
            algorithm=results[0].algorithm,
            savings_percent=float(
                np.mean([r.savings_percent for r in results])
            ),
            extra_replicas=float(np.mean([r.extra_replicas for r in results])),
            runtime_seconds=float(
                np.mean([r.runtime_seconds for r in results])
            ),
            total_cost=float(np.mean([r.total_cost for r in results])),
            runs=len(results),
        )


def average_static_runs(
    spec: WorkloadSpec,
    factories: Dict[str, AlgorithmFactory],
    instances: int,
    seed: SeedLike = None,
    max_workers: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, InstanceAverages]:
    """Run each algorithm on ``instances`` fresh networks; average metrics.

    Every algorithm sees the *same* sequence of instances (generated from
    per-instance child seeds), and gets its own independent RNG child per
    run, so comparisons are paired and reproducible.

    ``max_workers`` > 1 fans the (instance x algorithm) grid over worker
    processes via :class:`~repro.experiments.parallel.ParallelRunner`;
    ``None`` consults the process-wide default (serial unless configured).
    Results are bit-identical either way.  ``metrics``, when given (or
    when a global registry is enabled), receives cache counters and
    timers from every run, merged across workers.
    """
    from repro.experiments.parallel import ParallelRunner, resolve_max_workers

    if instances < 1:
        raise ValidationError(f"instances must be >= 1, got {instances}")
    workers = resolve_max_workers(max_workers)
    if workers > 1:
        return ParallelRunner(max_workers=workers).average_static_runs(
            spec, factories, instances, seed=seed, metrics=metrics
        )
    metrics = metrics if metrics is not None else current_metrics()
    tracer = current_tracer()
    results: Dict[str, List[AlgorithmResult]] = {
        label: [] for label in factories
    }
    instance_seeds = spawn_seeds(seed, instances)
    # Same span names as the parallel runner, so `repro trace` output
    # reads identically whether a sweep ran serially or fanned out.
    with tracer.span(
        "harness.average_static_runs",
        instances=instances,
        algorithms=len(factories),
        workers=1,
    ):
        for index, inst_seed in enumerate(instance_seeds):
            children = inst_seed.spawn(len(factories) + 1)
            instance = generate_instance(spec, rng=children[0])
            model = CostModel(instance, metrics=metrics)
            for (label, factory), algo_seed in zip(
                factories.items(), children[1:]
            ):
                algorithm = factory(algo_seed)
                with tracer.span(
                    "harness.task", label=label, instance=index
                ):
                    results[label].append(algorithm.run(instance, model))
    if metrics is not None:
        metrics.increment("harness.instances", instances)
        metrics.increment("harness.tasks", instances * len(factories))
    return {
        label: InstanceAverages.from_results(runs)
        for label, runs in results.items()
    }


def chaos_replay_runs(
    spec: WorkloadSpec,
    plan,
    instances: int,
    seed: SeedLike = None,
    max_workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """SRA schemes replayed under a fault plan on fresh networks.

    Thin dispatcher over
    :meth:`~repro.experiments.parallel.ParallelRunner.chaos_replay_runs`;
    worker-count resolution follows the same explicit > configured >
    ``$REPRO_PARALLEL`` > serial chain as :func:`average_static_runs`,
    and results are bit-identical for any worker count.
    """
    from repro.experiments.parallel import ParallelRunner

    return ParallelRunner(max_workers=max_workers).chaos_replay_runs(
        spec, plan, instances, seed=seed
    )


__all__ = [
    "AlgorithmFactory",
    "InstanceAverages",
    "average_static_runs",
    "chaos_replay_runs",
]
