"""Head-to-head algorithm comparison on shared instances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.analysis.statistics import SummaryStats, summarize
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.metrics import current_metrics
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.tables import format_table

#: factory signature: given a per-run seed, build a fresh algorithm
AlgorithmFactory = Callable[[np.random.SeedSequence], ReplicationAlgorithm]


@dataclass
class ComparisonReport:
    """Per-algorithm summary statistics over a shared instance set."""

    savings: Dict[str, SummaryStats]
    runtimes: Dict[str, SummaryStats]
    replicas: Dict[str, SummaryStats]
    instances: int

    def best_algorithm(self) -> str:
        """Label with the highest mean savings."""
        return max(self.savings, key=lambda k: self.savings[k].mean)

    def render(self, precision: int = 3) -> str:
        rows = [
            [
                label,
                self.savings[label].mean,
                self.savings[label].ci_low,
                self.savings[label].ci_high,
                self.replicas[label].mean,
                self.runtimes[label].mean,
            ]
            for label in self.savings
        ]
        return format_table(
            ["algorithm", "savings %", "CI low", "CI high", "replicas",
             "seconds"],
            rows,
            precision=precision,
            title=f"Algorithm comparison over {self.instances} instances",
        )


def compare_algorithms(
    instances: Sequence[DRPInstance],
    factories: Dict[str, AlgorithmFactory],
    seed: SeedLike = None,
    confidence: float = 0.95,
) -> ComparisonReport:
    """Run every algorithm on every instance; summarise with CIs.

    All algorithms see the same instances (paired design); each run gets
    an independent child seed so stochastic algorithms are honestly
    re-randomised per instance.
    """
    if not instances:
        raise ValidationError("need at least one instance")
    if not factories:
        raise ValidationError("need at least one algorithm factory")
    savings: Dict[str, List[float]] = {label: [] for label in factories}
    runtimes: Dict[str, List[float]] = {label: [] for label in factories}
    replicas: Dict[str, List[float]] = {label: [] for label in factories}
    run_seeds = spawn_seeds(seed, len(instances) * len(factories))
    idx = 0
    for instance in instances:
        # picks up cache counters/timers when a --metrics registry is live
        model = CostModel(instance, metrics=current_metrics())
        for label, factory in factories.items():
            algorithm = factory(run_seeds[idx])
            idx += 1
            result = algorithm.run(instance, model)
            savings[label].append(result.savings_percent)
            runtimes[label].append(result.runtime_seconds)
            replicas[label].append(float(result.extra_replicas))
    return ComparisonReport(
        savings={
            label: summarize(vals, confidence)
            for label, vals in savings.items()
        },
        runtimes={
            label: summarize(vals, confidence)
            for label, vals in runtimes.items()
        },
        replicas={
            label: summarize(vals, confidence)
            for label, vals in replicas.items()
        },
        instances=len(instances),
    )


__all__ = ["AlgorithmFactory", "ComparisonReport", "compare_algorithms"]
