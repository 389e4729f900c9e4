"""GA parameter sensitivity sweeps.

Section 4 settles on ``N_p=50, N_g=80, mu_c=0.9, mu_m=0.01`` "after
considering a series of experimental results" and cites Grefenstette's
classic ranges.  This module reruns that series on demand: sweep any
:class:`~repro.algorithms.gra.GAParams` field over a value grid, holding
everything else at the given base configuration, and report mean savings
and runtime per value with confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams
from repro.analysis.statistics import SummaryStats, summarize
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.tables import format_table

#: GAParams fields that can be swept
SWEEPABLE_FIELDS = (
    "population_size",
    "generations",
    "crossover_rate",
    "mutation_rate",
    "elite_interval",
    "perturbed_fraction",
    "perturbation_share",
)


@dataclass
class SensitivityResult:
    """Savings/runtime per value of one swept GA parameter."""

    parameter: str
    values: List[object]
    savings: Dict[object, SummaryStats]
    runtimes: Dict[object, SummaryStats]
    base_params: GAParams

    def best_value(self) -> object:
        return max(self.values, key=lambda v: self.savings[v].mean)

    def render(self, precision: int = 3) -> str:
        rows = [
            [
                value,
                self.savings[value].mean,
                self.savings[value].ci_low,
                self.savings[value].ci_high,
                self.runtimes[value].mean,
            ]
            for value in self.values
        ]
        return format_table(
            [self.parameter, "savings %", "CI low", "CI high", "seconds"],
            rows,
            precision=precision,
            title=f"GRA sensitivity to {self.parameter}",
        )


def sweep_ga_parameter(
    instances: Sequence[DRPInstance],
    parameter: str,
    values: Sequence[object],
    base_params: GAParams = GAParams(),
    seed: SeedLike = None,
    confidence: float = 0.95,
) -> SensitivityResult:
    """Run GRA at each parameter value over the shared instances."""
    if parameter not in SWEEPABLE_FIELDS:
        raise ValidationError(
            f"cannot sweep {parameter!r}; choose from {SWEEPABLE_FIELDS}"
        )
    if not instances:
        raise ValidationError("need at least one instance")
    if not values:
        raise ValidationError("need at least one value")
    savings: Dict[object, List[float]] = {v: [] for v in values}
    runtimes: Dict[object, List[float]] = {v: [] for v in values}
    run_seeds = spawn_seeds(seed, len(instances) * len(values))
    idx = 0
    for instance in instances:
        model = CostModel(instance)
        for value in values:
            params = base_params.with_overrides(**{parameter: value})
            result = GRA(params, rng=run_seeds[idx]).run(instance, model)
            idx += 1
            savings[value].append(result.savings_percent)
            runtimes[value].append(result.runtime_seconds)
    return SensitivityResult(
        parameter=parameter,
        values=list(values),
        savings={
            v: summarize(vals, confidence) for v, vals in savings.items()
        },
        runtimes={
            v: summarize(vals, confidence) for v, vals in runtimes.items()
        },
        base_params=base_params,
    )


__all__ = ["SWEEPABLE_FIELDS", "SensitivityResult", "sweep_ga_parameter"]
