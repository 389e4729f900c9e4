"""Ablation studies of the design choices Section 4 and 5 argue for.

These are not figures of the paper; they quantify the paper's *design
rationale* with the same harness discipline (instance averaging, seeded
reproducibility):

* ``gra-design``   — GRA with each Section 4 design choice removed:
  random instead of SRA-seeded initialisation, simple (SGA) instead of
  ``(mu+lambda)`` selection, no elitism;
* ``write-penalty`` — SRA's Eq. 5 update term vs a read-only greedy as
  the update ratio grows;
* ``strategies``    — one placement under the three write/consistency
  strategies across update ratios;
* ``metaheuristics`` — SRA / hill climbing / simulated annealing / GRA
  head-to-head;
* ``hardening``     — the NTC premium of forcing >= 2 replicas per
  object, and the failure impact it buys down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms import (
    GRA,
    HillClimbing,
    ReadOnlyGreedy,
    SRA,
    SimulatedAnnealing,
)
from repro.core import CostModel
from repro.core.availability import expected_failure_impact, harden_scheme
from repro.core.strategies import WriteStrategy, total_cost
from repro.errors import ValidationError
from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.harness import average_static_runs
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table
from repro.workload.generator import generate_instance
from repro.workload.spec import WorkloadSpec

ABLATION_SEED = 31_000


@dataclass
class AblationResult:
    """A rendered-table-shaped result (categorical x axis)."""

    ablation_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    meta: Dict[str, object] = field(default_factory=dict)

    def render(self, precision: int = 3) -> str:
        return format_table(
            self.headers,
            self.rows,
            precision=precision,
            title=f"[{self.ablation_id}] {self.title}",
        )

    def column(self, header: str) -> List[object]:
        """One column by header name (for assertions in tests/benches)."""
        try:
            idx = self.headers.index(header)
        except ValueError:
            raise ValidationError(
                f"no column {header!r}; have {self.headers}"
            ) from None
        return [row[idx] for row in self.rows]


def _base_spec(profile: ScaleProfile, update_ratio: float = 0.05) -> WorkloadSpec:
    return WorkloadSpec(
        num_sites=profile.fig3a_num_sites,
        num_objects=profile.fig3a_num_objects,
        update_ratio=update_ratio,
        capacity_ratio=0.15,
    )


def ablate_gra_design(
    profile: Optional[ScaleProfile] = None, seed: int = ABLATION_SEED
) -> AblationResult:
    """Remove one Section 4 design choice at a time."""
    profile = profile or get_profile()
    factories = {
        "GRA (paper)": lambda s: GRA(params=profile.gra, rng=s),
        "random init": lambda s: GRA(
            params=profile.gra.with_overrides(seeded_init=False), rng=s
        ),
        "simple selection": lambda s: GRA(
            params=profile.gra.with_overrides(selection="simple"), rng=s
        ),
        "no elitism": lambda s: GRA(
            params=profile.gra.with_overrides(elitism=False), rng=s
        ),
    }
    averages = average_static_runs(
        _base_spec(profile), factories, profile.instances, seed=seed
    )
    rows = [
        [label, avg.savings_percent, avg.extra_replicas,
         avg.runtime_seconds]
        for label, avg in averages.items()
    ]
    return AblationResult(
        ablation_id="gra-design",
        title="GRA design choices ablated one at a time (U=5%, C=15%)",
        headers=["variant", "savings %", "replicas", "seconds"],
        rows=rows,
        meta={"profile": profile.name, "instances": profile.instances},
    )


def ablate_write_penalty(
    profile: Optional[ScaleProfile] = None, seed: int = ABLATION_SEED
) -> AblationResult:
    """Eq. 5's update term vs read-only greed across update ratios."""
    profile = profile or get_profile()
    rows = []
    for ratio in (0.02, 0.10, 0.20, 0.40):
        averages = average_static_runs(
            _base_spec(profile, update_ratio=ratio),
            {
                "SRA": lambda s: SRA(),
                "ReadOnlyGreedy": lambda s: ReadOnlyGreedy(),
            },
            profile.instances,
            seed=seed + int(ratio * 1000),
        )
        rows.append(
            [
                f"{ratio * 100:g}%",
                averages["SRA"].savings_percent,
                averages["ReadOnlyGreedy"].savings_percent,
            ]
        )
    return AblationResult(
        ablation_id="write-penalty",
        title="Eq. 5 update penalty vs read-only greed",
        headers=["update ratio", "SRA savings %", "read-only savings %"],
        rows=rows,
        meta={"profile": profile.name},
    )


def ablate_strategies(
    profile: Optional[ScaleProfile] = None, seed: int = ABLATION_SEED
) -> AblationResult:
    """One placement under three write strategies across update ratios."""
    profile = profile or get_profile()
    rows = []
    for ratio in (0.01, 0.05, 0.20):
        instance = generate_instance(
            _base_spec(profile, update_ratio=ratio), rng=seed
        )
        scheme = SRA().run(instance).scheme
        rows.append(
            [
                f"{ratio * 100:g}%",
                *(
                    total_cost(instance, scheme, strategy)
                    for strategy in WriteStrategy
                ),
            ]
        )
    return AblationResult(
        ablation_id="strategies",
        title="Same placement under three write strategies (analytic NTC)",
        headers=["update ratio", *(s.value for s in WriteStrategy)],
        rows=rows,
        meta={"profile": profile.name},
    )


def ablate_metaheuristics(
    profile: Optional[ScaleProfile] = None, seed: int = ABLATION_SEED
) -> AblationResult:
    """SRA / hill climbing / annealing / GRA on the same instances."""
    profile = profile or get_profile()
    factories = {
        "SRA": lambda s: SRA(),
        "HillClimbing": lambda s: HillClimbing(rng=s),
        "SimulatedAnnealing": lambda s: SimulatedAnnealing(
            steps=2000, rng=s
        ),
        "GRA": lambda s: GRA(params=profile.gra, rng=s),
    }
    averages = average_static_runs(
        _base_spec(profile), factories, profile.instances, seed=seed + 7
    )
    rows = [
        [label, avg.savings_percent, avg.extra_replicas,
         avg.runtime_seconds]
        for label, avg in averages.items()
    ]
    return AblationResult(
        ablation_id="metaheuristics",
        title="Metaheuristic comparators (U=5%, C=15%)",
        headers=["algorithm", "savings %", "replicas", "seconds"],
        rows=rows,
        meta={"profile": profile.name},
    )


def ablate_hardening(
    profile: Optional[ScaleProfile] = None, seed: int = ABLATION_SEED
) -> AblationResult:
    """What does >= 2 replicas per object cost, and what does it buy?"""
    profile = profile or get_profile()
    rows = []
    for gen_rng in spawn_generators(seed + 13, profile.instances):
        instance = generate_instance(
            _base_spec(profile).with_overrides(capacity_ratio=0.3),
            rng=gen_rng,
        )
        model = CostModel(instance)
        scheme = SRA().run(instance, model).scheme
        before = expected_failure_impact(instance, scheme)
        hardened = harden_scheme(instance, scheme, min_degree=2, model=model)
        after = expected_failure_impact(instance, hardened.scheme)
        premium = (
            100.0 * hardened.cost_premium / model.d_prime()
            if model.d_prime()
            else 0.0
        )
        rows.append(
            [
                hardened.added_replicas,
                premium,
                before["worst_lost_objects"],
                after["worst_lost_objects"],
                before["mean_degraded_percent"],
                after["mean_degraded_percent"],
            ]
        )
    mean_row = ["MEAN", *[
        float(np.mean([row[i] for row in rows])) for i in range(1, 6)
    ]]
    table_rows = [[f"net {i}", *row[1:]] for i, row in enumerate(rows)]
    table_rows.append(mean_row)
    return AblationResult(
        ablation_id="hardening",
        title="Cost and benefit of forcing >= 2 replicas per object",
        headers=[
            "network",
            "NTC premium %",
            "worst lost objs (before)",
            "worst lost objs (after)",
            "mean degraded % (before)",
            "mean degraded % (after)",
        ],
        rows=table_rows,
        meta={"profile": profile.name},
    )


#: registry used by the CLI and the benchmarks
ABLATIONS: Dict[str, Callable[..., AblationResult]] = {
    "gra-design": ablate_gra_design,
    "write-penalty": ablate_write_penalty,
    "strategies": ablate_strategies,
    "metaheuristics": ablate_metaheuristics,
    "hardening": ablate_hardening,
}


def run_ablation(
    ablation_id: str,
    profile: Optional[ScaleProfile] = None,
    seed: int = ABLATION_SEED,
) -> AblationResult:
    """Run one ablation by id."""
    try:
        fn = ABLATIONS[ablation_id]
    except KeyError:
        raise ValidationError(
            f"unknown ablation {ablation_id!r}; choose from "
            f"{sorted(ABLATIONS)}"
        ) from None
    return fn(profile, seed)


__all__ = [
    "AblationResult",
    "ABLATIONS",
    "run_ablation",
    "ablate_gra_design",
    "ablate_write_penalty",
    "ablate_strategies",
    "ablate_metaheuristics",
    "ablate_hardening",
]
