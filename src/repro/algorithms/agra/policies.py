"""The adaptation policies compared in Figures 4(a)-(d).

Legend labels from the paper, verbatim:

* ``Current`` — keep the stale static scheme, just re-evaluate it under
  the new patterns;
* ``Current + AGRA`` — AGRA stand-alone (transcription only);
* ``AGRA + 5 GRA`` / ``AGRA + 10 GRA`` — AGRA followed by a mini-GRA of
  5 / 10 generations;
* ``Current + 80 GRA`` / ``Current + 150 GRA`` — plain GRA for 80 / 150
  generations whose initial population is built around the current
  scheme;
* ``150 GRA`` — plain GRA for 150 generations with a population generated
  from scratch (SRA-seeded, as in Section 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.algorithms.agra.engine import AGRA
from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.base import AlgorithmResult
from repro.algorithms.gra.encoding import perturb_chromosome
from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams, PAPER_PARAMS
from repro.algorithms.gra.population import Chromosome, Population
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

POLICY_NAMES = (
    "Current",
    "Current + AGRA",
    "AGRA + 5 GRA",
    "AGRA + 10 GRA",
    "Current + 80 GRA",
    "Current + 150 GRA",
    "150 GRA",
)


@dataclass
class AdaptationOutcome:
    """Result of one adaptation policy on a drifted instance."""

    policy: str
    savings_percent: float
    runtime_seconds: float
    result: Optional[AlgorithmResult] = None


def _current_population(
    instance: DRPInstance,
    model: CostModel,
    current_scheme: ReplicationScheme,
    seed_matrices: Sequence[np.ndarray],
    gra_params: GAParams,
    rng: np.random.Generator,
) -> Population:
    """A GRA population built around the currently deployed scheme."""
    members = [Chromosome(current_scheme.matrix.copy())]
    for matrix in seed_matrices:
        if len(members) >= gra_params.population_size:
            break
        members.append(Chromosome(np.asarray(matrix, dtype=bool).copy()))
    while len(members) < gra_params.population_size:
        members.append(
            Chromosome(
                perturb_chromosome(
                    instance,
                    current_scheme.matrix,
                    gra_params.perturbation_share,
                    rng,
                )
            )
        )
    population = Population(instance, model, members)
    population.evaluate_all()
    return population


#: the four policy families; Fig. 4's legends are instances of these
POLICY_KINDS = ("current", "agra", "current+gra", "fresh-gra")


def run_adaptation(
    kind: str,
    instance: DRPInstance,
    current_scheme: ReplicationScheme,
    generations: int = 0,
    changed_objects: Sequence[int] = (),
    seed_matrices: Sequence[np.ndarray] = (),
    gra_params: GAParams = PAPER_PARAMS,
    agra_params: AGRAParams = PAPER_AGRA_PARAMS,
    rng: SeedLike = None,
    update_fraction: float = 1.0,
    label: Optional[str] = None,
) -> AdaptationOutcome:
    """Run one adaptation policy family with an explicit generation budget.

    ``kind`` selects the family:

    * ``"current"`` — evaluate ``current_scheme`` under the new patterns;
    * ``"agra"`` — AGRA with ``generations`` mini-GRA generations (0 =
      stand-alone transcription);
    * ``"current+gra"`` — plain GRA for ``generations`` generations from a
      population built around the current scheme;
    * ``"fresh-gra"`` — plain GRA for ``generations`` generations from a
      from-scratch (SRA-seeded) population.
    """
    if kind not in POLICY_KINDS:
        raise ValidationError(
            f"unknown policy kind {kind!r}; choose from {POLICY_KINDS}"
        )
    if generations < 0:
        raise ValidationError(
            f"generations must be >= 0, got {generations}"
        )
    gen = as_generator(rng)
    model = CostModel(instance, update_fraction=update_fraction)
    label = label or kind

    if kind == "current":
        start = time.perf_counter()
        savings = model.savings_percent(current_scheme)
        return AdaptationOutcome(
            label, savings, time.perf_counter() - start
        )

    if kind == "agra":
        agra = AGRA(
            params=agra_params,
            gra_params=gra_params,
            rng=gen,
            update_fraction=update_fraction,
        )
        result = agra.adapt(
            instance,
            current_scheme,
            changed_objects=changed_objects,
            seed_matrices=seed_matrices,
            mini_gra_generations=generations,
        )
        return AdaptationOutcome(
            label, result.savings_percent, result.runtime_seconds, result
        )

    if kind == "current+gra":
        start = time.perf_counter()
        gra = GRA(
            params=gra_params,
            rng=gen,
            update_fraction=update_fraction,
        )
        population = _current_population(
            instance, model, current_scheme, seed_matrices, gra_params,
            gen,
        )
        gra.evolve(population, generations)
        best = population.best_scheme()
        elapsed = time.perf_counter() - start
        return AdaptationOutcome(
            label,
            model.savings_percent(best),
            elapsed,
            AlgorithmResult(
                scheme=best,
                total_cost=model.total_cost(best),
                d_prime=model.d_prime(),
                runtime_seconds=elapsed,
                algorithm=label,
            ),
        )

    # "fresh-gra": from-scratch population.
    gra = GRA(
        params=gra_params.with_overrides(generations=generations),
        rng=gen,
        update_fraction=update_fraction,
    )
    result = gra.run(instance, model)
    result.algorithm = label
    return AdaptationOutcome(
        label, result.savings_percent, result.runtime_seconds, result
    )


def run_policy(
    policy: str,
    instance: DRPInstance,
    current_scheme: ReplicationScheme,
    changed_objects: Sequence[int] = (),
    seed_matrices: Sequence[np.ndarray] = (),
    gra_params: GAParams = PAPER_PARAMS,
    agra_params: AGRAParams = PAPER_AGRA_PARAMS,
    rng: SeedLike = None,
    update_fraction: float = 1.0,
) -> AdaptationOutcome:
    """Execute one Fig. 4 policy (paper's legend labels) verbatim.

    ``instance`` carries the *new* (drifted) patterns; ``current_scheme``
    is the scheme the static algorithm computed for the old patterns;
    ``seed_matrices`` is the final population of the original GRA run
    (used by the AGRA policies, ignored by the rest).
    """
    kinds = {
        "Current": ("current", 0),
        "Current + AGRA": ("agra", 0),
        "AGRA + 5 GRA": ("agra", 5),
        "AGRA + 10 GRA": ("agra", 10),
        "Current + 80 GRA": ("current+gra", 80),
        "Current + 150 GRA": ("current+gra", 150),
        "150 GRA": ("fresh-gra", 150),
    }
    if policy not in kinds:
        raise ValidationError(
            f"unknown policy {policy!r}; choose from {POLICY_NAMES}"
        )
    kind, generations = kinds[policy]
    return run_adaptation(
        kind,
        instance,
        current_scheme,
        generations=generations,
        changed_objects=changed_objects,
        seed_matrices=seed_matrices,
        gra_params=gra_params,
        agra_params=agra_params,
        rng=rng,
        update_fraction=update_fraction,
        label=policy,
    )


__all__ = [
    "POLICY_KINDS",
    "run_adaptation",
    "POLICY_NAMES",
    "AdaptationOutcome",
    "run_policy",
]
