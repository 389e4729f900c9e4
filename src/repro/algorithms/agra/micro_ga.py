"""AGRA's per-object micro-GA (Section 5).

Each chromosome is a bit-string of length ``M``: bit ``i`` set means site
``i`` holds a replica of the one object under adaptation.  The micro-GA
optimises the *unconstrained* per-object NTC ``V_k`` (the storage
constraint is deliberately ignored — violations are repaired later during
transcription), with fitness ``f_A = (V_prime - V_k) / V_prime`` against
the primary-only placement.

Design choices from the paper, all implemented here: regular sampling
space (offspring plus untouched parents — not the enlarged ``mu+lambda``
pool of GRA), stochastic remainder selection, single-point crossover with
equal left/right probability, plain bit-flip mutation (primary bit
protected), elitism, negative-fitness chromosomes reset to primary-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.gra.operators import single_point_crossover
from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.core.cost import CostModel
from repro.core.fitness import fitness_from_costs
from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator


@dataclass
class MicroGAResult:
    """Ranked replica columns for one object, best first."""

    obj: int
    columns: List[np.ndarray]  # boolean (M,) columns, fitness-descending
    fitnesses: List[float]
    generations: int
    evaluations: int

    @property
    def best_column(self) -> np.ndarray:
        return self.columns[0]

    @property
    def best_fitness(self) -> float:
        return self.fitnesses[0]


def _primary_only_column(instance: DRPInstance, obj: int) -> np.ndarray:
    column = np.zeros(instance.num_sites, dtype=bool)
    column[int(instance.primaries[obj])] = True
    return column


def run_micro_ga(
    instance: DRPInstance,
    model: CostModel,
    obj: int,
    current_column: np.ndarray,
    seed_columns: Sequence[np.ndarray] = (),
    params: AGRAParams = PAPER_AGRA_PARAMS,
    rng: SeedLike = None,
) -> MicroGAResult:
    """Evolve replica placements for a single object.

    Parameters
    ----------
    obj:
        The object whose R/W pattern changed.
    current_column:
        The object's column in the network's current replication scheme;
        always copied into the initial population (the paper incorporates
        it into the highest-fitness GRA solution).
    seed_columns:
        Columns extracted from previous GRA solutions; fills the
        non-random half of the initial population (cycled if fewer than
        needed).

    The population and each generation's pool are ``(P, M)`` boolean
    stacks, each priced by one :meth:`CostModel.object_costs_batch`
    call.
    """
    gen = as_generator(rng)
    m = instance.num_sites
    primary = int(instance.primaries[obj])
    current_column = np.asarray(current_column, dtype=bool)
    if current_column.shape != (m,):
        raise ValidationError(
            f"current_column must have shape ({m},), got {current_column.shape}"
        )
    if not current_column[primary]:
        raise ValidationError(
            f"current_column must include the primary site {primary}"
        )

    v_prime = model.primary_only_object_cost(obj)
    evaluations = 0

    def price(columns: np.ndarray) -> np.ndarray:
        """Fitness of every row, with the paper's negative reset.

        A row with negative fitness is reset in place to the
        primary-only column, with fitness 0.
        """
        nonlocal evaluations
        evaluations += len(columns)
        costs = model.object_costs_batch(obj, columns)
        fitness = np.empty(len(columns))
        for i, cost in enumerate(costs.tolist()):
            f = fitness_from_costs(v_prime, cost)
            if f < 0.0:
                f = 0.0
                columns[i] = _primary_only_column(instance, obj)
            fitness[i] = f
        return fitness

    # ------------------------------------------------------------------ #
    # initial population: half random, half from previous GRA solutions,
    # current scheme always present.
    # ------------------------------------------------------------------ #
    pop_size = params.population_size
    num_random = int(round(params.random_init_fraction * pop_size))
    initial: List[np.ndarray] = []
    for _ in range(num_random):
        column = gen.random(m) < 0.5
        column[primary] = True
        initial.append(column)
    seeds = [np.asarray(c, dtype=bool) for c in seed_columns]
    idx = 0
    while len(initial) < pop_size:
        if seeds:
            column = seeds[idx % len(seeds)].copy()
            idx += 1
        else:
            column = gen.random(m) < 0.5
        column[primary] = True
        initial.append(column)
    initial[-1] = current_column
    population = np.stack(initial)
    fitness = price(population)

    elite_idx = int(np.argmax(fitness))
    elite_f = float(fitness[elite_idx])
    elite = population[elite_idx].copy()

    # ------------------------------------------------------------------ #
    # generations
    # ------------------------------------------------------------------ #
    for generation in range(params.generations):
        # Crossover: random pairing; untouched parents pass through
        # (regular sampling space), so pool row ``pos`` starts as a copy
        # of parent ``order[pos]``.
        order = gen.permutation(pop_size)
        pool = population[order]
        for pos in range(0, pop_size - 1, 2):
            if gen.random() < params.crossover_rate:
                pool[pos], pool[pos + 1] = single_point_crossover(
                    m, pool[pos], pool[pos + 1], gen
                )
                pool[pos : pos + 2, primary] = True

        # Mutation: bit flips on the pool, primary bit protected.  One
        # (P, M) draw is the same stream as one length-M draw per row.
        if params.mutation_rate > 0.0:
            flips = gen.random(pool.shape) < params.mutation_rate
            flips[:, primary] = False
            pool ^= flips

        pool_fitness = price(pool)
        chosen = stochastic_remainder_selection(pool_fitness, pop_size, gen)
        population = pool[chosen]
        fitness = pool_fitness[chosen]

        best_idx = int(np.argmax(fitness))
        if fitness[best_idx] > elite_f:
            elite_f = float(fitness[best_idx])
            elite = population[best_idx].copy()
        if (generation + 1) % params.elite_interval == 0:
            worst = int(np.argmin(fitness))
            population[worst] = elite
            fitness[worst] = elite_f

    # Guarantee the elite is in the final ranking.
    if elite_f > fitness.max():
        worst = int(np.argmin(fitness))
        population[worst] = elite
        fitness[worst] = elite_f

    # Stable descending sort: equal fitnesses keep their population order.
    ranked = np.argsort(-fitness, kind="stable")
    return MicroGAResult(
        obj=obj,
        columns=list(population[ranked]),
        fitnesses=fitness[ranked].tolist(),
        generations=params.generations,
        evaluations=evaluations,
    )


__all__ = ["MicroGAResult", "run_micro_ga"]
