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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.gra.operators import single_point_crossover
from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.core.cost import CostModel
from repro.core.fitness import fitness_from_costs
from repro.core.incremental import ObjectColumnState
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

    Every chromosome carries an
    :class:`~repro.core.incremental.ObjectColumnState`.  Pass-through
    (un-crossed, possibly mutated) pool members are priced as delta
    chains off a clone of their parent's state; crossover children mix
    two parents and get a fresh state.
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

    def fitness_of(
        column: np.ndarray,
        state: ObjectColumnState,
    ) -> Tuple[float, np.ndarray, Optional[ObjectColumnState]]:
        """Fitness with the paper's negative reset to primary-only.

        The column is priced by chaining ``state``'s two-nearest
        structure to it.  A negative-fitness reset discards the state —
        it described the pre-reset column.
        """
        nonlocal evaluations
        evaluations += 1
        f = fitness_from_costs(v_prime, state.evaluate(column))
        if f < 0.0:
            return 0.0, _primary_only_column(instance, obj), None
        return f, column, state

    # ------------------------------------------------------------------ #
    # initial population: half random, half from previous GRA solutions,
    # current scheme always present.
    # ------------------------------------------------------------------ #
    pop_size = params.population_size
    num_random = int(round(params.random_init_fraction * pop_size))
    population: List[np.ndarray] = []
    for _ in range(num_random):
        column = gen.random(m) < 0.5
        column[primary] = True
        population.append(column)
    seeds = [np.asarray(c, dtype=bool).copy() for c in seed_columns]
    idx = 0
    while len(population) < pop_size:
        if seeds:
            column = seeds[idx % len(seeds)].copy()
            idx += 1
        else:
            column = gen.random(m) < 0.5
        column[primary] = True
        population.append(column)
    population[-1] = current_column.copy()

    fitness: List[float] = []
    states: List[Optional[ObjectColumnState]] = []
    for i, column in enumerate(population):
        f, column, state = fitness_of(
            column, ObjectColumnState(model, obj, column)
        )
        population[i] = column
        fitness.append(f)
        states.append(state)

    elite_f = max(fitness)
    elite_idx = int(np.argmax(fitness))
    elite = population[elite_idx].copy()
    elite_state = states[elite_idx]

    # ------------------------------------------------------------------ #
    # generations
    # ------------------------------------------------------------------ #
    for generation in range(params.generations):
        # Crossover: random pairing; untouched parents pass through
        # (regular sampling space).  Pass-through members remember their
        # parent slot so evaluation can delta-chain off its column state;
        # crossover children mix two parents and are priced fresh.
        order = gen.permutation(pop_size)
        pool: List[np.ndarray] = []
        pool_parents: List[Optional[int]] = []
        for pos in range(0, pop_size - 1, 2):
            ia = int(order[pos])
            ib = int(order[pos + 1])
            a = population[ia]
            b = population[ib]
            if gen.random() < params.crossover_rate:
                child_a, child_b = single_point_crossover(m, a, b, gen)
                child_a[primary] = True
                child_b[primary] = True
                pool.append(child_a)
                pool.append(child_b)
                pool_parents.extend((None, None))
            else:
                pool.append(a.copy())
                pool.append(b.copy())
                pool_parents.extend((ia, ib))
        if pop_size % 2 == 1:
            ia = int(order[-1])
            pool.append(population[ia].copy())
            pool_parents.append(ia)

        # Mutation: in-place bit flips on the pool, primary bit protected.
        if params.mutation_rate > 0.0:
            for column in pool:
                flips = gen.random(m) < params.mutation_rate
                flips[primary] = False
                column[flips] = ~column[flips]

        pool_fitness: List[float] = []
        pool_states: List[Optional[ObjectColumnState]] = []
        for i, column in enumerate(pool):
            parent_idx = pool_parents[i]
            if parent_idx is not None and states[parent_idx] is not None:
                # Chain: clone the parent's state (selection shares state
                # objects between slots) and apply the diff.
                state = states[parent_idx].clone()
            else:
                state = ObjectColumnState(model, obj, column)
            f, column, state = fitness_of(column, state)
            pool[i] = column
            pool_fitness.append(f)
            pool_states.append(state)

        chosen = stochastic_remainder_selection(
            np.asarray(pool_fitness), pop_size, gen
        )
        population = [pool[i].copy() for i in chosen]
        fitness = [pool_fitness[i] for i in chosen]
        states = [pool_states[i] for i in chosen]

        best_idx = int(np.argmax(fitness))
        if fitness[best_idx] > elite_f:
            elite_f = fitness[best_idx]
            elite = population[best_idx].copy()
            elite_state = states[best_idx]
        if (generation + 1) % params.elite_interval == 0:
            worst = int(np.argmin(fitness))
            population[worst] = elite.copy()
            fitness[worst] = elite_f
            states[worst] = elite_state

    # Guarantee the elite is in the final ranking.
    if elite_f > max(fitness):
        worst = int(np.argmin(fitness))
        population[worst] = elite.copy()
        fitness[worst] = elite_f

    ranked = sorted(
        zip(fitness, population), key=lambda item: item[0], reverse=True
    )
    return MicroGAResult(
        obj=obj,
        columns=[column for _, column in ranked],
        fitnesses=[f for f, _ in ranked],
        generations=params.generations,
        evaluations=evaluations,
    )


__all__ = ["MicroGAResult", "run_micro_ga"]
