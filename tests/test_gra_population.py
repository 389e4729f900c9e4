"""Population container: evaluation, reset rule, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.gra.encoding import random_valid_chromosome
from repro.algorithms.gra.population import (
    Chromosome,
    Population,
    primary_only_matrix,
)
from repro.core import CostModel
from repro.errors import ValidationError


def make_population(instance, model, rng, size=5):
    members = [
        Chromosome(random_valid_chromosome(instance, rng))
        for _ in range(size)
    ]
    return Population(instance, model, members)


def test_evaluation_fills_fitness(small_instance, small_model, rng):
    pop = make_population(small_instance, small_model, rng)
    pop.evaluate_all()
    for member in pop:
        assert member.fitness is not None
        assert member.cost is not None
        assert 0.0 <= member.fitness <= 1.0


def test_fitness_matches_cost_model(small_instance, small_model, rng):
    pop = make_population(small_instance, small_model, rng)
    pop.evaluate_all()
    d_prime = small_model.d_prime()
    for member in pop:
        if member.fitness > 0.0:
            expected = (d_prime - member.cost) / d_prime
            assert member.fitness == pytest.approx(expected)


def test_negative_fitness_reset_to_primary_only(manual_instance):
    model = CostModel(manual_instance)
    # a deliberately terrible chromosome: replicate the update-heavy
    # object everywhere after making writes dominate
    heavy = manual_instance.with_patterns(
        writes=manual_instance.writes + 100.0
    )
    heavy_model = CostModel(heavy)
    bad = primary_only_matrix(heavy)
    bad[:, :] = False
    bad[heavy.primaries, np.arange(heavy.num_objects)] = True
    bad[2, 1] = True  # extra replica of a heavily-updated object
    pop = Population(heavy, heavy_model, [Chromosome(bad)])
    member = pop.members[0]
    pop.evaluate_all()
    assert member.fitness == 0.0
    assert np.array_equal(member.matrix, primary_only_matrix(heavy))


def test_best_and_worst(small_instance, small_model, rng):
    pop = make_population(small_instance, small_model, rng, size=6)
    best = pop.best()
    fitness = pop.fitness_array()
    assert best.fitness == pytest.approx(float(fitness.max()))
    assert fitness[pop.worst_index()] == pytest.approx(float(fitness.min()))


def test_best_scheme_valid(small_instance, small_model, rng):
    pop = make_population(small_instance, small_model, rng)
    scheme = pop.best_scheme()
    assert scheme.is_valid()


def test_empty_population_raises(small_instance, small_model):
    pop = Population(small_instance, small_model, [])
    with pytest.raises(ValidationError):
        pop.best()
    with pytest.raises(ValidationError):
        pop.worst_index()


def test_evaluation_deduplicates(small_instance, small_model, rng):
    matrix = random_valid_chromosome(small_instance, rng)
    members = [Chromosome(matrix.copy()) for _ in range(4)]
    pop = Population(small_instance, small_model, members)
    pop.evaluate_all()
    assert pop.evaluations == 1  # identical placements computed once


def test_diversity(small_instance, small_model, rng):
    matrix = random_valid_chromosome(small_instance, rng)
    same = Population(
        small_instance,
        small_model,
        [Chromosome(matrix.copy()) for _ in range(4)],
    )
    assert same.diversity() == pytest.approx(0.25)
    varied = make_population(small_instance, small_model, rng, size=4)
    assert varied.diversity() >= same.diversity()


def test_chromosome_copy_independent(small_instance, rng):
    a = Chromosome(random_valid_chromosome(small_instance, rng))
    b = a.copy()
    b.matrix[0, 0] = not b.matrix[0, 0]
    assert not np.array_equal(a.matrix, b.matrix)


def test_mean_fitness(small_instance, small_model, rng):
    pop = make_population(small_instance, small_model, rng)
    mean = pop.mean_fitness()
    assert mean == pytest.approx(float(pop.fitness_array().mean()))
