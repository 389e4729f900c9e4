"""The GRA engine: initialisation, evolution, paper-expected dominance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import GAParams, GRA, SRA
from repro.core import CostModel
from repro.workload import WorkloadSpec, generate_instance
from tests.conftest import traffic_at_primaries

FAST = GAParams(population_size=10, generations=8)


def test_result_valid_and_packaged(small_instance):
    result = GRA(FAST, rng=1).run(small_instance)
    assert result.scheme.is_valid()
    assert result.algorithm == "GRA"
    assert 0.0 <= result.fitness <= 1.0
    assert result.stats["generations"] == 8
    assert len(result.stats.history("best_fitness")) == 9


def test_deterministic_per_seed(small_instance):
    a = GRA(FAST, rng=5).run(small_instance)
    b = GRA(FAST, rng=5).run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)
    assert a.total_cost == pytest.approx(b.total_cost)


def test_best_fitness_history_monotone(small_instance):
    result = GRA(FAST, rng=2).run(small_instance)
    history = result.stats.history("best_fitness")
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


def test_stats_single_source_with_deprecated_history_keys(small_instance):
    """Convergence lives only in convergence_records; the removed
    ``*_fitness_history`` keys are plain missing keys."""
    stats = GRA(FAST, rng=6).run(small_instance).stats
    assert "best_fitness_history" not in stats.keys()
    assert "mean_fitness_history" not in stats.keys()
    records = stats["convergence_records"]
    with pytest.raises(KeyError):
        stats["best_fitness_history"]
    assert stats.history("best_fitness") == [
        r["best_fitness"] for r in records
    ]
    assert stats.history("mean_fitness") == [
        r["mean_fitness"] for r in records
    ]
    with pytest.raises(KeyError):
        stats["no_such_key"]


def test_initial_population_valid_and_sized(small_instance):
    gra = GRA(FAST, rng=3)
    model = CostModel(small_instance)
    population = gra.build_initial_population(small_instance, model)
    assert len(population) == FAST.population_size
    for member in population:
        assert member.fitness is not None
        assert member.fitness >= 0.0


def test_never_worse_than_primary_only(medium_instance):
    result = GRA(FAST, rng=4).run(medium_instance)
    assert result.savings_percent >= 0.0


def test_gra_at_least_matches_sra(medium_instance):
    model = CostModel(medium_instance)
    sra = SRA().run(medium_instance, model)
    gra = GRA(
        GAParams(population_size=16, generations=15), rng=6
    ).run(medium_instance, model)
    # GRA is seeded with SRA solutions plus elitism, so it can only match
    # or improve the greedy result.
    assert gra.total_cost <= sra.total_cost * 1.02


def test_zero_generations_returns_seeded_best(small_instance):
    params = GAParams(population_size=8, generations=0)
    result = GRA(params, rng=7).run(small_instance)
    assert result.scheme.is_valid()
    assert result.stats["generations"] == 0


def test_random_init_variant(small_instance):
    params = FAST.with_overrides(seeded_init=False)
    result = GRA(params, rng=8).run(small_instance)
    assert result.scheme.is_valid()
    assert result.stats["seeded_init"] is False


def test_simple_selection_variant(small_instance):
    params = FAST.with_overrides(selection="simple")
    result = GRA(params, rng=9).run(small_instance)
    assert result.scheme.is_valid()
    assert result.stats["selection"] == "simple"


def test_no_elitism_variant(small_instance):
    params = FAST.with_overrides(elitism=False)
    result = GRA(params, rng=10).run(small_instance)
    assert result.scheme.is_valid()


def test_run_with_population(small_instance):
    gra = GRA(FAST, rng=11)
    result, population = gra.run_with_population(small_instance)
    assert len(population) == FAST.population_size
    best = population.best()
    assert result.total_cost == pytest.approx(
        CostModel(small_instance).total_cost(best.matrix)
    )


def test_write_heavy_instance_stays_primary_only(manual_instance):
    heavy = manual_instance.with_patterns(
        writes=manual_instance.writes + 1000.0
    )
    result = GRA(FAST, rng=12).run(heavy)
    # replication can only hurt: the GA must settle on (near) zero extras
    assert result.savings_percent == pytest.approx(0.0, abs=1e-9)
    assert result.extra_replicas == 0


@pytest.mark.parametrize("seed", range(5))
def test_zero_d_prime_resets_to_primary_only(seed):
    """With all traffic at the primaries ``D' = 0``: any extra replica
    costs update traffic, scores ``-inf`` and is reset, so GRA returns a
    zero-cost scheme."""
    instance = traffic_at_primaries(
        generate_instance(
            WorkloadSpec(num_sites=8, num_objects=10, update_ratio=0.1,
                         capacity_ratio=0.3),
            rng=5,
        ),
        range(10),
    )
    assert CostModel(instance).d_prime() == 0.0
    result = GRA(GAParams(population_size=10, generations=5), rng=seed).run(
        instance
    )
    assert result.total_cost == 0.0
    assert result.savings_percent == 0.0
