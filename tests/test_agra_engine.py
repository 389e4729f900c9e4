"""The AGRA engine end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AGRA, AGRAParams, GAParams, GRA
from repro.core import CostModel, ReplicationScheme
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, generate_instance, apply_pattern_change
from repro.workload.mutation import detect_changed_objects
from tests.conftest import traffic_at_primaries

FAST_AGRA = AGRAParams(population_size=8, generations=10)
FAST_GRA = GAParams(population_size=10, generations=8)


@pytest.fixture(scope="module")
def scenario():
    """Instance, GRA scheme + population, drifted instance, changed objs."""
    instance = generate_instance(
        WorkloadSpec(num_sites=12, num_objects=25, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=91,
    )
    gra = GRA(FAST_GRA, rng=92)
    result, population = gra.run_with_population(instance)
    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 0.8, rng=93)
    changed = detect_changed_objects(instance, drifted)
    seeds = [member.matrix for member in population.members]
    return instance, result, seeds, drifted, changed


def test_adapt_returns_valid_scheme(scenario):
    _, static_result, seeds, drifted, changed = scenario
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=1)
    result = agra.adapt(
        drifted, static_result.scheme, changed, seed_matrices=seeds
    )
    assert result.scheme.is_valid()
    assert result.algorithm == "AGRA"
    assert result.stats["changed_objects"] == sorted(set(changed))
    assert result.stats["micro_evaluations"] > 0


def test_adapt_improves_on_stale_scheme(scenario):
    _, static_result, seeds, drifted, changed = scenario
    model = CostModel(drifted)
    stale = model.savings_percent(static_result.scheme)
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=2)
    result = agra.adapt(
        drifted, static_result.scheme, changed, seed_matrices=seeds
    )
    # the population always contains the stale scheme as a member, so
    # AGRA can never do worse
    assert result.savings_percent >= stale - 1e-9


def test_mini_gra_refinement_label(scenario):
    _, static_result, seeds, drifted, changed = scenario
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=3)
    result = agra.adapt(
        drifted, static_result.scheme, changed,
        seed_matrices=seeds, mini_gra_generations=5,
    )
    assert result.algorithm == "AGRA+5GRA"
    assert result.stats["mini_gra_generations"] == 5
    assert result.scheme.is_valid()


def test_adapt_without_seeds(scenario):
    _, static_result, _, drifted, changed = scenario
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=4)
    result = agra.adapt(drifted, static_result.scheme, changed)
    assert result.scheme.is_valid()


def test_adapt_no_changes_is_noop_quality(scenario):
    instance, static_result, seeds, _, _ = scenario
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=5)
    result = agra.adapt(
        instance, static_result.scheme, [], seed_matrices=seeds
    )
    model = CostModel(instance)
    assert result.savings_percent >= model.savings_percent(
        static_result.scheme
    ) - 1e-9


def test_adapt_validation(scenario):
    _, static_result, _, drifted, _ = scenario
    agra = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=6)
    with pytest.raises(ValidationError):
        agra.adapt(drifted, static_result.scheme, [999])
    with pytest.raises(ValidationError):
        agra.adapt(
            drifted, static_result.scheme, [0], mini_gra_generations=-1
        )


def test_deterministic(scenario):
    _, static_result, seeds, drifted, changed = scenario
    a = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=7).adapt(
        drifted, static_result.scheme, changed, seed_matrices=seeds
    )
    b = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=7).adapt(
        drifted, static_result.scheme, changed, seed_matrices=seeds
    )
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


@pytest.mark.parametrize("seed", range(10))
def test_zero_v_prime_object_keeps_zero_cost(seed):
    """An object read and written only at its primary has ``V'_k = 0``;
    the micro-GA must reset every costlier column to primary-only, so
    AGRA leaves the object at zero cost."""
    instance = traffic_at_primaries(
        generate_instance(
            WorkloadSpec(num_sites=8, num_objects=10, update_ratio=0.1,
                         capacity_ratio=0.3),
            rng=5,
        ),
        [3],
    )
    model = CostModel(instance)
    assert model.primary_only_object_cost(3) == 0.0
    current = GRA(FAST_GRA, rng=1).run(instance).scheme
    result = AGRA(FAST_AGRA, gra_params=FAST_GRA, rng=seed).adapt(
        instance, current, [3]
    )
    assert model.object_cost(3, result.scheme.matrix[:, 3]) == 0.0
