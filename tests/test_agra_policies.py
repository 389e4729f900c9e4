"""The Fig. 4 adaptation policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AGRAParams, GAParams, GRA
from repro.algorithms.agra.policies import (
    POLICY_KINDS,
    POLICY_NAMES,
    run_adaptation,
    run_policy,
)
from repro.core import CostModel
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, apply_pattern_change, generate_instance
from repro.workload.mutation import detect_changed_objects

FAST_GRA = GAParams(population_size=8, generations=5)
FAST_AGRA = AGRAParams(population_size=6, generations=8)


@pytest.fixture(scope="module")
def scenario():
    instance = generate_instance(
        WorkloadSpec(num_sites=10, num_objects=16, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=95,
    )
    gra = GRA(FAST_GRA, rng=96)
    result, population = gra.run_with_population(instance)
    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 1.0, rng=97)
    changed = detect_changed_objects(instance, drifted)
    seeds = [member.matrix for member in population.members]
    return instance, result, seeds, drifted, changed


def test_current_policy_matches_direct_evaluation(scenario):
    _, static_result, _, drifted, _ = scenario
    outcome = run_policy("Current", drifted, static_result.scheme)
    expected = CostModel(drifted).savings_percent(static_result.scheme)
    assert outcome.savings_percent == pytest.approx(expected)
    assert outcome.policy == "Current"


def test_unknown_policy_rejected(scenario):
    _, static_result, _, drifted, _ = scenario
    with pytest.raises(ValidationError):
        run_policy("Magic", drifted, static_result.scheme)
    with pytest.raises(ValidationError):
        run_adaptation("magic", drifted, static_result.scheme)


def test_run_adaptation_kinds(scenario):
    _, static_result, seeds, drifted, changed = scenario
    for kind, generations in (
        ("current", 0),
        ("agra", 0),
        ("agra", 3),
        ("current+gra", 4),
        ("fresh-gra", 4),
    ):
        outcome = run_adaptation(
            kind,
            drifted,
            static_result.scheme,
            generations=generations,
            changed_objects=changed,
            seed_matrices=seeds,
            gra_params=FAST_GRA,
            agra_params=FAST_AGRA,
            rng=5,
        )
        assert outcome.savings_percent <= 100.0
        if kind != "current":
            assert outcome.result is not None
            assert outcome.result.scheme.is_valid()


def test_negative_generations_rejected(scenario):
    _, static_result, _, drifted, _ = scenario
    with pytest.raises(ValidationError):
        run_adaptation(
            "fresh-gra", drifted, static_result.scheme, generations=-1
        )


def test_labels_flow_through(scenario):
    _, static_result, seeds, drifted, changed = scenario
    outcome = run_adaptation(
        "agra",
        drifted,
        static_result.scheme,
        generations=0,
        changed_objects=changed,
        seed_matrices=seeds,
        gra_params=FAST_GRA,
        agra_params=FAST_AGRA,
        rng=6,
        label="Current + AGRA",
    )
    assert outcome.policy == "Current + AGRA"


def test_policy_names_canonical():
    assert POLICY_NAMES[0] == "Current"
    assert "150 GRA" in POLICY_NAMES
    assert set(POLICY_KINDS) == {
        "current", "agra", "current+gra", "fresh-gra"
    }


def test_agra_policies_beat_current(scenario):
    _, static_result, seeds, drifted, changed = scenario
    current = run_adaptation(
        "current", drifted, static_result.scheme, rng=1
    )
    agra = run_adaptation(
        "agra",
        drifted,
        static_result.scheme,
        changed_objects=changed,
        seed_matrices=seeds,
        gra_params=FAST_GRA,
        agra_params=FAST_AGRA,
        rng=2,
    )
    # reads surged for 30% of objects: adaptation must recover savings
    assert agra.savings_percent >= current.savings_percent
