"""Stochastic remainder selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.errors import ValidationError


def test_deterministic_integer_parts():
    # fitness 3:1 over 4 slots -> expected copies 3 and 1 exactly
    rng = np.random.default_rng(1)
    fitness = np.array([3.0, 1.0])
    for _ in range(10):
        chosen = stochastic_remainder_selection(fitness, 4, rng)
        counts = np.bincount(chosen, minlength=2)
        assert counts[0] == 3
        assert counts[1] == 1


def test_expected_proportions():
    rng = np.random.default_rng(2)
    fitness = np.array([0.5, 0.3, 0.2])
    totals = np.zeros(3)
    trials = 400
    for _ in range(trials):
        chosen = stochastic_remainder_selection(fitness, 10, rng)
        totals += np.bincount(chosen, minlength=3)
    proportions = totals / (10 * trials)
    assert np.allclose(proportions, fitness, atol=0.02)


def test_all_zero_fitness_uniform():
    rng = np.random.default_rng(3)
    chosen = stochastic_remainder_selection(np.zeros(5), 100, rng)
    assert len(chosen) == 100
    assert set(chosen) == {0, 1, 2, 3, 4}


def test_count_zero():
    rng = np.random.default_rng(4)
    assert len(stochastic_remainder_selection(np.ones(3), 0, rng)) == 0


def test_selects_exactly_count():
    rng = np.random.default_rng(5)
    fitness = np.array([0.9, 0.05, 0.05])
    for count in (1, 3, 7, 20):
        assert len(
            stochastic_remainder_selection(fitness, count, rng)
        ) == count


def test_dominant_chromosome_dominates():
    rng = np.random.default_rng(6)
    fitness = np.array([1000.0, 1.0, 1.0])
    chosen = stochastic_remainder_selection(fitness, 10, rng)
    assert np.bincount(chosen, minlength=3)[0] >= 9


def test_negative_fitness_rejected():
    rng = np.random.default_rng(7)
    with pytest.raises(ValidationError):
        stochastic_remainder_selection(np.array([1.0, -1.0]), 2, rng)


def test_empty_pool_rejected():
    rng = np.random.default_rng(8)
    with pytest.raises(ValidationError):
        stochastic_remainder_selection(np.array([]), 2, rng)


def test_stochastic_remainder_lower_variance_than_roulette():
    # the paper's stated motivation: smaller sampling error than
    # Holland's plain roulette wheel, drawn here with rng.choice
    rng = np.random.default_rng(11)
    fitness = np.array([0.5, 0.5])
    sr_counts, rl_counts = [], []
    for _ in range(300):
        sr = stochastic_remainder_selection(fitness, 10, rng)
        rl = rng.choice(fitness.size, size=10, p=fitness)
        sr_counts.append(np.bincount(sr, minlength=2)[0])
        rl_counts.append(np.bincount(rl, minlength=2)[0])
    assert np.var(sr_counts) < np.var(rl_counts)
