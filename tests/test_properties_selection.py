"""Property-based invariants of stochastic remainder selection."""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.errors import ValidationError

SETTINGS = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------------- #
# reference: the roulette loop over ``rng.choice`` that the inline wheel
# replaced; the production function must pick the same indices and
# consume the same stream
# --------------------------------------------------------------------- #
def reference_weighted_choice(
    weights: np.ndarray, rng: np.random.Generator
) -> int:
    """Roulette-wheel pick proportional to ``weights`` via ``rng.choice``.

    Falls back to a uniform pick when every weight is zero.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = float(weights.sum())
    if total <= 0.0:
        return int(rng.integers(weights.size))
    return int(rng.choice(weights.size, p=weights / total))


def reference_selection(
    fitness: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic remainder selection, one Python pick at a time."""
    fitness = np.asarray(fitness, dtype=float)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    total = float(fitness.sum())
    if total <= 0.0:
        return rng.integers(fitness.size, size=count).astype(np.int64)
    expected = count * fitness / total
    integral = np.floor(expected).astype(np.int64)
    selected: List[int] = []
    for idx, copies in enumerate(integral):
        selected.extend([idx] * int(copies))
    fractional = expected - integral
    for _ in range(count - len(selected)):
        winner = reference_weighted_choice(fractional, rng)
        selected.append(winner)
        fractional[winner] = 0.0
        if fractional.sum() <= 0.0:
            fractional = expected - integral  # refill an exhausted wheel
    out = np.asarray(selected[:count], dtype=np.int64)
    rng.shuffle(out)
    return out


def test_reference_weighted_choice_respects_weights():
    rng = np.random.default_rng(2)
    weights = np.array([0.0, 1.0, 0.0])
    assert all(
        reference_weighted_choice(weights, rng) == 1 for _ in range(20)
    )


def test_reference_weighted_choice_zero_weights_uniform():
    rng = np.random.default_rng(3)
    picks = {reference_weighted_choice(np.zeros(4), rng) for _ in range(200)}
    assert picks == {0, 1, 2, 3}


def test_reference_weighted_choice_rejects_negative():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        reference_weighted_choice(np.array([1.0, -0.5]), rng)


def test_reference_weighted_choice_rejects_empty():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        reference_weighted_choice(np.array([]), rng)


#: fitness pools: arbitrary floats, pools with zero sectors, integral
#: values (whose wheel may hold only the integer parts) and all-zero pools
fitness_pools = st.one_of(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
    st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
        min_size=1, max_size=12,
    ),
    st.lists(st.integers(0, 5).map(float), min_size=1, max_size=12),
    st.integers(1, 12).map(lambda size: [0.0] * size),
)


@settings(max_examples=300, deadline=None)
@given(fitness_pools, st.integers(0, 30), st.integers(0, 2**32 - 1))
# an all-zero pool: uniform draws
@example([0.0, 0.0, 0.0], 5, 0)
# expected copies 12.999999999999998: one spin empties the wheel, which
# then refills
@example([0.7497859477666411], 13, 1)
# count == 0 draws nothing
@example([1.0, 2.0], 0, 2)
# integral-only fitness: expected copies 3 and 1, no spin at all
@example([3.0, 1.0], 4, 3)
def test_selection_matches_reference_stream(fitness_list, count, seed):
    fitness = np.asarray(fitness_list)
    got_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = stochastic_remainder_selection(fitness, count, got_rng)
    want = reference_selection(fitness, count, ref_rng)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize(
    "fitness, match",
    [
        ([0.5, np.nan, 0.2], "finite"),
        ([0.5, np.inf, 0.2], "finite"),
        ([0.5, -np.inf, 0.2], "finite"),
        # a finite pool whose expected copies overflow
        ([1e308, 1e307, 0.2], "overflows"),
    ],
    ids=["nan", "inf", "-inf", "overflow"],
)
def test_unusable_fitness_rejected_before_any_draw(fitness, match):
    rng = np.random.default_rng(9)
    untouched = np.random.default_rng(9)
    with pytest.raises(ValidationError, match=match):
        stochastic_remainder_selection(np.array(fitness), 3, rng)
    assert rng.random() == untouched.random()


@SETTINGS
@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
    st.integers(0, 30),
    st.integers(0, 2**16),
)
def test_count_and_floor_guarantee(fitness_list, count, seed):
    fitness = np.asarray(fitness_list)
    rng = np.random.default_rng(seed)
    chosen = stochastic_remainder_selection(fitness, count, rng)
    assert len(chosen) == count
    assert np.all(chosen >= 0)
    assert np.all(chosen < len(fitness))
    total = fitness.sum()
    if total > 0:
        counts = np.bincount(chosen, minlength=len(fitness))
        expected = count * fitness / total
        # deterministic floor guarantee of stochastic remainder sampling
        assert np.all(counts >= np.floor(expected) - 1e-9)
        # and never more than one above the ceiling
        assert np.all(counts <= np.ceil(expected) + count)


@SETTINGS
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**16))
def test_uniform_fitness_near_uniform_selection(size, count, seed):
    fitness = np.ones(size)
    rng = np.random.default_rng(seed)
    chosen = stochastic_remainder_selection(fitness, count, rng)
    counts = np.bincount(chosen, minlength=size)
    # equal fitness: everyone gets floor(count/size) at least
    assert np.all(counts >= count // size - 1)


@SETTINGS
@given(st.integers(2, 12), st.integers(1, 20), st.integers(0, 2**16))
def test_zero_fitness_members_only_picked_when_all_zero(size, count, seed):
    fitness = np.zeros(size)
    fitness[0] = 5.0
    rng = np.random.default_rng(seed)
    chosen = stochastic_remainder_selection(fitness, count, rng)
    assert np.all(chosen == 0)
