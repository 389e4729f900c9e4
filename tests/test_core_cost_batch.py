"""Batched population evaluation equals the sequential evaluator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.gra.encoding import random_valid_chromosome
from repro.core import CostModel
from repro.core.cost import unique_packed_rows
from repro.errors import ValidationError


def random_matrices(instance, rng, count=7):
    return [
        random_valid_chromosome(instance, rng, fill=float(f))
        for f, _ in zip(np.linspace(0.1, 1.0, count), range(count))
    ]


def test_batch_object_costs_match_sequential(small_instance, rng):
    model = CostModel(small_instance, cache_size=0)
    mats = random_matrices(small_instance, rng)
    for obj in range(small_instance.num_objects):
        columns = np.stack([m[:, obj] for m in mats])
        batch = model.object_costs_batch(obj, columns)
        sequential = [model.object_cost(obj, c) for c in columns]
        assert batch.tolist() == sequential


def test_population_costs_match_total_cost(small_instance, rng):
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng)
    batch = model.population_costs(mats)
    sequential = [model.total_cost(m) for m in mats]
    assert np.allclose(batch, sequential)


def test_batch_with_duplicates(small_instance, rng):
    model = CostModel(small_instance)
    base = random_valid_chromosome(small_instance, rng)
    mats = [base, base.copy(), base.copy()]
    costs = model.population_costs(mats)
    assert np.allclose(costs, costs[0])


def test_batch_uses_and_fills_cache(small_instance, rng):
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=3)
    model.population_costs(mats)
    filled = model.cache_info()["entries"]
    assert filled > 0
    # a second pass must not grow the cache (every column is cached)
    model.population_costs(mats)
    assert model.cache_info()["entries"] == filled


def test_batch_empty_population(small_instance):
    model = CostModel(small_instance)
    assert model.population_costs([]).shape == (0,)


def test_batch_shape_validation(small_instance):
    model = CostModel(small_instance)
    with pytest.raises(ValidationError):
        model.object_costs_batch(0, np.zeros((2, 3), dtype=bool))


@st.composite
def bool_stacks(draw):
    """A ``(P, M)`` bool stack whose rows repeat a small pool of columns."""
    m = draw(st.integers(1, 70))
    pool = draw(
        st.lists(
            st.lists(st.booleans(), min_size=m, max_size=m),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks], dtype=bool).reshape(len(picks), m)


@settings(max_examples=200, deadline=None)
@given(bool_stacks())
@example(np.array([[True, False, True]]))  # P = 1 skips the dedup
@example(np.zeros((5, 13), dtype=bool))  # all rows equal, M % 8 != 0
@example(np.eye(16, dtype=bool)[::-1])  # M % 8 == 0, rows out of order
def test_packed_dedup_matches_unique_axis0(columns):
    """The packed-row dedup yields ``np.unique(axis=0)``'s distinct rows,
    in its order, with its inverse — and each row's packed bytes are its
    memo-cache key."""
    packed, first, inverse = unique_packed_rows(columns)
    unique, ref_inverse = np.unique(columns, axis=0, return_inverse=True)
    assert np.array_equal(columns[first], unique)
    assert inverse.shape == (columns.shape[0],)
    assert np.array_equal(inverse, np.asarray(ref_inverse).reshape(-1))
    # ``first`` points at each distinct row's first occurrence
    assert [int(np.argmax(inverse == u)) for u in range(len(first))] == list(first)
    for row, bits in zip(packed, columns):
        assert row.tobytes() == np.packbits(bits).tobytes()


def test_batch_probes_each_distinct_row_once(small_instance, rng):
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=4)
    columns = np.stack([m[:, 0] for m in mats + mats + mats[:1]])
    distinct = np.unique(columns, axis=0).shape[0]
    for expected_hits in (0, distinct):  # cold cache, then warm
        before = model.cache_info()
        model.object_costs_batch(0, columns)
        after = model.cache_info()
        probes = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert probes == distinct
        assert after["hits"] - before["hits"] == expected_hits


def test_batch_flat_inverse_still_works(small_instance, rng):
    """Duplicate rows of one stack share one price, in input order."""
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=5)
    columns = np.stack([m[:, 1] for m in mats] + [mats[0][:, 1]])
    batch = model.object_costs_batch(1, columns)
    assert batch.shape == (columns.shape[0],)
    assert batch[-1] == batch[0]  # duplicate rows share one price
