"""Batched population evaluation equals the sequential evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.gra.encoding import random_valid_chromosome
from repro.core import CostModel
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
        assert np.allclose(batch, sequential)


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


def test_batch_robust_to_unique_inverse_shape(
    small_instance, rng, monkeypatch
):
    """Regression: NumPy 2.1 returned ``return_inverse`` with an extra
    axis under ``axis=0`` (shape ``(P, 1)`` instead of ``(P,)``), which
    silently broke ``unique_costs[inverse]``.  Simulate that shape and
    assert the batch path still returns a flat, correct result."""
    real_unique = np.unique

    def unique_with_column_inverse(ar, *args, **kwargs):
        out = real_unique(ar, *args, **kwargs)
        if kwargs.get("return_inverse") and kwargs.get("axis") is not None:
            uniq, inverse = out
            return uniq, inverse.reshape(-1, 1)
        return out

    monkeypatch.setattr(np, "unique", unique_with_column_inverse)
    model = CostModel(small_instance, cache_size=0)
    mats = random_matrices(small_instance, rng)
    columns = np.stack([m[:, 0] for m in mats])
    batch = model.object_costs_batch(0, columns)
    assert batch.shape == (columns.shape[0],)
    sequential = [model.object_cost(0, c) for c in columns]
    assert np.allclose(batch, sequential)


def test_batch_flat_inverse_still_works(small_instance, rng):
    """The flat (NumPy 1.x / 2.2+) inverse shape stays correct too."""
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=5)
    columns = np.stack([m[:, 1] for m in mats] + [mats[0][:, 1]])
    batch = model.object_costs_batch(1, columns)
    assert batch.shape == (columns.shape[0],)
    assert batch[-1] == batch[0]  # duplicate rows share one price
