"""Deterministic RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.rng import as_generator, spawn_generators, spawn_seeds


def test_as_generator_accepts_int_seed():
    a = as_generator(7)
    b = as_generator(7)
    assert a.random() == b.random()


def test_as_generator_passes_generators_through():
    gen = np.random.default_rng(1)
    assert as_generator(gen) is gen


def test_as_generator_accepts_seed_sequence():
    seq = np.random.SeedSequence(5)
    a = as_generator(seq)
    assert isinstance(a, np.random.Generator)


def test_spawn_seeds_deterministic():
    a = spawn_seeds(42, 3)
    b = spawn_seeds(42, 3)
    assert [s.entropy for s in a] == [s.entropy for s in b]
    assert len(a) == 3


def test_spawn_seeds_independent_streams():
    gens = spawn_generators(42, 2)
    assert gens[0].random() != gens[1].random()


def test_spawn_seeds_negative_count_rejected():
    with pytest.raises(ValueError):
        spawn_seeds(1, -1)


@pytest.mark.parametrize("seed", [-1, np.int64(-7)])
@pytest.mark.parametrize("derive", [as_generator, lambda s: spawn_seeds(s, 2)])
def test_negative_seed_rejected(seed, derive):
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        derive(seed)


def test_spawn_from_generator_advances():
    gen = np.random.default_rng(9)
    first = spawn_seeds(gen, 1)[0]
    second = spawn_seeds(gen, 1)[0]
    assert first.spawn_key != second.spawn_key

