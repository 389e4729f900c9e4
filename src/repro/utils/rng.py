"""Deterministic random-number utilities.

Every stochastic component in this library accepts either a seed or a
ready-made :class:`numpy.random.Generator`.  Experiments need *independent*
streams per network instance and per algorithm run; we derive those with
:class:`numpy.random.SeedSequence` spawning, which guarantees statistically
independent child streams from a single master seed.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.errors import ValidationError

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def _checked(seed: SeedLike) -> SeedLike:
    """``seed`` unchanged, or :class:`ValidationError` if a negative int."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a sequence of
    integers, a :class:`~numpy.random.SeedSequence` or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked(seed))


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent seed sequences from ``seed``.

    If ``seed`` is already a generator its bit-generator's seed sequence is
    reused, so spawning from the same generator object twice yields
    *different* children (the generator tracks spawn state).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(_checked(seed))
    return list(seq.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from ``seed``."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_seeds",
    "spawn_generators",
]
