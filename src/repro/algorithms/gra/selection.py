"""Selection mechanisms (Section 4, "Selection mechanism").

The paper replaces Holland's pure roulette wheel (large sampling error)
with the **stochastic remainder** technique: each chromosome first gets
the integer part of its proportionate offspring count deterministically,
then the fractional parts compete on a roulette wheel for the remaining
slots.  GRA applies it over an **enlarged sampling space** — the
``(mu + lambda)`` pool of parents plus crossover and mutation offspring —
while AGRA uses a regular sampling space for speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def stochastic_remainder_selection(
    fitness: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Select ``count`` indices from the pool proportionally to ``fitness``.

    Expected copies of chromosome ``i`` are exactly
    ``count * f_i / sum(f)``: the integer parts are allocated
    deterministically, the fractional parts via roulette *without*
    replacement of a wheel sector once it wins (classic stochastic
    remainder sampling).  An all-zero fitness pool degenerates to uniform
    random selection.

    Each wheel spin draws one ``rng.random()`` and inverts the wheel's
    normalised cumulative sum, the draw and the arithmetic of
    ``rng.choice(n, p=w / w.sum())``, so a seed picks the same indices
    and leaves the generator in the same state.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.ndim != 1 or fitness.size == 0:
        raise ValidationError("fitness must be a non-empty 1-D array")
    if not np.all(np.isfinite(fitness)):
        raise ValidationError("fitness must be finite (no NaN or infinity)")
    if np.any(fitness < 0):
        raise ValidationError(
            "fitness must be non-negative (reset negative chromosomes first)"
        )
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)

    total = float(fitness.sum())
    if total <= 0.0:
        return rng.integers(fitness.size, size=count).astype(np.int64)

    with np.errstate(over="ignore", invalid="ignore"):
        expected = count * fitness / total
    if not np.all(np.isfinite(expected)):
        raise ValidationError(
            f"fitness too large: {count} x fitness overflows a float"
        )
    integral = np.floor(expected).astype(np.int64)
    selected = np.repeat(np.arange(fitness.size, dtype=np.int64), integral)

    winners = []
    fractional = expected - integral
    for _ in range(count - selected.size):
        wheel = fractional.sum()
        if wheel <= 0.0:
            winner = int(rng.integers(fitness.size))
        else:
            cdf = (fractional / wheel).cumsum()
            cdf /= cdf[-1]
            winner = int(cdf.searchsorted(rng.random(), side="right"))
        winners.append(winner)
        fractional[winner] = 0.0
        if fractional.sum() <= 0.0:
            fractional = expected - integral  # refill an exhausted wheel
    out = np.concatenate([selected, np.asarray(winners, dtype=np.int64)])
    out = out[:count]
    rng.shuffle(out)
    return out


__all__ = ["stochastic_remainder_selection"]
