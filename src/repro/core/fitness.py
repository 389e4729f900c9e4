"""Normalised fitness and savings metrics (Section 4, "Fitness value f").

The GA fitness is ``f = (D_prime - D) / D_prime`` where ``D_prime`` is the
NTC of the primary-only allocation.  This module is the one definition of
that rule: the cost model, algorithm results, the adaptive loop and both
GA engines call it.  The paper resets chromosomes with ``f < 0`` to the
initial allocation (fitness 0); the GA engines implement that reset,
while these helpers only compute the raw values.

On a degenerate instance with ``D_prime == 0`` the ratio is undefined: a
zero-cost scheme scores 0 and a scheme that still incurs positive cost
scores ``-inf`` — strictly worse than primary-only, so the GA reset
applies to it — rather than masking the regression as 0.
"""

from __future__ import annotations

from repro.errors import ValidationError


def _saved_share(d_prime: float, d: float, scale: float) -> float:
    if d_prime < 0 or d < 0:
        raise ValidationError(
            f"costs must be non-negative, got d_prime={d_prime}, d={d}"
        )
    if d_prime == 0.0:
        return 0.0 if d == 0.0 else float("-inf")
    return scale * (d_prime - d) / d_prime


def fitness_from_costs(d_prime: float, d: float) -> float:
    """``f = (D_prime - D) / D_prime``; may be negative for bad schemes."""
    return _saved_share(d_prime, d, 1.0)


def savings_percent(d_prime: float, d: float) -> float:
    """The paper's reported metric: percentage of NTC saved vs primary-only."""
    return _saved_share(d_prime, d, 100.0)


__all__ = ["fitness_from_costs", "savings_percent"]
