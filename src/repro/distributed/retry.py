"""Retry/backoff policy for the distributed protocol emulations.

The paper's protocols assume a reliable network; under the fault models
of :mod:`repro.sim.faults` (message loss, crashed peers) every unreliable
send is wrapped in a retry loop governed by a :class:`RetryPolicy`.  The
policy is pure data — attempt counts and deterministic exponential
backoff delays — so two runs with the same plan and policy retry
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import ValidationError

#: what to do when every attempt of a send has failed
SUSPECT = "suspect"  # give the peer up for dead and continue degraded
RAISE = "raise"  # abort the protocol with RetryExhaustedError


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently a protocol retries an unacknowledged send.

    Parameters
    ----------
    max_attempts:
        Total sends per operation (first try included); must be >= 1.
    backoff_base:
        Simulated delay before the second attempt.
    backoff_factor:
        Multiplier applied to the delay between consecutive retries
        (exponential backoff); must be >= 1.
    on_exhaust:
        ``"suspect"`` retires the unresponsive peer and continues in
        degraded mode; ``"raise"`` aborts with
        :class:`~repro.errors.RetryExhaustedError`.
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    on_exhaust: str = SUSPECT

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0.0:
            raise ValidationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.on_exhaust not in (SUSPECT, RAISE):
            raise ValidationError(
                f"on_exhaust must be {SUSPECT!r} or {RAISE!r}, "
                f"got {self.on_exhaust!r}"
            )

    def delays(self) -> Iterator[float]:
        """Backoff delay before each retry (``max_attempts - 1`` values)."""
        delay = self.backoff_base
        for _ in range(self.max_attempts - 1):
            yield delay
            delay *= self.backoff_factor

    def attempt_delays(self) -> List[float]:
        """Delay before each attempt: ``0.0`` for the first send, then
        :meth:`delays` (``max_attempts`` values in all)."""
        return [0.0] + list(self.delays())

    def total_backoff(self) -> float:
        """Worst-case simulated delay spent retrying one operation."""
        return float(sum(self.delays()))


DEFAULT_RETRY_POLICY = RetryPolicy()

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "SUSPECT", "RAISE"]
