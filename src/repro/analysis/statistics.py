"""Statistics over instance-averaged experiment results.

The paper reports bare means over 15 random networks; these helpers add
the error bars: t-based confidence intervals.

``scipy.stats`` costs most of a cold ``repro`` start, so it is imported
inside :func:`summarize` rather than at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ValidationError


def _require_finite(arr: np.ndarray, name: str) -> None:
    # NaN or inf would propagate silently into an all-NaN summary or a
    # NaN p-value; refuse them at the boundary instead
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)][0]
        raise ValidationError(
            f"{name} must be finite; got {float(bad)!r}"
        )


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and a t-based confidence interval of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    def summary(self) -> str:
        return (
            f"mean {self.mean:.3f} "
            f"[{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"({self.confidence * 100:.0f}% CI, n={self.count})"
        )


def summarize(
    values: Sequence[float], confidence: float = 0.95
) -> SummaryStats:
    """Summary statistics with a Student-t confidence interval.

    A single observation yields a degenerate interval at the mean (no
    spread information), which is more honest than crashing.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty sequence")
    _require_finite(arr, "values")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    mean = float(arr.mean())
    if arr.size == 1:
        return SummaryStats(
            count=1, mean=mean, std=0.0, minimum=mean, maximum=mean,
            ci_low=mean, ci_high=mean, confidence=confidence,
        )
    from scipy import stats as scipy_stats

    std = float(arr.std(ddof=1))
    sem = std / math.sqrt(arr.size)
    t_crit = float(scipy_stats.t.ppf((1 + confidence) / 2, arr.size - 1))
    half = t_crit * sem
    return SummaryStats(
        count=int(arr.size),
        mean=mean,
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )


__all__ = ["SummaryStats", "summarize"]
