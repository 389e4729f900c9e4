"""Statistics over instance-averaged experiment results.

The paper reports bare means over 15 random networks; these helpers add
the error bars: t-based confidence intervals and paired comparisons
(both algorithms always run on the *same* networks in this library's
harness, so pairing is the statistically right move).

``scipy.stats`` costs most of a cold ``repro`` start, so it is imported
at the two call sites that need it rather than at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

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


@dataclass(frozen=True)
class PairedComparison:
    """Paired comparison of algorithm A vs algorithm B on shared inputs."""

    mean_difference: float  # mean(A - B)
    ci_low: float
    ci_high: float
    p_value: float
    a_wins: int
    b_wins: int
    ties: int
    significant: bool

    def summary(self) -> str:
        verdict = "significant" if self.significant else "not significant"
        return (
            f"mean diff {self.mean_difference:+.3f} "
            f"[{self.ci_low:+.3f}, {self.ci_high:+.3f}], "
            f"p={self.p_value:.4f} ({verdict}); "
            f"wins {self.a_wins}-{self.b_wins}-{self.ties}"
        )


def paired_comparison(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
    tie_tolerance: float = 1e-9,
) -> PairedComparison:
    """Paired t-test of ``a`` vs ``b`` (same instances, same order)."""
    a_arr = np.asarray(list(a), dtype=float)
    b_arr = np.asarray(list(b), dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1 or a_arr.size < 2:
        raise ValidationError(
            "paired samples must be equal-length 1-D sequences of >= 2"
        )
    _require_finite(a_arr, "a")
    _require_finite(b_arr, "b")
    diff = a_arr - b_arr
    summary = summarize(diff, confidence)
    if np.allclose(diff, diff[0]):
        # zero variance: the t statistic is undefined; treat a constant
        # non-zero difference as maximally significant
        p_value = 0.0 if abs(float(diff[0])) > tie_tolerance else 1.0
    else:
        from scipy import stats as scipy_stats

        _, p_value = scipy_stats.ttest_rel(a_arr, b_arr)
        p_value = float(p_value)
    return PairedComparison(
        mean_difference=summary.mean,
        ci_low=summary.ci_low,
        ci_high=summary.ci_high,
        p_value=p_value,
        a_wins=int(np.sum(diff > tie_tolerance)),
        b_wins=int(np.sum(diff < -tie_tolerance)),
        ties=int(np.sum(np.abs(diff) <= tie_tolerance)),
        significant=p_value < (1.0 - confidence),
    )


__all__ = ["SummaryStats", "summarize", "PairedComparison", "paired_comparison"]
