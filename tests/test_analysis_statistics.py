"""Summary statistics and paired comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import paired_comparison, summarize
from repro.errors import ValidationError


def test_summarize_basics():
    stats = summarize([2.0, 4.0, 6.0])
    assert stats.count == 3
    assert stats.mean == pytest.approx(4.0)
    assert stats.std == pytest.approx(2.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 6.0
    assert stats.ci_low < 4.0 < stats.ci_high


def test_summarize_ci_contains_true_mean_mostly():
    rng = np.random.default_rng(1)
    covered = 0
    trials = 200
    for _ in range(trials):
        sample = rng.normal(10.0, 2.0, size=12)
        stats = summarize(sample, confidence=0.95)
        if stats.ci_low <= 10.0 <= stats.ci_high:
            covered += 1
    assert covered / trials > 0.88  # ~95% nominal coverage


def test_summarize_single_value_degenerate():
    stats = summarize([7.0])
    assert stats.mean == 7.0
    assert stats.ci_low == stats.ci_high == 7.0
    assert stats.std == 0.0


def test_summarize_validation():
    with pytest.raises(ValidationError):
        summarize([])
    with pytest.raises(ValidationError):
        summarize([1.0], confidence=1.0)


def test_summary_string():
    assert "mean" in summarize([1.0, 2.0]).summary()


def test_paired_detects_clear_difference():
    a = [10.0, 11.0, 12.0, 10.5, 11.5]
    b = [5.0, 5.5, 6.0, 5.2, 5.8]
    result = paired_comparison(a, b)
    assert result.mean_difference > 0
    assert result.significant
    assert result.a_wins == 5
    assert result.b_wins == 0


def test_paired_no_difference():
    rng = np.random.default_rng(2)
    base = rng.normal(0.0, 1.0, size=20)
    noise = base + rng.normal(0.0, 0.01, size=20)
    result = paired_comparison(base, noise)
    assert not result.significant


def test_paired_constant_difference():
    a = [3.0, 3.0, 3.0]
    b = [1.0, 1.0, 1.0]
    result = paired_comparison(a, b)
    assert result.p_value == 0.0
    assert result.significant
    ties = paired_comparison(a, a)
    assert ties.p_value == 1.0
    assert ties.ties == 3


def test_paired_validation():
    with pytest.raises(ValidationError):
        paired_comparison([1.0], [1.0])
    with pytest.raises(ValidationError):
        paired_comparison([1.0, 2.0], [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_summarize_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        summarize([1.0, bad, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_paired_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        paired_comparison([1.0, bad, 3.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match="finite"):
        paired_comparison([1.0, 2.0, 3.0], [0.0, bad, 2.0])


def test_paired_summary_string():
    text = paired_comparison([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]).summary()
    assert "wins" in text
