"""Summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import summarize
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_summarize_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        summarize([1.0, bad, 2.0])
