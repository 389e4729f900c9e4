"""Argument validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_positive,
    check_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValidationError, match="x"):
            check_positive("x", 0)

    def test_allow_zero(self):
        assert check_positive("x", 0, allow_zero=True) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive("x", -1, allow_zero=True)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            check_positive("x", float("nan"))
        with pytest.raises(ValidationError):
            check_positive("x", float("inf"))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_positive("x", "abc")


class TestCheckFraction:
    def test_bounds(self):
        assert check_fraction("p", 0.5) == 0.5
        assert check_fraction("p", 0.0) == 0.0
        assert check_fraction("p", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_fraction("p", 1.01)


class TestCheckVector:
    def test_copies(self):
        arr = np.array([1.0, 2.0])
        out = check_vector("v", arr)
        out[0] = 99.0
        assert arr[0] == 1.0

    def test_length_check(self):
        with pytest.raises(ValidationError):
            check_vector("v", np.ones(3), length=4)

    def test_ndim_check(self):
        with pytest.raises(ValidationError):
            check_vector("v", np.ones((2, 2)))

    def test_non_negative(self):
        with pytest.raises(ValidationError):
            check_vector("v", np.array([-1.0]), non_negative=True)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            check_vector("v", np.array([np.nan]))


class TestCheckMatrix:
    def test_shape_check(self):
        with pytest.raises(ValidationError):
            check_matrix("m", np.ones((2, 3)), shape=(3, 2))

    def test_ndim_check(self):
        with pytest.raises(ValidationError):
            check_matrix("m", np.ones(3))

    def test_valid_copy(self):
        arr = np.ones((2, 2))
        out = check_matrix("m", arr)
        out[0, 0] = 5.0
        assert arr[0, 0] == 1.0
