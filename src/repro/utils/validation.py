"""Argument-validation helpers shared across the package.

These keep constructor bodies readable: each check raises
:class:`repro.errors.ValidationError` with a message naming the offending
argument, which the test-suite asserts on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Ensure ``value`` is a positive (or non-negative) finite number."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_fraction(name: str, value: float, allow_zero: bool = True) -> float:
    """Ensure ``value`` lies in [0, 1] (probabilities, ratios)."""
    value = check_positive(name, value, allow_zero=allow_zero)
    if value > 1.0:
        raise ValidationError(f"{name} must be <= 1, got {value!r}")
    return value


def check_vector(
    name: str,
    array: np.ndarray,
    length: Optional[int] = None,
    non_negative: bool = False,
    dtype: Optional[type] = None,
) -> np.ndarray:
    """Validate and copy a 1-D numeric array."""
    arr = np.asarray(array, dtype=dtype) if dtype else np.asarray(array)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(
            f"{name} must have length {length}, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if non_negative and np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    return arr.copy()


def check_matrix(
    name: str,
    array: np.ndarray,
    shape: Optional[Tuple[int, int]] = None,
    non_negative: bool = False,
    dtype: Optional[type] = None,
) -> np.ndarray:
    """Validate and copy a 2-D numeric array."""
    arr = np.asarray(array, dtype=dtype) if dtype else np.asarray(array)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if non_negative and np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    return arr.copy()


__all__ = [
    "check_positive",
    "check_fraction",
    "check_vector",
    "check_matrix",
]
