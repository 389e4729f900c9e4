"""The exception hierarchy: every library error is a ReproError."""

from __future__ import annotations

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in (
        "ValidationError",
        "CapacityError",
        "PrimaryCopyError",
        "InfeasibleProblemError",
        "SimulationError",
        "TopologyError",
        "ProtocolError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_validation_error_is_value_error():
    # Callers used to ValueError semantics keep working.
    assert issubclass(errors.ValidationError, ValueError)


def test_capacity_error_carries_context():
    err = errors.CapacityError(site=3, used=120, capacity=100)
    assert err.site == 3
    assert err.used == 120
    assert err.capacity == 100
    assert "site 3" in str(err)
    assert "120" in str(err)


def test_primary_copy_error_carries_context():
    err = errors.PrimaryCopyError(site=2, obj=7)
    assert err.site == 2
    assert err.obj == 7
    assert "object 7" in str(err)
