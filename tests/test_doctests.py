"""Docstring examples must actually run."""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.utils.tables


@pytest.mark.parametrize(
    "module",
    [repro, repro.utils.tables],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failures in {module.__name__}"
    )
