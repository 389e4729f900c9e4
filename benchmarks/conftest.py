"""Shared fixtures of the benchmark suite.

The profile is resolved once per session from ``REPRO_PROFILE`` (default
``quick``).  Figure sweeps are cached inside
:mod:`repro.experiments.figures`, so sibling benchmarks that share a sweep
(fig1a/fig1b, fig4a/fig4d, ...) pay for it once — the *first* benchmark of
each family carries the sweep cost, the rest only re-render.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import get_profile


@pytest.fixture(scope="session")
def profile():
    return get_profile()

