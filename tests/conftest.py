"""Shared fixtures of the test-suite.

``tiny_instance`` is small enough for the exact solver; ``small_instance``
is the everyday fixture; ``medium_instance`` exercises vectorised paths on
non-trivial sizes.  All are deterministic.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import CostModel, DRPInstance, ReplicationScheme
from repro.workload import WorkloadSpec, generate_instance

try:
    from hypothesis import HealthCheck, settings as hypothesis_settings

    # Shared profiles: `dev` keeps the suite fast on laptops, `ci` drops
    # the deadline entirely (shared runners stall unpredictably) and digs
    # deeper.  Select with HYPOTHESIS_PROFILE=ci; per-test @settings
    # still override individual fields.
    hypothesis_settings.register_profile(
        "dev",
        deadline=None,
        max_examples=25,
    )
    hypothesis_settings.register_profile(
        "ci",
        deadline=None,
        max_examples=100,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "dev")
    )
except ImportError:  # hypothesis is optional; property tests self-skip
    pass


@pytest.fixture(autouse=True)
def _no_leaked_globals():
    """Fail any test that leaves a process-wide recorder installed.

    The runtime layer (``repro.runtime.context.RunContext``) owns every
    slot in its ``RECORDERS`` table and guarantees teardown; a test that
    fills one directly must empty it again, or every later test silently
    runs traced/metered.  Leaked recorders are cleared here regardless,
    so one offender cannot cascade.
    """
    from repro.runtime.context import RECORDERS
    from repro.utils.recorders import uninstall_recorder

    yield
    leaked = [slot.name for slot in RECORDERS if slot.recorder is not None]
    for slot in RECORDERS:
        uninstall_recorder(slot)
    if leaked:
        pytest.fail(
            "test leaked process-wide recorders: " + ", ".join(leaked)
        )


@pytest.fixture(scope="session")
def tiny_instance() -> DRPInstance:
    return generate_instance(
        WorkloadSpec(num_sites=4, num_objects=5, update_ratio=0.05,
                     capacity_ratio=0.3),
        rng=101,
    )


@pytest.fixture(scope="session")
def small_instance() -> DRPInstance:
    return generate_instance(
        WorkloadSpec(num_sites=8, num_objects=15, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=202,
    )


@pytest.fixture(scope="session")
def medium_instance() -> DRPInstance:
    return generate_instance(
        WorkloadSpec(num_sites=25, num_objects=50, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=303,
    )


@pytest.fixture()
def small_model(small_instance) -> CostModel:
    return CostModel(small_instance)


@pytest.fixture()
def small_scheme(small_instance) -> ReplicationScheme:
    return ReplicationScheme.primary_only(small_instance)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_manual_instance() -> DRPInstance:
    """A tiny hand-written instance with obvious structure, for exactness
    tests where every cost can be verified by hand."""
    # 3 sites on a line: 0 --1-- 1 --2-- 2  (C(0,2) = 3 via shortest path)
    cost = np.array(
        [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 2.0],
            [3.0, 2.0, 0.0],
        ]
    )
    sizes = np.array([2.0, 3.0])
    capacities = np.array([10.0, 10.0, 10.0])
    reads = np.array(
        [
            [4.0, 0.0],
            [0.0, 5.0],
            [6.0, 1.0],
        ]
    )
    writes = np.array(
        [
            [1.0, 0.0],
            [0.0, 2.0],
            [0.0, 1.0],
        ]
    )
    primaries = np.array([0, 1])
    return DRPInstance(cost, sizes, capacities, reads, writes, primaries)


@pytest.fixture()
def manual_instance() -> DRPInstance:
    return make_manual_instance()
