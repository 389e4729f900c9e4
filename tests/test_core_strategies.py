"""Consistency/write strategies: closed forms vs the simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.core import CostModel, ReplicationScheme
from repro.core.strategies import (
    WriteStrategy,
    object_cost,
    total_cost,
)
from repro.errors import ValidationError
from repro.sim import ReplicaSystem
from repro.workload import WorkloadSpec, generate_instance, generate_trace


@pytest.fixture(scope="module")
def setup():
    inst = generate_instance(
        WorkloadSpec(num_sites=8, num_objects=12, update_ratio=0.1,
                     capacity_ratio=0.2),
        rng=140,
    )
    scheme = SRA().run(inst).scheme
    return inst, scheme


def test_primary_broadcast_matches_cost_model(setup):
    inst, scheme = setup
    model = CostModel(inst)
    assert total_cost(
        inst, scheme, WriteStrategy.PRIMARY_BROADCAST
    ) == pytest.approx(model.total_cost(scheme))


def test_primary_broadcast_simulator_exact(setup):
    inst, scheme = setup
    system = ReplicaSystem(
        inst, scheme, write_strategy=WriteStrategy.PRIMARY_BROADCAST
    )
    system.replay(generate_trace(inst, rng=1))
    assert system.metrics.request_ntc == pytest.approx(
        total_cost(inst, scheme, WriteStrategy.PRIMARY_BROADCAST)
    )


def test_writer_multicast_simulator_exact(setup):
    inst, scheme = setup
    system = ReplicaSystem(
        inst, scheme, write_strategy=WriteStrategy.WRITER_MULTICAST
    )
    system.replay(generate_trace(inst, rng=2))
    assert system.metrics.request_ntc == pytest.approx(
        total_cost(inst, scheme, WriteStrategy.WRITER_MULTICAST)
    )


def test_multicast_by_hand(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    # object 0 (size 2), replicas {0, 2}:
    #   reads: all local -> 0
    #   write from site 0 (1 write): direct to site 2 -> 1 * 2 * 3 = 6
    assert object_cost(
        manual_instance, 0, scheme.matrix[:, 0],
        WriteStrategy.WRITER_MULTICAST,
    ) == pytest.approx(6.0)


def test_invalidation_cheaper_when_writes_dominate(manual_instance):
    # crank writes on object 0: broadcasting full objects loses to
    # invalidating and paying only on (rare) reads
    writes = manual_instance.writes.copy()
    writes[:, 0] = [40.0, 40.0, 40.0]
    heavy = manual_instance.with_patterns(writes=writes)
    scheme = ReplicationScheme.primary_only(heavy)
    scheme.add_replica(2, 0)
    broadcast = object_cost(
        heavy, 0, scheme.matrix[:, 0], WriteStrategy.PRIMARY_BROADCAST
    )
    invalidation = object_cost(
        heavy, 0, scheme.matrix[:, 0], WriteStrategy.INVALIDATION
    )
    assert invalidation < broadcast


def test_invalidation_equals_broadcast_read_only(setup):
    # with zero writes the strategies coincide (pure read traffic)
    inst, scheme = setup
    silent = inst.with_patterns(writes=np.zeros_like(inst.writes))
    s = ReplicationScheme.from_matrix(silent, scheme.matrix)
    values = [total_cost(silent, s, strategy) for strategy in WriteStrategy]
    assert values[0] == pytest.approx(values[1])
    assert values[0] == pytest.approx(values[2])


def test_invalidation_approximation_tracks_simulator(setup):
    inst, scheme = setup
    analytic = total_cost(inst, scheme, WriteStrategy.INVALIDATION)
    measured = []
    for seed in (3, 4, 5):
        system = ReplicaSystem(
            inst, scheme, write_strategy=WriteStrategy.INVALIDATION
        )
        system.replay(generate_trace(inst, rng=seed))
        measured.append(system.metrics.request_ntc)
    mean_measured = float(np.mean(measured))
    # stationary approximation: demand agreement within 35%
    assert analytic == pytest.approx(mean_measured, rel=0.35)


def test_invalidation_simulator_state(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(
        manual_instance, scheme, write_strategy=WriteStrategy.INVALIDATION
    )
    # a write from site 1 invalidates site 2's replica (not the primary)
    system.handle_write(1, 0)
    before = system.metrics.total_ntc
    # the stale local read at site 2 must refetch from the primary:
    # size 2 * C(2,0)=3 -> 6
    system.handle_read(2, 0)
    assert system.metrics.total_ntc - before == pytest.approx(6.0)
    # a second read is served locally for free
    before = system.metrics.total_ntc
    system.handle_read(2, 0)
    assert system.metrics.total_ntc == before


def test_strategy_accepts_strings(setup):
    inst, scheme = setup
    assert total_cost(inst, scheme, "writer-multicast") == pytest.approx(
        total_cost(inst, scheme, WriteStrategy.WRITER_MULTICAST)
    )
    with pytest.raises(ValueError):
        total_cost(inst, scheme, "telepathy")


def test_bad_matrix_shape_rejected(setup):
    inst, _ = setup
    with pytest.raises(ValidationError):
        total_cost(inst, np.zeros((2, 2), dtype=bool))
