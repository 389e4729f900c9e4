"""Failure injection in the request-level simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ReplicationScheme
from repro.core.strategies import WriteStrategy
from repro.errors import ValidationError
from repro.sim import ReplicaSystem
from repro.sim.metrics import MIGRATION


@pytest.fixture()
def system(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)  # object 0 replicated at {0, 2}
    return ReplicaSystem(manual_instance, scheme)


def test_requests_from_failed_site_rejected(system):
    system.fail_site(1)
    assert system.handle_read(1, 0) == 0.0
    system.handle_write(1, 1)
    assert system.metrics.rejected_reads == 1
    assert system.metrics.rejected_writes == 1
    assert system.metrics.total_ntc == 0.0


def test_reads_reroute_around_failed_replica(system):
    # site 1's nearest replica of object 0 is site 0 (cost 1); fail it
    # and the read reroutes to site 2 (cost 2)
    system.fail_site(0)
    before = system.metrics.total_ntc
    system.handle_read(1, 0)
    # size 2 * C(1,2)=2 -> 4 (instead of 2 via site 0)
    assert system.metrics.total_ntc - before == pytest.approx(4.0)


def test_object_unavailable_when_all_replicas_down(system):
    system.fail_site(1)  # object 1's only copy lives at site 1
    latency = system.handle_read(2, 1)
    assert latency == 0.0
    assert system.metrics.rejected_reads == 1
    assert system.metrics.total_ntc == 0.0


def test_write_rejected_when_primary_down(system):
    system.fail_site(0)  # primary of object 0
    system.handle_write(1, 0)
    assert system.metrics.rejected_writes == 1


def test_multicast_survives_primary_failure(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(
        manual_instance, scheme,
        write_strategy=WriteStrategy.WRITER_MULTICAST,
    )
    system.fail_site(0)  # primary down
    system.handle_write(1, 0)  # still ships to the alive replica at 2
    assert system.metrics.rejected_writes == 0
    assert system.metrics.total_ntc > 0.0


def test_failed_replica_misses_broadcast_then_recovers(system):
    system.fail_site(2)
    before = system.metrics.total_ntc
    system.handle_write(1, 0)
    # only the shipment to the primary is paid (no broadcast to dead 2):
    # size 2 * C(1,0)=1 -> 2
    assert system.metrics.total_ntc - before == pytest.approx(2.0)
    refetches = system.recover_site(2)
    assert refetches == 1  # eager strategy: refetch obj 0 from primary
    assert system.metrics.ntc_by_cause[MIGRATION] == pytest.approx(
        2.0 * 3.0  # size 2 * C(2,0)=3
    )


def test_recovery_under_invalidation_is_lazy(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(
        manual_instance, scheme,
        write_strategy=WriteStrategy.INVALIDATION,
    )
    system.fail_site(2)
    system.handle_write(1, 0)
    assert system.recover_site(2) == 0  # no eager refetch
    before = system.metrics.total_ntc
    system.handle_read(2, 0)  # stale local copy refetches now
    assert system.metrics.total_ntc - before == pytest.approx(6.0)


def test_stale_read_served_when_primary_down(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(
        manual_instance, scheme,
        write_strategy=WriteStrategy.INVALIDATION,
    )
    system.handle_write(1, 0)  # invalidates the copy at site 2
    system.fail_site(0)  # primary down: no refetch possible
    latency = system.handle_read(2, 0)  # served stale, locally
    assert latency == system.metrics.base_latency
    assert system.metrics.rejected_reads == 0


def test_last_holder_recovery_restores_reads_without_extra_ntc(system):
    # object 1's only copy lives at site 1 (its primary)
    system.fail_site(1)
    assert system.handle_read(2, 1) == 0.0
    assert system.metrics.rejected_reads == 1
    refetches = system.recover_site(1)
    # the primary copy needs no refetch: recovery must not re-ship the
    # object to its own holder (that would double-count NTC)
    assert refetches == 0
    assert system.metrics.ntc_by_cause[MIGRATION] == 0.0
    before = system.metrics.total_ntc
    latency = system.handle_read(2, 1)
    assert latency > 0.0
    assert system.metrics.rejected_reads == 1  # no new rejection
    # size 3 * C(2,1)=2 -> 6: the read pays exactly the normal cost
    assert system.metrics.total_ntc - before == pytest.approx(6.0)


def test_failed_sites_tracked_and_validated(system):
    system.fail_site(1)
    assert system.failed_sites == frozenset({1})
    with pytest.raises(ValidationError):
        system.fail_site(99)
    with pytest.raises(ValidationError):
        system.recover_site(0)  # not failed
    system.recover_site(1)
    assert system.failed_sites == frozenset()
