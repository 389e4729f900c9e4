"""Eq. 5 benefit and Eq. 6 deallocation estimate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CostModel,
    ReplicationScheme,
    benefit_matrix,
    deallocation_estimate,
    replication_benefit,
)
from repro.core.benefit import deallocation_estimates_for_site
from repro.errors import ValidationError


def test_benefit_by_hand(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    # B_{2,0} = r_20 * C(2, SN=0) - (sum_{x!=2} w_x0) * C(2, SP=0)
    #         = 6 * 3 - 1 * 3 = 15
    value = replication_benefit(manual_instance, scheme, 2, 0)
    assert value == pytest.approx(15.0)
    # and the size-scaled benefit equals the exact local cost delta here
    # (no other site's reads reroute to site 2 for object 0).
    model = CostModel(manual_instance)
    delta = model.add_delta(scheme, 2, 0)
    assert -delta == pytest.approx(value * manual_instance.sizes[0])


def test_benefit_negative_when_updates_dominate(manual_instance):
    heavy_writes = manual_instance.writes.copy()
    heavy_writes[:, 0] = [50.0, 50.0, 50.0]
    heavy = manual_instance.with_patterns(writes=heavy_writes)
    scheme = ReplicationScheme.primary_only(heavy)
    assert replication_benefit(heavy, scheme, 2, 0) < 0


def test_benefit_uses_current_nearest(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    # B_{2,1} = r_21 * C(2, SN=1) - (sum_{x!=2} w_x1) * C(2, SP=1)
    #         = 1 * 2 - 2 * 2 = -2
    before = replication_benefit(manual_instance, scheme, 2, 1)
    assert before == pytest.approx(-2.0)
    scheme.add_replica(0, 1)
    # site 2's nearest for object 1 is still site 1 (cost 2 < 3), so the
    # benefit is unchanged; but forcing the farther nearest changes it.
    after = replication_benefit(manual_instance, scheme, 2, 1)
    assert after == pytest.approx(before)
    forced = replication_benefit(
        manual_instance, scheme, 2, 1, nearest=0
    )
    assert forced == pytest.approx(1 * 3 - 2 * 2)


def test_benefit_on_held_replica_rejected(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    with pytest.raises(ValidationError):
        replication_benefit(manual_instance, scheme, 0, 0)


def test_benefit_update_fraction(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    full = replication_benefit(manual_instance, scheme, 2, 0)
    none = replication_benefit(
        manual_instance, scheme, 2, 0, update_fraction=0.0
    )
    assert none == pytest.approx(18.0)  # pure read gain
    assert full < none


def test_benefit_matrix_agrees_with_scalar(small_instance):
    scheme = ReplicationScheme.primary_only(small_instance)
    matrix = benefit_matrix(small_instance, scheme)
    for site in range(small_instance.num_sites):
        for obj in range(small_instance.num_objects):
            if scheme.holds(site, obj):
                assert np.isnan(matrix[site, obj])
            else:
                assert matrix[site, obj] == pytest.approx(
                    replication_benefit(small_instance, scheme, site, obj)
                )


def test_deallocation_estimate_by_hand(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    # numerator: total_reads(10) + local_writes(0) - total_writes(1)
    #            + local_reads(6) * capacity(10) / size(2) = 39
    # denominator: (sum_x C(2,x)=5) / (mean site weight = 12/3 = 4) = 1.25
    #              times replica degree 2 -> 2.5
    value = deallocation_estimate(manual_instance, scheme, 2, 0)
    assert value == pytest.approx(39.0 / 2.5)


def test_deallocation_estimate_requires_held(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    with pytest.raises(ValidationError):
        deallocation_estimate(manual_instance, scheme, 2, 0)


def test_degree_penalises_widely_replicated(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    sparse = deallocation_estimate(manual_instance, scheme, 2, 0)
    scheme.add_replica(1, 0)  # degree 2 -> 3
    dense = deallocation_estimate(manual_instance, scheme, 2, 0)
    assert dense < sparse


def test_update_heavy_object_scores_lower(small_instance):
    scheme = ReplicationScheme.primary_only(small_instance)
    # pick two objects with the same primary-free site if possible
    site = int(
        np.argmax(
            small_instance.capacities - small_instance.primary_load()
        )
    )
    objs = [
        k
        for k in range(small_instance.num_objects)
        if not scheme.holds(site, k)
        and scheme.remaining_capacity()[site]
        >= 2 * small_instance.sizes[k]
    ][:2]
    if len(objs) < 2:
        pytest.skip("fixture too tight for this scenario")
    a, b = objs
    scheme.add_replica(site, a)
    scheme.add_replica(site, b)
    # make object b update-heavy
    writes = small_instance.writes.copy()
    writes[:, b] += 1000.0
    heavy = small_instance.with_patterns(writes=writes)
    heavy_scheme = ReplicationScheme.from_matrix(heavy, scheme.matrix)
    ea = deallocation_estimate(heavy, heavy_scheme, site, a)
    eb = deallocation_estimate(heavy, heavy_scheme, site, b)
    assert eb < ea


def test_estimates_for_site_skips_primaries(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(0, 1)  # site 0 now holds obj 0 (primary) and obj 1
    estimates = deallocation_estimates_for_site(
        manual_instance, scheme.matrix, 0
    )
    assert np.isnan(estimates[0])  # primary copy: not droppable
    assert np.isfinite(estimates[1])
    all_est = deallocation_estimates_for_site(
        manual_instance, scheme.matrix, 0, droppable_only=False
    )
    assert np.isfinite(all_est[0])
