"""Property-based invariants of the incremental evaluator.

The central claim of the delta-evaluation refactor: after *any*
interleaving of scheme adds and drops — the mutations local search
makes, patched into the evaluator by its scheme listener — the
evaluator's maintained total equals the Eq. 1-4 reference recompute,
including capacity-edge schemes (full sites force drops/swaps) and
single-replica objects (a drop's two-nearest repair must fall back to
``(inf, -1)`` second slots).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.core.incremental import IncrementalCostEvaluator
from tests.strategies import drp_instances, instances_with_schemes

SETTINGS = settings(max_examples=30, deadline=None)


def _check(instance, model, scheme, ev):
    # Exact vs the vectorised kernel (same arithmetic by construction)…
    assert ev.total_cost() == CostModel(
        instance, cache_size=0
    ).total_cost(scheme)
    # …and numerically vs the Eq. 1-4 loop reference.
    assert ev.total_cost() == pytest.approx(
        reference_total_cost(instance, scheme)
    )


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_interleaved_walk_matches_reference(pair, seed):
    instance, scheme = pair
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(25):
        action = int(rng.integers(3))
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if action == 0:
            if (
                not scheme.holds(site, obj)
                and scheme.remaining_capacity()[site]
                >= instance.sizes[obj]
            ):
                delta = ev.delta_add(site, obj)
                before = ev.total_cost()
                scheme.add_replica(site, obj)
                assert ev.total_cost() == pytest.approx(before + delta)
                history.append((True, site, obj))
        elif action == 1:
            if (
                scheme.holds(site, obj)
                and int(instance.primaries[obj]) != site
            ):
                delta = ev.delta_drop(site, obj)
                before = ev.total_cost()
                scheme.drop_replica(site, obj)
                assert ev.total_cost() == pytest.approx(before + delta)
                history.append((False, site, obj))
        elif history:
            # Undo the latest mutation with its inverse.
            added, site, obj = history.pop()
            if added:
                scheme.drop_replica(site, obj)
            else:
                scheme.add_replica(site, obj)
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(drp_instances(max_update_ratio=0.3), st.integers(0, 2**16))
def test_single_replica_objects_survive_drop_repair(instance, seed):
    """Grow one object to two replicas and drop back to one, repeatedly.

    With a single replica the second-nearest slots hold ``(inf, -1)``;
    the drop repair must rebuild rows from that degenerate state without
    ever selecting the sentinel.
    """
    scheme = ReplicationScheme.primary_only(instance)
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    obj = int(rng.integers(instance.num_objects))
    primary = int(instance.primaries[obj])
    for _ in range(6):
        site = int(rng.integers(instance.num_sites))
        if site == primary:
            continue
        if scheme.remaining_capacity()[site] < instance.sizes[obj]:
            continue
        scheme.add_replica(site, obj)
        _check(instance, model, scheme, ev)
        scheme.drop_replica(site, obj)
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(drp_instances(), st.integers(0, 2**16))
def test_capacity_edge_fill_then_churn(instance, seed):
    """Fill sites to the brim, then churn via drop+add at full capacity."""
    scheme = ReplicationScheme.primary_only(instance)
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    # Greedy fill: add until nothing fits anywhere.
    for site in range(instance.num_sites):
        for obj in range(instance.num_objects):
            if scheme.holds(site, obj):
                continue
            if scheme.remaining_capacity()[site] >= instance.sizes[obj]:
                scheme.add_replica(site, obj)
    _check(instance, model, scheme, ev)
    # Churn: drop a non-primary replica, re-add something that now fits.
    for _ in range(10):
        held = [
            (s, k)
            for s in range(instance.num_sites)
            for k in scheme.objects_at(s)
            if int(instance.primaries[k]) != s
        ]
        if not held:
            break
        site, obj = held[int(rng.integers(len(held)))]
        scheme.drop_replica(site, int(obj))
        _check(instance, model, scheme, ev)
        for k in range(instance.num_objects):
            if not scheme.holds(site, k) and (
                scheme.remaining_capacity()[site] >= instance.sizes[k]
            ):
                scheme.add_replica(site, k)
                break
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_add_then_drop_restores_totals_bitwise(pair, seed):
    """Dropping every added replica again restores the total bit for bit:
    the drop repair rebuilds exactly the rows the adds touched."""
    instance, scheme = pair
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    snapshot = ev.total_cost()
    added = []
    for _ in range(8):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if (
            not scheme.holds(site, obj)
            and scheme.remaining_capacity()[site] >= instance.sizes[obj]
        ):
            scheme.add_replica(site, obj)
            added.append((site, obj))
    for site, obj in reversed(added):
        scheme.drop_replica(site, obj)
    assert ev.total_cost() == snapshot
    ev.consistency_check()
