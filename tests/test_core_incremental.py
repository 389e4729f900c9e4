"""Unit tests of the incremental cost evaluator (deltas, listener, guards)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostModel, ReplicationScheme
from repro.core.incremental import (
    IncrementalCostEvaluator,
    eq5_benefit,
    single_add_delta,
    single_drop_delta,
)
from repro.errors import ValidationError


def _fresh(instance):
    model = CostModel(instance)
    scheme = ReplicationScheme.primary_only(instance)
    return model, scheme, IncrementalCostEvaluator(model, scheme)


def _feasible_add(instance, scheme, rng):
    """A random (site, obj) the scheme can accept, or None."""
    remaining = scheme.remaining_capacity()
    options = [
        (s, k)
        for s in range(instance.num_sites)
        for k in range(instance.num_objects)
        if not scheme.holds(s, k) and remaining[s] >= instance.sizes[k]
    ]
    if not options:
        return None
    return options[int(rng.integers(len(options)))]


# --------------------------------------------------------------------- #
# delta exactness
# --------------------------------------------------------------------- #
def test_delta_add_matches_full_recompute(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(0)
    pick = _feasible_add(small_instance, scheme, rng)
    assert pick is not None
    site, obj = pick
    delta = ev.delta_add(site, obj)
    before = model.total_cost(scheme)
    scheme.add_replica(site, obj)
    after = model.total_cost(scheme)
    assert delta == pytest.approx(after - before)
    # The maintained total tracks the mutation exactly.
    assert ev.total_cost() == model.total_cost(scheme)


def test_delta_drop_matches_full_recompute(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(1)
    for _ in range(6):
        pick = _feasible_add(small_instance, scheme, rng)
        if pick is None:
            break
        scheme.add_replica(*pick)
    site, obj = next(
        (s, k)
        for s in range(small_instance.num_sites)
        for k in range(small_instance.num_objects)
        if scheme.holds(s, k) and int(small_instance.primaries[k]) != s
    )
    delta = ev.delta_drop(site, obj)
    before = model.total_cost(scheme)
    scheme.drop_replica(site, obj)
    after = model.total_cost(scheme)
    assert delta == pytest.approx(after - before)
    assert ev.total_cost() == model.total_cost(scheme)


def test_cost_model_delta_adapters_agree_with_evaluator(small_instance):
    """Satellite: CostModel.add_delta/drop_delta are thin adapters."""
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(2)
    site, obj = _feasible_add(small_instance, scheme, rng)
    assert model.add_delta(scheme, site, obj) == ev.delta_add(site, obj)
    assert single_add_delta(model, scheme, site, obj) == ev.delta_add(
        site, obj
    )
    scheme.add_replica(site, obj)
    assert model.drop_delta(scheme, site, obj) == ev.delta_drop(site, obj)
    assert single_drop_delta(model, scheme, site, obj) == ev.delta_drop(
        site, obj
    )


def test_delta_validation_errors(small_instance):
    _, scheme, ev = _fresh(small_instance)
    obj = 0
    primary = int(small_instance.primaries[obj])
    with pytest.raises(ValueError, match="already holds"):
        ev.delta_add(primary, obj)
    other = (primary + 1) % small_instance.num_sites
    with pytest.raises(ValueError, match="does not hold"):
        ev.delta_drop(other, obj)
    with pytest.raises(ValueError, match="primary copy"):
        ev.delta_drop(primary, obj)


# --------------------------------------------------------------------- #
# listener / detach
# --------------------------------------------------------------------- #
def test_direct_scheme_mutations_patch_evaluator(small_instance):
    """Listener flow: every scheme mutation keeps the evaluator exact."""
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(5)
    for _ in range(8):
        pick = _feasible_add(small_instance, scheme, rng)
        if pick is None:
            break
        scheme.add_replica(*pick)
        assert ev.total_cost() == model.total_cost(scheme)
    ev.consistency_check()


def test_detach_freezes_state(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(6)
    site, obj = _feasible_add(small_instance, scheme, rng)
    ev.detach()
    frozen = ev.total_cost()
    scheme.add_replica(site, obj)
    assert ev.total_cost() == frozen  # no listener, no update


# --------------------------------------------------------------------- #
# Eq. 5 arithmetic
# --------------------------------------------------------------------- #
def test_eq5_benefit_formula():
    # 3 reads saving distance 5, 2 foreign writes attracted over cost 4.
    assert eq5_benefit(3.0, 5.0, 2.0, 4.0) == 3.0 * 5.0 - 2.0 * 4.0
    assert eq5_benefit(3.0, 5.0, 2.0, 4.0, update_fraction=0.5) == (
        3.0 * 5.0 - 0.5 * 2.0 * 4.0
    )
