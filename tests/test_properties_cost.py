"""Property-based invariants of the cost model (Eq. 1-4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.sim import ReplicaSystem
from repro.workload import generate_trace
from tests.strategies import (
    drp_instances,
    float_instances,
    instances_with_schemes,
)

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(instances_with_schemes())
def test_vectorised_matches_reference(pair):
    instance, scheme = pair
    model = CostModel(instance)
    assert model.total_cost(scheme) == pytest.approx(
        reference_total_cost(instance, scheme)
    )


@SETTINGS
@given(instances_with_schemes())
def test_cost_non_negative_and_fitness_bounded(pair):
    instance, scheme = pair
    model = CostModel(instance)
    d = model.total_cost(scheme)
    assert d >= 0.0
    assert model.fitness(scheme) <= 1.0


@SETTINGS
@given(instances_with_schemes())
def test_primary_only_is_d_prime(pair):
    instance, _ = pair
    model = CostModel(instance)
    primary = ReplicationScheme.primary_only(instance)
    assert model.total_cost(primary) == pytest.approx(model.d_prime())
    assert model.savings_percent(primary) == pytest.approx(0.0)


@SETTINGS
@given(drp_instances(max_update_ratio=0.0), st.integers(0, 2**16))
def test_read_only_replication_never_hurts(instance, seed):
    # with zero writes, every added replica weakly decreases D
    model = CostModel(instance)
    scheme = ReplicationScheme.primary_only(instance)
    rng = np.random.default_rng(seed)
    cost = model.total_cost(scheme)
    for _ in range(10):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if scheme.holds(site, obj):
            continue
        if scheme.remaining_capacity()[site] < instance.sizes[obj]:
            continue
        scheme.add_replica(site, obj)
        new_cost = model.total_cost(scheme)
        assert new_cost <= cost + 1e-9
        cost = new_cost


@SETTINGS
@given(instances_with_schemes())
def test_write_only_replication_never_helps(pair):
    # with zero reads, any extra replica weakly increases D
    instance, scheme = pair
    silent = instance.with_patterns(reads=np.zeros_like(instance.reads))
    model = CostModel(silent)
    primary = ReplicationScheme.primary_only(silent)
    base = model.total_cost(primary)
    replicated = ReplicationScheme.from_matrix(silent, scheme.matrix)
    assert model.total_cost(replicated) >= base - 1e-9


@SETTINGS
@given(instances_with_schemes())
def test_add_delta_consistent(pair):
    instance, scheme = pair
    model = CostModel(instance)
    remaining = scheme.remaining_capacity()
    for site in range(instance.num_sites):
        for obj in range(instance.num_objects):
            if scheme.holds(site, obj):
                continue
            if remaining[site] < instance.sizes[obj]:
                continue
            before = model.total_cost(scheme)
            delta = model.add_delta(scheme, site, obj)
            clone = scheme.copy()
            clone.add_replica(site, obj)
            assert model.total_cost(clone) == pytest.approx(before + delta)
            return  # one pair per example is plenty


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_simulator_equals_analytic(pair, seed):
    instance, scheme = pair
    model = CostModel(instance)
    system = ReplicaSystem(instance, scheme)
    system.replay(generate_trace(instance, rng=seed))
    assert system.metrics.request_ntc == pytest.approx(
        model.total_cost(scheme)
    )


@SETTINGS
@given(instances_with_schemes())
def test_eq1_eq2_decomposition(pair):
    instance, scheme = pair
    model = CostModel(instance)
    total = (
        model.read_cost_components(scheme).sum()
        + model.write_cost_components(scheme).sum()
    )
    assert total == pytest.approx(model.total_cost(scheme))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(instances_with_schemes(), st.sampled_from([1.0, 0.4])).map(
            lambda drawn: (*drawn[0], drawn[1])
        ),
        float_instances(),
    ),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_batch_equals_scalar_equals_reference(drawn, cached, seed):
    """Three derivations of every per-object price must agree: the
    batch kernel and the scalar kernel (cached and uncached) exactly,
    and the naive Eq. 4 oracle summed over objects to float tolerance —
    with and without the memo cache, under partial-update accounting,
    and on integer as well as non-integer (Waxman shortest-path) costs,
    where only one shared arithmetic gives ``==``."""
    instance, scheme, update_fraction = drawn
    rng = np.random.default_rng(seed)
    model = CostModel(
        instance,
        update_fraction=update_fraction,
        cache_size=64 if cached else 0,
    )
    uncached = CostModel(
        instance, update_fraction=update_fraction, cache_size=0
    )
    mat = scheme.matrix
    primary_only = ReplicationScheme.primary_only(instance).matrix
    total = 0.0
    for k in range(instance.num_objects):
        random_columns = rng.random((6, instance.num_sites)) < 0.4
        random_columns[:, int(instance.primaries[k])] = True
        columns = np.vstack(
            [mat[:, k], primary_only[:, k], random_columns, mat[:, k]]
        )
        scalar = [uncached.object_cost(k, c) for c in columns]
        batch = model.object_costs_batch(k, columns)
        assert batch.shape == (len(columns),)
        assert batch[0] == batch[-1]  # duplicates collapse
        assert batch.tolist() == scalar
        # A second batch reads what the first stored in the cache.
        assert model.object_costs_batch(k, columns).tolist() == scalar
        assert [model.object_cost(k, c) for c in columns] == scalar
        assert [model.object_cost_cached(k, c) for c in columns] == scalar
        # The kernel itself takes the same (P, M) stack, with or
        # without the cache warm, one row at a time or all at once.
        fresh_model = CostModel(
            instance,
            update_fraction=update_fraction,
            cache_size=64 if cached else 0,
        )
        assert fresh_model.object_cost_kernel(k, columns).tolist() == scalar
        assert model.object_cost_kernel(k, columns).tolist() == scalar
        assert [
            float(model.object_cost_kernel(k, c[None, :])[0]) for c in columns
        ] == scalar
        total += scalar[0]
    fresh = uncached.total_cost(scheme, cached=False)
    assert model.total_cost(scheme) == fresh
    assert model.population_costs([mat]).tolist() == [fresh]
    assert total == pytest.approx(
        reference_total_cost(
            instance, scheme, update_fraction=update_fraction
        )
    )
