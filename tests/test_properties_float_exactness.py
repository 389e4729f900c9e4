"""Every Eq. 4 pricing path agrees exactly on non-integer costs.

The incremental evaluator, the one-shot deltas and the GA and micro-GA
batch pricing price a column through the same term function as the
scalar kernel.  On integer-valued costs most float sums are exact in any order,
so only float instances (shortest paths over a Waxman graph) can tell
whether they really share one arithmetic: these tests assert ``==``, not
a tolerance.  The batch-versus-scalar and cached-versus-uncached checks
live in ``test_properties_cost.py``, drawing from both instance kinds.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import AGRA, AGRAParams, GAParams, GRA
from repro.algorithms.agra import micro_ga
from repro.algorithms.gra.population import Population, primary_only_matrix
from repro.conformance import default_corpus
from repro.core import CostModel, ReplicationScheme, SparseCostModel
from repro.core.fitness import fitness_from_costs
from repro.core.incremental import (
    IncrementalCostEvaluator,
    single_add_delta,
    single_drop_delta,
)
from repro.network.generators import waxman_topology
from repro.utils.rng import as_generator
from repro.workload import WorkloadSpec, apply_pattern_change, generate_instance
from repro.workload.mutation import detect_changed_objects
from repro.workload.sparse import SparseProblem
from tests.strategies import float_instances

SETTINGS = settings(max_examples=40, deadline=None)


def _random_columns(instance, obj, rng, count=6):
    """Random replica columns of ``obj`` that keep its primary copy."""
    columns = rng.random((count, instance.num_sites)) < 0.4
    columns[:, int(instance.primaries[obj])] = True
    return columns


@SETTINGS
@given(float_instances(), st.integers(0, 2**16))
def test_evaluator_and_one_shot_deltas_equal_recompute(drawn, seed):
    instance, scheme, uf = drawn
    rng = np.random.default_rng(seed)
    model = CostModel(instance, update_fraction=uf)
    reference = CostModel(instance, update_fraction=uf, cache_size=0)
    evaluator = IncrementalCostEvaluator(model, scheme)
    primaries = instance.primaries
    for _ in range(4):
        assert evaluator.total_cost() == reference.total_cost(
            scheme, cached=False
        )
        for obj in range(instance.num_objects):
            column = scheme.matrix[:, obj]
            before = reference.object_cost(obj, column)
            for site in range(instance.num_sites):
                if site == int(primaries[obj]):
                    continue
                flipped = column.copy()
                flipped[site] = not column[site]
                exact = reference.object_cost(obj, flipped) - before
                if not column[site]:
                    assert evaluator.delta_add(site, obj) == exact
                    assert single_add_delta(model, scheme, site, obj) == exact
                    assert model.add_delta(scheme, site, obj) == exact
                else:
                    assert evaluator.delta_drop(site, obj) == exact
                    assert (
                        single_drop_delta(model, scheme, site, obj) == exact
                    )
                    assert model.drop_delta(scheme, site, obj) == exact
        # Move the scheme and let the listener patch the evaluator
        # before the next round.
        obj = int(rng.integers(instance.num_objects))
        site = int(rng.integers(instance.num_sites))
        if not scheme.holds(site, obj):
            if scheme.remaining_capacity()[site] >= instance.sizes[obj]:
                scheme.add_replica(site, obj)
        elif site != int(primaries[obj]):
            scheme.drop_replica(site, obj)
    evaluator.consistency_check()


def _write_heavy_float_instance():
    """A Waxman instance where most offspring cost more than ``D'``."""
    rng = as_generator(11)
    cost = waxman_topology(7, alpha=0.9, beta=0.9, rng=rng).cost_matrix()
    spec = WorkloadSpec(
        num_sites=7, num_objects=5, update_ratio=0.8, capacity_ratio=0.6
    )
    instance = generate_instance(spec, rng=rng, cost=cost)
    return instance, ReplicationScheme.primary_only(instance), 1.0


def _gra_pool_costs_exact(instance, uf, seed):
    """Evolve a small GRA and check every priced pool member.

    After each :meth:`Population.evaluate_all` every member's ``cost``
    must equal an uncached price of its matrix from a fresh model.
    Returns how many members the negative-fitness reset rewrote.
    """
    reference = CostModel(instance, update_fraction=uf, cache_size=0)
    primary_only = primary_only_matrix(instance)
    evaluate_all = Population.evaluate_all
    resets = []

    def spy(population):
        pending = [
            (member, member.matrix.copy())
            for member in population.members
            if member.fitness is None
        ]
        evaluate_all(population)
        for member, before in pending:
            if not np.array_equal(member.matrix, before):
                assert np.array_equal(member.matrix, primary_only)
                assert member.fitness == 0.0
                resets.append(member)
        for member in population.members:
            assert member.cost == reference.total_cost(
                member.matrix, cached=False
            )

    params = GAParams(population_size=6, generations=4, mutation_rate=0.3)
    with patch.object(Population, "evaluate_all", spy):
        GRA(params, rng=seed, update_fraction=uf).run(instance)
    return len(resets)


@SETTINGS
@given(float_instances(), st.integers(0, 2**16))
@example(_write_heavy_float_instance(), 3)
def test_gra_pool_costs_equal_fresh_price(drawn, seed):
    """GRA prices each generation's pool in one population_costs call;
    every member's cost, reset or not, is an exact fresh price."""
    instance, _, uf = drawn
    _gra_pool_costs_exact(instance, uf, seed)


def test_write_heavy_example_triggers_reset():
    """The pinned example above really exercises the reset branch."""
    instance, _, uf = _write_heavy_float_instance()
    assert _gra_pool_costs_exact(instance, uf, 3) > 0


@SETTINGS
@given(float_instances(), st.integers(0, 2**16), st.booleans())
def test_micro_ga_pool_fitness_equals_object_cost(drawn, seed, cache):
    """Every fitness the micro-GA hands to selection, and every fitness
    it returns, is ``f_A`` of an uncached scalar price of its column."""
    instance, scheme, uf = drawn
    model = CostModel(
        instance, update_fraction=uf, cache_size=200_000 if cache else 0
    )
    reference = CostModel(instance, update_fraction=uf, cache_size=0)
    params = AGRAParams(population_size=5, generations=4, mutation_rate=0.2)
    rng = np.random.default_rng(seed)
    for k in range(instance.num_objects):
        pools = []  # each priced stack; the reset edits it in place
        selected = []  # the fitness vector of each generation's pool
        batch = model.object_costs_batch
        select = micro_ga.stochastic_remainder_selection

        def spy_batch(obj, columns):
            pools.append(columns)
            return batch(obj, columns)

        def spy_select(fitness, count, gen):
            selected.append(np.array(fitness))
            return select(fitness, count, gen)

        with patch.object(model, "object_costs_batch", spy_batch), \
                patch.object(
                    micro_ga, "stochastic_remainder_selection", spy_select
                ):
            result = micro_ga.run_micro_ga(
                instance, model, k, scheme.matrix[:, k],
                seed_columns=[scheme.matrix[:, k]], params=params, rng=rng,
            )
        v_prime = model.primary_only_object_cost(k)

        def f_a(column):
            return fitness_from_costs(
                v_prime, reference.object_cost(k, column)
            )

        assert len(pools) == len(selected) + 1 == params.generations + 1
        for pool, fitness in zip(pools[1:], selected):
            assert fitness.tolist() == [f_a(column) for column in pool]
        assert result.fitnesses == [f_a(c) for c in result.columns]


@SETTINGS
@given(float_instances(), st.sampled_from([2, 3, 256]))
def test_tiled_model_equals_dense_model(drawn, tile):
    """The tile-backed model stores each weight column at another
    stride; every price and delta must still match the dense model."""
    instance, scheme, uf = drawn
    problem = SparseProblem.from_instance(instance)
    dense = CostModel(instance, update_fraction=uf)
    tiled = SparseCostModel(problem, update_fraction=uf, tile=tile)
    dense_eval = IncrementalCostEvaluator(dense, scheme)
    tiled_eval = IncrementalCostEvaluator(
        tiled, ReplicationScheme.from_matrix(problem, scheme.matrix)
    )
    assert tiled.total_cost(scheme.matrix) == dense.total_cost(scheme)
    assert tiled_eval.total_cost() == dense_eval.total_cost()
    for obj in range(instance.num_objects):
        for site in range(instance.num_sites):
            if not scheme.holds(site, obj):
                assert tiled_eval.delta_add(site, obj) == (
                    dense_eval.delta_add(site, obj)
                )
            elif site != int(instance.primaries[obj]):
                assert tiled_eval.delta_drop(site, obj) == (
                    dense_eval.delta_drop(site, obj)
                )


def _waxman_scenario():
    (scenario,) = [s for s in default_corpus() if s.name == "waxman-topology"]
    return scenario.build()


@pytest.mark.parametrize("uf", [1.0, 0.3])
@pytest.mark.parametrize("seed", range(12))
def test_agra_reported_cost_equals_fresh_price(seed, uf):
    """AGRA prices its result with the model whose cache its micro-GA
    and GA populations filled; that total must equal an uncached price
    of the same scheme from a fresh model."""
    instance = _waxman_scenario()
    gra_params = GAParams(population_size=10, generations=5)
    static, population = GRA(
        gra_params, rng=seed, update_fraction=uf
    ).run_with_population(instance)
    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 0.8, rng=seed)
    changed = detect_changed_objects(instance, drifted)
    result = AGRA(
        AGRAParams(population_size=8, generations=10),
        gra_params=gra_params,
        rng=seed,
        update_fraction=uf,
    ).adapt(
        drifted,
        static.scheme,
        changed,
        seed_matrices=[m.matrix for m in population.members],
    )
    fresh = CostModel(drifted, update_fraction=uf).total_cost(
        result.scheme, cached=False
    )
    assert result.total_cost == fresh
