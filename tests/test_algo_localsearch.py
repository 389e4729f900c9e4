"""Hill climbing and simulated annealing comparators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    HillClimbing,
    SimulatedAnnealing,
    SRA,
    solve_optimal,
)
from repro.algorithms.localsearch import MOVE_SWAP, _sample_moves
from repro.core import CostModel, DRPInstance, ReplicationScheme
from repro.core.incremental import IncrementalCostEvaluator
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, generate_instance


def test_hill_climbing_valid_and_improves_on_start(small_instance):
    model = CostModel(small_instance)
    sra = SRA().run(small_instance, model)
    hc = HillClimbing(rng=1).run(small_instance, model)
    assert hc.scheme.is_valid()
    # seeded with SRA and only applies improving moves
    assert hc.total_cost <= sra.total_cost + 1e-9


def test_hill_climbing_from_primary_only(small_instance):
    model = CostModel(small_instance)
    hc = HillClimbing(seed_with_sra=False, rng=2).run(
        small_instance, model
    )
    assert hc.scheme.is_valid()
    assert hc.savings_percent >= 0.0
    assert hc.stats["seeded"] is False


def test_hill_climbing_deterministic(small_instance):
    a = HillClimbing(rng=3).run(small_instance)
    b = HillClimbing(rng=3).run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_hill_climbing_reaches_optimum_on_tiny(tiny_instance):
    model = CostModel(tiny_instance)
    optimal = solve_optimal(tiny_instance, model)
    hc = HillClimbing(neighbourhood=128, rng=4).run(tiny_instance, model)
    gap = hc.total_cost - optimal.total_cost
    assert gap >= -1e-9
    # tiny instances have shallow landscapes: HC should get very close
    assert hc.total_cost <= optimal.total_cost * 1.05 + 1e-9


def test_hill_climbing_validation():
    with pytest.raises(ValidationError):
        HillClimbing(neighbourhood=0)
    with pytest.raises(ValidationError):
        HillClimbing(max_iterations=-1)
    with pytest.raises(ValidationError):
        HillClimbing(patience=0)


def test_annealing_valid_and_seeded(small_instance):
    model = CostModel(small_instance)
    sa = SimulatedAnnealing(steps=1500, rng=5).run(small_instance, model)
    assert sa.scheme.is_valid()
    assert sa.savings_percent >= 0.0
    assert sa.stats["accepted_moves"] >= 0


def test_annealing_returns_best_ever(small_instance):
    # the returned cost can never exceed the SRA seed it started from
    model = CostModel(small_instance)
    sra = SRA().run(small_instance, model)
    sa = SimulatedAnnealing(steps=800, rng=6).run(small_instance, model)
    assert sa.total_cost <= sra.total_cost + 1e-9


def test_annealing_deterministic(small_instance):
    a = SimulatedAnnealing(steps=500, rng=7).run(small_instance)
    b = SimulatedAnnealing(steps=500, rng=7).run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_annealing_zero_steps_is_seed(small_instance):
    model = CostModel(small_instance)
    sra = SRA().run(small_instance, model)
    sa = SimulatedAnnealing(steps=0, rng=8).run(small_instance, model)
    assert sa.total_cost == pytest.approx(sra.total_cost)


def test_annealing_validation():
    with pytest.raises(ValidationError):
        SimulatedAnnealing(steps=-1)
    with pytest.raises(ValidationError):
        SimulatedAnnealing(initial_temperature=0.0)
    with pytest.raises(ValidationError):
        SimulatedAnnealing(cooling=1.5)


def test_both_improve_on_high_update_instance():
    # the regime where greedy struggles: local search should at least
    # not be worse than SRA (drops/swaps can undo bad greed)
    inst = generate_instance(
        WorkloadSpec(num_sites=12, num_objects=24, update_ratio=0.15,
                     capacity_ratio=0.15),
        rng=61,
    )
    model = CostModel(inst)
    sra = SRA().run(inst, model)
    hc = HillClimbing(rng=9).run(inst, model)
    sa = SimulatedAnnealing(steps=2500, rng=10).run(inst, model)
    assert hc.total_cost <= sra.total_cost + 1e-9
    assert sa.total_cost <= sra.total_cost + 1e-9


def _float_size_instance(sizes) -> DRPInstance:
    """Two sites; every primary at site 0, every read at site 1."""
    n = len(sizes)
    return DRPInstance(
        cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        sizes=np.array(sizes),
        capacities=np.array([2.0, 1.0]),
        reads=np.array([[0] * n, [45] * n]),
        writes=np.zeros((2, n), dtype=int),
        primaries=np.zeros(n, dtype=int),
    )


def test_hill_climbing_adds_float_sizes_that_fit_up_to_rounding():
    # 1.0 - 0.1 - 0.8 leaves 0.09999999999999998 at site 1; the scheme
    # (and SRA) accept the last 0.1 within the capacity slack, so the
    # local search must propose it too.
    inst = _float_size_instance([0.1, 0.8, 0.1])
    assert SRA().run(inst).total_cost == 0.0
    hc = HillClimbing(seed_with_sra=False, rng=0).run(inst)
    assert hc.total_cost == 0.0
    assert hc.scheme.matrix[1].all()


def test_swap_moves_free_float_sizes_up_to_rounding():
    # Site 1 holds 0.1 + 0.8; swapping the 0.1 out for a 0.2 lands on the
    # capacity exactly, which add_replica accepts.
    inst = _float_size_instance([0.1, 0.8, 0.2])
    scheme = ReplicationScheme.primary_only(inst)
    scheme.add_replica(1, 0)
    scheme.add_replica(1, 1)
    evaluator = IncrementalCostEvaluator(CostModel(inst), scheme)
    moves = _sample_moves(
        inst, scheme, np.random.default_rng(0), 200, evaluator
    )
    evaluator.detach()
    assert any(
        mv.kind == MOVE_SWAP and mv.add_obj == 2 and mv.drop_obj == 0
        for mv in moves
    )
