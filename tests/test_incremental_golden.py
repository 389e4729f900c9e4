"""Committed goldens for every algorithm's production evaluation path.

Each algorithm has one pricing path (the incremental evaluator, delta
chains or the SRA nearest-cost table).  These tests pin what that path
produces on fixed seeds: the sha256 of the scheme matrix, ``total_cost``
and the stochastic stats that betray any change in RNG consumption
(iterations, accepted moves, fitness histories, evaluation counts,
per-epoch migrations and NTC).  Every ``total_cost`` is also checked
against the naive :func:`~repro.core.cost.reference_total_cost` loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.agra.engine import AGRA
from repro.algorithms.agra.micro_ga import run_micro_ga
from repro.algorithms.agra.params import AGRAParams
from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams
from repro.algorithms.localsearch import HillClimbing, SimulatedAnnealing
from repro.algorithms.sra import SRA
from repro.conformance.oracle import REFERENCE_RTOL
from repro.core import CostModel
from repro.core.cost import reference_total_cost
from repro.core.problem import DRPInstance
from repro.sim.adaptive import AdaptiveReplicationLoop
from repro.workload import WorkloadSpec, generate_instance
from repro.workload.mutation import apply_pattern_change

#: scheme digest shared by SRA, the SRA-seeded local searches and GRA on
#: ``small_instance`` (none of them improves on the greedy there)
SRA_SCHEME = "27248b3740c0a87a685698baf3415d621a8776dd41a4e01ba68a84db9ca2e60d"
SRA_COST = 319510.0


def digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(matrix, dtype=bool).tobytes()
    ).hexdigest()


def assert_golden(result, instance, scheme_digest, total_cost):
    assert digest(result.scheme.matrix) == scheme_digest
    assert result.total_cost == total_cost
    assert result.total_cost == pytest.approx(
        reference_total_cost(instance, result.scheme), rel=REFERENCE_RTOL
    )


def test_sra_golden(small_instance):
    for order, visits, evaluations in [
        ("round-robin", 13, 133),
        ("random", 13, 134),
    ]:
        result = SRA(site_order=order, rng=5).run(
            small_instance, CostModel(small_instance)
        )
        assert_golden(result, small_instance, SRA_SCHEME, SRA_COST)
        assert result.stats["site_visits"] == visits
        assert result.stats["benefit_evaluations"] == evaluations


def test_hill_climbing_golden(small_instance):
    for kwargs, scheme_digest, total_cost, iterations in [
        ({"rng": 11}, SRA_SCHEME, SRA_COST, 0),
        (
            {"rng": 13, "seed_with_sra": False},
            "cb99c0059cf95d1fd0a41a9755387c7cef6acb234a3750e5414ed980ace3d954",
            319530.0,
            5,
        ),
    ]:
        result = HillClimbing(**kwargs).run(
            small_instance, CostModel(small_instance)
        )
        assert_golden(result, small_instance, scheme_digest, total_cost)
        assert result.stats["iterations"] == iterations


def test_simulated_annealing_golden(small_instance):
    for kwargs, scheme_digest, total_cost, accepted in [
        ({"rng": 12}, SRA_SCHEME, SRA_COST, 1),
        (
            {"rng": 14, "seed_with_sra": False},
            "428741c0cf33d4f1256beca5a08cb2933591d34072e8ee8b2ce0e5f6105f9a9d",
            322788.0,
            10,
        ),
    ]:
        result = SimulatedAnnealing(steps=600, **kwargs).run(
            small_instance, CostModel(small_instance)
        )
        assert_golden(result, small_instance, scheme_digest, total_cost)
        assert result.stats["accepted_moves"] == accepted
        assert result.stats["final_temperature"] == 201.99313734130547


def test_gra_golden(small_instance):
    params = GAParams(population_size=8, generations=6)
    algo = GRA(params=params, rng=21)
    result = algo.run(small_instance, algo.make_cost_model(small_instance))
    assert_golden(result, small_instance, SRA_SCHEME, SRA_COST)
    assert result.stats.history("best_fitness") == [0.1321577766550958] * 7
    assert result.stats.history("mean_fitness") == [
        0.11636361043659653,
        0.12991286539224153,
        0.12991286539224153,
        0.13066116914652628,
        0.13140947290081104,
        0.1321577766550958,
        0.1321577766550958,
    ]
    assert result.stats["evaluations"] == 6


def test_micro_ga_golden(small_instance):
    model = CostModel(small_instance)
    obj = 3
    column = np.zeros(small_instance.num_sites, dtype=bool)
    column[int(small_instance.primaries[obj])] = True
    micro = run_micro_ga(
        small_instance, model, obj, column,
        params=AGRAParams(population_size=6, generations=10), rng=31,
    )
    assert micro.evaluations == 66
    assert micro.fitnesses == [
        0.7291666666666666,
        0.7291666666666666,
        0.7291666666666666,
        0.7291666666666666,
        0.7125,
        0.7083333333333334,
    ]
    assert digest(np.stack(micro.columns)) == (
        "4e236050f90ea287ffc9cb3c4464537df20484397661e9e6bc4c6352d7f90bf2"
    )
    assert model.cache_info() == {
        "entries": 13,
        "capacity": 200000,
        "hits": 53,
        "misses": 13,
        "evictions": 0,
        "hit_rate": 0.803030303030303,
    }


def test_agra_golden(small_instance):
    current = SRA().run(small_instance, CostModel(small_instance)).scheme
    rng = np.random.default_rng(41)
    reads = small_instance.reads.copy().astype(float)
    changed = [1, 4]
    for k in changed:
        reads[:, k] = reads[:, k] * 3.0 + rng.integers(
            0, 4, size=small_instance.num_sites
        )
    drifted = DRPInstance(
        cost=small_instance.cost,
        sizes=small_instance.sizes,
        capacities=small_instance.capacities,
        reads=reads,
        writes=small_instance.writes,
        primaries=small_instance.primaries,
    )
    agra = AGRA(
        params=AGRAParams(population_size=6, generations=6),
        gra_params=GAParams(population_size=6, generations=4),
        rng=51,
    )
    result = agra.adapt(
        drifted, current, changed,
        seed_matrices=[current.matrix], mini_gra_generations=3,
    )
    assert_golden(
        result,
        drifted,
        "31a2bc91d7e3fdf775436afd3b4ff2176c7d5aa576043c3b2653b534555c273b",
        492570.0,
    )
    assert result.stats["micro_evaluations"] == 84


def test_adaptive_loop_golden():
    instance = generate_instance(
        WorkloadSpec(num_sites=6, num_objects=8, read_low=1, read_high=4,
                     capacity_ratio=0.3),
        rng=61,
    )
    scheme = SRA().run(instance, CostModel(instance)).scheme
    epochs = []
    cur = instance
    rng = np.random.default_rng(62)
    for _ in range(2):
        cur, _ = apply_pattern_change(
            cur, change_percent=90.0, object_share=0.4, read_share=0.5,
            rng=rng,
        )
        epochs.append(cur)

    loop = AdaptiveReplicationLoop(
        instance, scheme, threshold=0.3, mini_gra_generations=2,
        agra_params=AGRAParams(population_size=4, generations=4),
        gra_params=GAParams(population_size=6, generations=4),
        rng=63,
    )
    report = loop.run(epochs)
    final = report.final_scheme
    assert digest(final.matrix) == (
        "a3903129e86e134cdfd95ab581f9580bc84df4d2cc0d69e5feee889ae1e1fda3"
    )
    final_cost = CostModel(epochs[-1]).total_cost(final)
    assert final_cost == 1398594.0
    assert final_cost == pytest.approx(
        reference_total_cost(epochs[-1], final), rel=REFERENCE_RTOL
    )
    assert [
        (r.changed_objects, r.adapted, r.migrations, r.measured_ntc)
        for r in report.epochs
    ] == [([2, 4, 7], True, 1, 498541.0), ([0, 1, 3], False, 0, 1398594.0)]
    assert report.savings_series() == [7.125505318653477, 7.289099362700971]
