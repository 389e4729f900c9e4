"""Cross-module integration: the full paper workflow on one instance.

This is the library's "story test": generate a Section 6.1 network, solve
it statically (SRA, GRA, exact), validate the analytic cost model against
the request-level simulator and the distributed protocol, drift the
patterns, adapt with AGRA, and realise the new scheme — asserting the
paper's qualitative claims at every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AGRA, AGRAParams, GAParams, GRA, SRA, solve_optimal
from repro.core import CostModel, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.distributed import DistributedSRA
from repro.sim import AdaptiveReplicationLoop, ReplicaSystem
from repro.workload import (
    WorkloadSpec,
    apply_pattern_change,
    generate_instance,
    generate_trace,
)
from repro.workload.mutation import detect_changed_objects

GRA_PARAMS = GAParams(population_size=12, generations=12)
AGRA_PARAMS = AGRAParams(population_size=8, generations=12)


@pytest.fixture(scope="module")
def instance():
    return generate_instance(
        WorkloadSpec(num_sites=12, num_objects=24, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=500,
    )


def test_full_static_pipeline(instance):
    model = CostModel(instance)

    sra = SRA().run(instance, model)
    gra = GRA(GRA_PARAMS, rng=1).run(instance, model)

    # both help, GRA at least as much as SRA (it embeds SRA + elitism)
    assert sra.savings_percent > 0.0
    assert gra.total_cost <= sra.total_cost * 1.02

    # analytic D cross-checked against the slow reference
    for result in (sra, gra):
        assert result.total_cost == pytest.approx(
            reference_total_cost(instance, result.scheme)
        )

    # distributed SRA produces the identical scheme
    distributed = DistributedSRA().run(instance)
    assert np.array_equal(distributed.scheme.matrix, sra.scheme.matrix)

    # the simulator measures exactly the analytic cost
    system = ReplicaSystem(instance, gra.scheme)
    system.replay(generate_trace(instance, rng=2))
    assert system.metrics.request_ntc == pytest.approx(gra.total_cost)


def test_optimality_gap_small_on_tiny_instance():
    tiny = generate_instance(
        WorkloadSpec(num_sites=5, num_objects=6, update_ratio=0.05,
                     capacity_ratio=0.3),
        rng=501,
    )
    model = CostModel(tiny)
    optimal = solve_optimal(tiny, model)
    sra = SRA().run(tiny, model)
    gra = GRA(GRA_PARAMS, rng=3).run(tiny, model)
    assert optimal.total_cost <= sra.total_cost + 1e-9
    assert optimal.total_cost <= gra.total_cost + 1e-9
    # GRA should land within a few percent of optimal at this scale
    gap = (gra.total_cost - optimal.total_cost) / optimal.total_cost
    assert gap < 0.05


def test_full_adaptive_pipeline(instance):
    gra = GRA(GRA_PARAMS, rng=4)
    static_result, population = gra.run_with_population(instance)
    seeds = [member.matrix for member in population.members]

    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 1.0, rng=5)
    changed = detect_changed_objects(instance, drifted)
    assert changed

    new_model = CostModel(drifted)
    stale_savings = new_model.savings_percent(static_result.scheme)

    agra = AGRA(AGRA_PARAMS, gra_params=GRA_PARAMS, rng=6)
    adapted = agra.adapt(
        drifted, static_result.scheme, changed,
        seed_matrices=seeds, mini_gra_generations=5,
    )
    assert adapted.savings_percent >= stale_savings
    assert adapted.scheme.is_valid()

    # realising the adapted scheme in the simulator converges and costs
    # migration traffic only
    system = ReplicaSystem(drifted, static_result.scheme)
    system.realize_scheme(adapted.scheme)
    assert np.array_equal(system.scheme.matrix, adapted.scheme.matrix)
    assert system.metrics.request_ntc == 0.0


def test_monitor_loop_story(instance):
    gra = GRA(GRA_PARAMS, rng=7)
    static_result, population = gra.run_with_population(instance)
    drift1, _ = apply_pattern_change(instance, 6.0, 0.25, 1.0, rng=8)
    drift2, _ = apply_pattern_change(drift1, 6.0, 0.25, 0.0, rng=9)
    loop = AdaptiveReplicationLoop(
        instance,
        static_result.scheme,
        mini_gra_generations=4,
        agra_params=AGRA_PARAMS,
        gra_params=GRA_PARAMS,
        seed_matrices=[m.matrix for m in population.members],
        rng=10,
    )
    report = loop.run([instance, drift1, drift2])
    assert len(report.epochs) == 3
    assert report.epochs[0].adapted is False
    assert report.final_scheme.is_valid()
    # the simulator's cumulative ledger includes every epoch's traffic
    assert report.metrics.request_ntc > 0.0


def test_response_time_improves_with_replication(instance):
    # the introduction's motivation: replication reduces response time
    from repro.sim.metrics import SimulationMetrics

    trace = generate_trace(instance, rng=11)
    base = ReplicaSystem(
        instance,
        ReplicationScheme.primary_only(instance),
        metrics=SimulationMetrics(
            instance.num_sites, instance.num_objects, unit_latency=0.001
        ),
    )
    base.replay(trace)
    replicated = ReplicaSystem(
        instance,
        SRA().run(instance).scheme,
        metrics=SimulationMetrics(
            instance.num_sites, instance.num_objects, unit_latency=0.001
        ),
    )
    replicated.replay(trace)
    assert (
        replicated.metrics.mean_read_latency()
        < base.metrics.mean_read_latency()
    )
