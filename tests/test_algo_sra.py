"""SRA: greedy behaviour, invariants, and paper-expected properties."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import SRA, NoReplication
from repro.core import CostModel, DRPInstance, ReplicationScheme
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.errors import ValidationError
from repro.network.generators import waxman_topology
from repro.network.shortest_paths import floyd_warshall
from repro.utils.rng import as_generator
from repro.workload import (
    SparseProblem,
    WorkloadSpec,
    generate_instance,
)


def test_result_packaging(small_instance):
    result = SRA().run(small_instance)
    assert result.algorithm == "SRA"
    assert result.runtime_seconds >= 0.0
    assert result.d_prime > 0.0
    assert result.scheme.is_valid()
    assert "replicas_created" in result.stats


def test_never_violates_capacity():
    for seed in range(8):
        inst = generate_instance(
            WorkloadSpec(num_sites=10, num_objects=20, update_ratio=0.05,
                         capacity_ratio=0.1),
            rng=seed,
        )
        result = SRA().run(inst)
        assert result.scheme.is_valid()


def test_never_worse_than_no_replication(small_instance):
    model = CostModel(small_instance)
    sra = SRA().run(small_instance, model)
    base = NoReplication().run(small_instance, model)
    assert sra.total_cost <= base.total_cost + 1e-9
    assert sra.savings_percent >= 0.0


def test_deterministic_round_robin(small_instance):
    a = SRA().run(small_instance)
    b = SRA().run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_random_order_uses_rng(medium_instance):
    a = SRA(site_order="random", rng=1).run(medium_instance)
    b = SRA(site_order="random", rng=2).run(medium_instance)
    # different orders almost surely give different schemes on a medium
    # instance (but both remain valid)
    assert a.scheme.is_valid() and b.scheme.is_valid()
    assert not np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_random_order_deterministic_per_seed(small_instance):
    a = SRA(site_order="random", rng=7).run(small_instance)
    b = SRA(site_order="random", rng=7).run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_invalid_site_order():
    with pytest.raises(ValidationError):
        SRA(site_order="zigzag")


def test_no_replication_when_writes_dominate(manual_instance):
    # make every object overwhelmingly update-heavy
    writes = manual_instance.writes + 1000.0
    heavy = manual_instance.with_patterns(writes=writes)
    result = SRA().run(heavy)
    assert result.extra_replicas == 0
    assert result.savings_percent == pytest.approx(0.0)


def test_full_replication_when_read_only_and_roomy():
    # no writes + abundant capacity -> replicate everything everywhere
    inst = generate_instance(
        WorkloadSpec(num_sites=5, num_objects=6, update_ratio=0.0,
                     capacity_ratio=3.0),
        rng=11,
    )
    result = SRA().run(inst)
    assert result.extra_replicas == (
        inst.num_sites * inst.num_objects - inst.num_objects
    )
    # every read is now local: 100% of the read cost saved
    assert result.savings_percent == pytest.approx(100.0)


def test_greedy_step_chooses_best_benefit(manual_instance):
    # On the manual instance, the single most beneficial replica is
    # object 0 at site 2 (benefit 15 per unit).  SRA must create it.
    result = SRA().run(manual_instance)
    assert result.scheme.holds(2, 0)


def test_savings_decrease_with_update_ratio():
    base_spec = WorkloadSpec(
        num_sites=12, num_objects=25, capacity_ratio=0.15, update_ratio=0.01
    )
    savings = []
    for ratio in (0.01, 0.1, 0.3):
        inst = generate_instance(
            base_spec.with_overrides(update_ratio=ratio), rng=21
        )
        savings.append(SRA().run(inst).savings_percent)
    assert savings[0] > savings[1] > savings[2] - 1e-9


def test_stats_counters_consistent(small_instance):
    result = SRA().run(small_instance)
    assert result.stats["replicas_created"] == result.extra_replicas
    assert result.stats["site_visits"] >= result.stats["replication_steps"]


# --------------------------------------------------------------------- #
# C is read by column: C(i, j) with i the reading site
# --------------------------------------------------------------------- #
def _near_symmetric_instance() -> DRPInstance:
    """Waxman float costs skewed above the diagonal by up to 5e-6.

    ``DRPInstance`` accepts the skew (it checks symmetry with
    ``allclose``), and reading ``C`` by row instead of by column changes
    this instance's SRA scheme.
    """
    topology = waxman_topology(
        10, alpha=0.9, beta=0.9, rng=np.random.default_rng(8)
    )
    cost = floyd_warshall(topology.adjacency_matrix())
    noise = np.random.default_rng(9).uniform(0.0, 5e-6, cost.shape)
    skewed = cost * (1.0 + np.triu(noise, 1))
    assert not np.array_equal(skewed, skewed.T)
    assert np.allclose(skewed, skewed.T)
    return generate_instance(
        WorkloadSpec(num_sites=10, num_objects=40, update_ratio=0.1,
                     capacity_ratio=0.3, size_mean=6),
        rng=10,
        cost=skewed,
    )


def test_near_symmetric_cost_golden():
    result = SRA().run(_near_symmetric_instance())
    digest = hashlib.sha256(result.scheme.matrix.tobytes()).hexdigest()
    assert digest == (
        "b92e9115a83d07fa4d934396e0bed5ad14e395c0243f2a4300bd9756511e7189"
    )
    assert result.total_cost == 153031.05077245785
    assert result.d_prime == 242401.542920849
    assert result.stats["site_visits"] == 92
    assert result.stats["replication_steps"] == 86
    assert result.stats["benefit_evaluations"] == 1190


# --------------------------------------------------------------------- #
# differential test against the paper's pseudocode
# --------------------------------------------------------------------- #
def _reference_sra(instance, site_order, seed, update_fraction):
    """Section 3's SRA in plain Python, re-deriving every benefit.

    Each visit recomputes ``SN`` from the scheme and Eq. 5 from the raw
    counts; candidates that do not fit or have no positive benefit leave
    ``L_i`` for good, and the first maximum in ascending object order
    wins.
    """
    m, n = instance.num_sites, instance.num_objects
    cost = instance.cost.tolist()
    reads = instance.reads.tolist()
    writes = instance.writes.tolist()
    sizes = [float(size) for size in instance.sizes]
    primaries = [int(p) for p in instance.primaries]
    rng = as_generator(seed)
    scheme = ReplicationScheme.primary_only(instance)
    remaining = scheme.remaining_capacity().tolist()
    lists = [[k for k in range(n) if primaries[k] != i] for i in range(m)]
    active = [i for i in range(m) if lists[i]]
    visits = steps = evaluations = 0
    cursor = 0
    while active:
        visits += 1
        if site_order == "random":
            pos = int(rng.integers(len(active)))
        else:
            pos = cursor % len(active)
        site = active[pos]
        best, best_benefit = None, 0.0
        survivors = []
        for k in lists[site]:
            evaluations += 1
            nearest = min(
                cost[site][j] for j in range(m) if scheme.holds(j, k)
            )
            other_writes = sum(writes[x][k] for x in range(m)) - writes[site][k]
            benefit = (
                reads[site][k] * nearest
                - update_fraction * other_writes * cost[site][primaries[k]]
            )
            if benefit <= 0.0 or sizes[k] > remaining[site] + CAPACITY_TOLERANCE:
                continue
            survivors.append(k)
            if benefit > best_benefit:
                best, best_benefit = k, benefit
        if best is not None:
            steps += 1
            scheme.add_replica(site, best)
            remaining[site] -= instance.sizes[best]
            survivors.remove(best)
        lists[site] = survivors
        if not survivors:
            active.pop(pos)
            if site_order == "round-robin" and active:
                cursor = pos % len(active)
        elif site_order == "round-robin":
            cursor = (pos + 1) % len(active)
    return scheme, {
        "site_visits": visits,
        "replication_steps": steps,
        "benefit_evaluations": evaluations,
    }


@st.composite
def sra_cases(draw):
    """An instance (dense or sparse) plus SRA settings."""
    num_sites = draw(st.integers(2, 7))
    spec = WorkloadSpec(
        num_sites=num_sites,
        num_objects=draw(st.integers(1, 9)),
        update_ratio=draw(st.integers(0, 40)) / 100.0,
        capacity_ratio=draw(st.integers(10, 80)) / 100.0,
        size_mean=draw(st.integers(2, 10)),
    )
    seed = draw(st.integers(0, 2**16))
    cost = None
    if draw(st.booleans()):
        topology = waxman_topology(
            num_sites, alpha=0.9, beta=0.9, rng=np.random.default_rng(seed)
        )
        cost = floyd_warshall(topology.adjacency_matrix())
    instance = generate_instance(spec, rng=seed, cost=cost)
    problem = instance
    if draw(st.booleans()):
        # Float sizes: shrinking every object keeps the primaries feasible.
        instance = DRPInstance(
            cost=instance.cost,
            sizes=instance.sizes * 0.73,
            capacities=instance.capacities,
            reads=instance.reads,
            writes=instance.writes,
            primaries=instance.primaries,
        )
        problem = instance
    elif draw(st.booleans()):
        problem = SparseProblem.from_instance(instance)
    site_order = draw(st.sampled_from(["round-robin", "random"]))
    update_fraction = draw(st.sampled_from([1.0, 0.5]))
    return instance, problem, site_order, draw(st.integers(0, 99)), update_fraction


@settings(max_examples=60, deadline=None)
@given(sra_cases())
def test_matches_reference_pseudocode(case):
    instance, problem, site_order, seed, update_fraction = case
    result = SRA(
        site_order=site_order, rng=seed, update_fraction=update_fraction
    ).run(problem)
    scheme, stats = _reference_sra(instance, site_order, seed, update_fraction)
    assert np.array_equal(result.scheme.matrix, scheme.matrix)
    for key, value in stats.items():
        assert result.stats[key] == value, key
