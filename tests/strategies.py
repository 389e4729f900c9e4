"""Hypothesis strategies shared by the property-based tests.

Instances are drawn by dimension + seed and realised through the Section
6.1 generator, which keeps examples shrinkable (hypothesis shrinks the
dimensions and seed) while exercising realistic structure.

The Section 6.1 generator draws integer link costs, on which most float
reductions are exact whatever their order.  :func:`float_instances`
instead takes shortest paths over a Waxman graph (as the conformance
corpus's ``waxman`` topology does), so costs are non-integer and any two
pricing paths that accumulate in different orders disagree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import DRPInstance, ReplicationScheme
from repro.network import waxman_topology
from repro.utils.rng import as_generator
from repro.workload import WorkloadSpec, generate_instance

#: the write-shipping policies the float-instance strategy draws from
UPDATE_FRACTIONS = (1.0, 0.3, 0.1)


@st.composite
def drp_instances(
    draw,
    max_sites: int = 6,
    max_objects: int = 6,
    max_update_ratio: float = 0.3,
):
    """A small random DRP instance."""
    num_sites = draw(st.integers(2, max_sites))
    num_objects = draw(st.integers(1, max_objects))
    update_pct = draw(st.integers(0, int(max_update_ratio * 100)))
    capacity_pct = draw(st.integers(10, 60))
    seed = draw(st.integers(0, 2**16))
    spec = WorkloadSpec(
        num_sites=num_sites,
        num_objects=num_objects,
        update_ratio=update_pct / 100.0,
        capacity_ratio=capacity_pct / 100.0,
        size_mean=draw(st.integers(2, 12)),
    )
    return generate_instance(spec, rng=seed)


def _random_scheme(draw, instance: DRPInstance) -> ReplicationScheme:
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    scheme = ReplicationScheme.primary_only(instance)
    attempts = draw(st.integers(0, 20))
    for _ in range(attempts):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if scheme.holds(site, obj):
            continue
        if scheme.remaining_capacity()[site] >= instance.sizes[obj]:
            scheme.add_replica(site, obj)
    return scheme


@st.composite
def instances_with_schemes(draw, **kwargs):
    """An instance plus a random valid replication scheme on it."""
    instance = draw(drp_instances(**kwargs))
    return instance, _random_scheme(draw, instance)


@st.composite
def float_instances(draw, max_sites: int = 10, max_objects: int = 6):
    """``(instance, scheme, update_fraction)`` with non-integer costs.

    The cost matrix is the shortest-path closure of a Waxman graph whose
    link costs are scaled Euclidean distances; reads, writes, sizes and
    capacities come from the Section 6.1 generator as usual.
    """
    num_sites = draw(st.integers(3, max_sites))
    spec = WorkloadSpec(
        num_sites=num_sites,
        num_objects=draw(st.integers(1, max_objects)),
        update_ratio=draw(st.integers(0, 80)) / 100.0,
        capacity_ratio=draw(st.integers(10, 60)) / 100.0,
    )
    rng = as_generator(draw(st.integers(0, 2**16)))
    cost = waxman_topology(
        num_sites, alpha=0.9, beta=0.9, rng=rng
    ).cost_matrix()
    instance = generate_instance(spec, rng=rng, cost=cost)
    scheme = _random_scheme(draw, instance)
    return instance, scheme, draw(st.sampled_from(UPDATE_FRACTIONS))


__all__ = [
    "UPDATE_FRACTIONS",
    "drp_instances",
    "float_instances",
    "instances_with_schemes",
]
