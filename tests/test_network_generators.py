"""Topology generators, including the paper's random complete graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.network import (
    Topology,
    paper_cost_matrix,
    random_mesh_topology,
    random_tree_topology,
    ring_topology,
    star_topology,
    waxman_topology,
)
from repro.network.shortest_paths import is_metric


def test_random_mesh_complete():
    topo = random_mesh_topology(8, rng=1)
    assert topo.num_links == 8 * 7 // 2
    for _, _, cost in topo.links():
        assert 1 <= cost <= 10


def test_random_mesh_cost_bounds_respected():
    topo = random_mesh_topology(6, min_cost=3, max_cost=4, rng=2)
    assert all(3 <= c <= 4 for _, _, c in topo.links())


def test_random_mesh_deterministic():
    a = random_mesh_topology(6, rng=5)
    b = random_mesh_topology(6, rng=5)
    assert a == b


def test_paper_cost_matrix_is_metric_closure():
    cost = paper_cost_matrix(12, rng=7)
    assert cost.shape == (12, 12)
    assert np.allclose(cost, cost.T)
    assert np.all(np.diagonal(cost) == 0.0)
    assert is_metric(cost)
    off_diag = cost[~np.eye(12, dtype=bool)]
    assert np.all(off_diag >= 1.0)
    assert np.all(off_diag <= 10.0)  # closure never exceeds the direct link


def test_paper_cost_matrix_single_site():
    assert paper_cost_matrix(1).shape == (1, 1)


def test_tree_topology_is_tree():
    topo = random_tree_topology(15, rng=3)
    assert topo.num_links == 14
    assert topo.is_connected()


def test_ring_topology():
    topo = ring_topology(5, cost=2.0)
    assert topo.num_links == 5
    assert all(topo.degree(i) == 2 for i in range(5))
    with pytest.raises(ValidationError):
        ring_topology(2)


def test_star_topology():
    topo = star_topology(6, hub=2)
    assert topo.degree(2) == 5
    assert all(topo.degree(i) == 1 for i in range(6) if i != 2)
    with pytest.raises(ValidationError):
        star_topology(6, hub=6)


def test_waxman_connected_and_deterministic():
    a = waxman_topology(12, rng=11)
    b = waxman_topology(12, rng=11)
    assert a.is_connected()
    assert a == b


def test_waxman_rejects_bad_params():
    with pytest.raises(ValidationError):
        waxman_topology(5, alpha=0.0)
    with pytest.raises(ValidationError):
        waxman_topology(1)


def test_generators_reject_bad_sizes():
    with pytest.raises(ValidationError):
        random_mesh_topology(0)
    with pytest.raises(ValidationError):
        random_mesh_topology(3, min_cost=5, max_cost=4)


# --------------------------------------------------------------------- #
# the vectorised mesh draw is the scalar per-link draw, stream included
# --------------------------------------------------------------------- #
def scalar_mesh_reference(num_sites, min_cost, max_cost, gen):
    """One scalar draw and one ``add_link`` per link, row-major ``i < j``."""
    topo = Topology(num_sites)
    for i in range(num_sites):
        for j in range(i + 1, num_sites):
            topo.add_link(i, j, int(gen.integers(min_cost, max_cost + 1)))
    return topo


@pytest.mark.parametrize(
    "num_sites, min_cost, max_cost",
    [
        (1, 1, 10),
        (2, 1, 10),  # one pair
        (3, 1, 10),  # three pairs (odd)
        (6, 1, 10),  # fifteen pairs (odd)
        (8, 1, 10),  # 28 pairs (even)
        (13, 3, 1000),
        (11, 5, 5),  # min_cost == max_cost
        (10, 1, 2**40),
    ],
)
def test_mesh_matches_scalar_reference(num_sites, min_cost, max_cost):
    gen_ref = np.random.default_rng(7)
    gen_new = np.random.default_rng(7)
    ref = scalar_mesh_reference(num_sites, min_cost, max_cost, gen_ref)
    topo = random_mesh_topology(num_sites, min_cost, max_cost, gen_new)
    assert topo == ref
    assert np.array_equal(topo.adjacency_matrix(), ref.adjacency_matrix())
    for i in range(num_sites):
        assert list(topo.neighbors(i).items()) == list(ref.neighbors(i).items())
    # the generator is left where the scalar draws leave it
    assert gen_new.bit_generator.state == gen_ref.bit_generator.state
    assert gen_new.integers(0, 2**62) == gen_ref.integers(0, 2**62)

