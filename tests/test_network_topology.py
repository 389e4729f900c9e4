"""Topology construction, mutation and conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.network import (
    Topology,
    random_tree_topology,
    ring_topology,
    star_topology,
    waxman_topology,
)


def line_topology() -> Topology:
    return Topology(3, [(0, 1, 1.0), (1, 2, 2.0)])


def test_basic_construction():
    topo = line_topology()
    assert topo.num_sites == 3
    assert topo.num_links == 2
    assert topo.link_cost(0, 1) == 1.0
    assert topo.link_cost(1, 0) == 1.0  # bidirectional
    assert topo.link_cost(0, 2) is None


def test_duplicate_link_keeps_cheapest():
    topo = Topology(2, [(0, 1, 5.0), (0, 1, 3.0), (1, 0, 7.0)])
    assert topo.link_cost(0, 1) == 3.0
    assert topo.num_links == 1


def test_self_link_rejected():
    with pytest.raises(TopologyError):
        Topology(2, [(0, 0, 1.0)])


def test_non_positive_cost_rejected():
    with pytest.raises(TopologyError):
        Topology(2, [(0, 1, 0.0)])
    with pytest.raises(TopologyError):
        Topology(2, [(0, 1, -2.0)])


def test_out_of_range_site_rejected():
    with pytest.raises(TopologyError):
        Topology(2, [(0, 2, 1.0)])


def test_remove_link():
    topo = line_topology()
    topo.remove_link(0, 1)
    assert topo.link_cost(0, 1) is None
    with pytest.raises(TopologyError):
        topo.remove_link(0, 1)


def test_neighbors_returns_copy():
    topo = line_topology()
    nbrs = topo.neighbors(1)
    assert nbrs == {0: 1.0, 2: 2.0}
    nbrs[0] = 99.0
    assert topo.link_cost(0, 1) == 1.0


def test_links_iteration_each_once():
    topo = line_topology()
    assert list(topo.links()) == [(0, 1, 1.0), (1, 2, 2.0)]


def test_degree():
    topo = line_topology()
    assert topo.degree(1) == 2
    assert topo.degree(0) == 1


def test_connectivity():
    topo = line_topology()
    assert topo.is_connected()
    topo.remove_link(0, 1)
    assert not topo.is_connected()
    assert Topology(1).is_connected()


def test_adjacency_matrix():
    mat = line_topology().adjacency_matrix()
    assert mat[0, 1] == 1.0
    assert np.isinf(mat[0, 2])
    assert np.all(np.diagonal(mat) == 0.0)


def test_cost_matrix_shortest_path_closure():
    costs = line_topology().cost_matrix()
    assert costs[0, 2] == 3.0  # via site 1
    assert np.allclose(costs, costs.T)


def test_cost_matrix_disconnected_raises():
    topo = Topology(3, [(0, 1, 1.0)])
    with pytest.raises(TopologyError):
        topo.cost_matrix()


def test_from_adjacency_roundtrip():
    topo = line_topology()
    again = Topology.from_adjacency_matrix(topo.adjacency_matrix())
    assert again == topo


def test_from_adjacency_requires_symmetry():
    mat = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        Topology.from_adjacency_matrix(mat)


def test_dict_roundtrip():
    topo = line_topology()
    assert Topology.from_dict(topo.to_dict()) == topo


def test_repr():
    assert "num_sites=3" in repr(line_topology())


# --------------------------------------------------------------------- #
# bulk conversion and construction against per-link references
# --------------------------------------------------------------------- #
def per_link_adjacency(topo: Topology) -> np.ndarray:
    """The adjacency matrix filled one sorted link at a time."""
    mat = np.full((topo.num_sites, topo.num_sites), np.inf)
    np.fill_diagonal(mat, 0.0)
    for i, j, cost in topo.links():
        mat[i, j] = mat[j, i] = cost
    return mat


def per_pair_from_adjacency(mat: np.ndarray) -> Topology:
    """One ``add_link`` per upper-triangle pair that holds a link."""
    topo = Topology(mat.shape[0])
    for i in range(mat.shape[0]):
        for j in range(i + 1, mat.shape[0]):
            if np.isfinite(mat[i, j]) and mat[i, j] > 0:
                topo.add_link(i, j, mat[i, j])
    return topo


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_tree_topology(17, rng=2),
        lambda: ring_topology(9, cost=2.5),
        lambda: star_topology(7, cost=3.0, hub=4),
        lambda: waxman_topology(14, rng=6),
        lambda: Topology(1),
        lambda: Topology(4, [(0, 3, 1.5)]),  # isolated sites
    ],
)
def test_adjacency_matrix_matches_per_link_fill(make):
    topo = make()
    mat = topo.adjacency_matrix()
    assert mat.tobytes() == per_link_adjacency(topo).tobytes()
    again = Topology.from_adjacency_matrix(mat)
    reference = per_pair_from_adjacency(mat)
    assert again == topo == reference
    for i in range(topo.num_sites):  # same neighbour insertion order too
        assert list(again.neighbors(i).items()) == list(reference.neighbors(i).items())


def test_from_adjacency_no_link_entries():
    inf = np.inf
    mat = np.array(
        [
            [7.0, 2.0, inf, 0.0],
            [2.0, 0.0, -1.0, 4.0],
            [inf, -1.0, 0.0, 3.0],
            [0.0, 4.0, 3.0, 0.0],
        ]
    )
    topo = Topology.from_adjacency_matrix(mat)  # diagonal is ignored
    assert list(topo.links()) == [(0, 1, 2.0), (1, 3, 4.0), (2, 3, 3.0)]
    assert topo == per_pair_from_adjacency(mat)


def test_from_adjacency_upper_triangle_wins_within_tolerance():
    mat = np.array([[0.0, 1.0, 2.0], [1.0 + 1e-12, 0.0, 3.0], [2.0, 3.0 - 1e-12, 0.0]])
    topo = Topology.from_adjacency_matrix(mat)
    assert topo.link_cost(1, 0) == topo.link_cost(0, 1) == 1.0
    assert topo.link_cost(2, 1) == topo.link_cost(1, 2) == 3.0
    assert topo == per_pair_from_adjacency(mat)
