"""Shortest-path routines: correctness and cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.network.generators import random_mesh_topology, random_tree_topology
from repro.network.shortest_paths import (
    all_pairs_dijkstra,
    dijkstra,
    floyd_warshall,
    is_metric,
    reconstruct_path,
)


def line_adjacency() -> np.ndarray:
    inf = np.inf
    return np.array(
        [
            [0.0, 1.0, inf],
            [1.0, 0.0, 2.0],
            [inf, 2.0, 0.0],
        ]
    )


def test_floyd_warshall_line():
    dist = floyd_warshall(line_adjacency())
    assert dist[0, 2] == 3.0
    assert dist[2, 0] == 3.0
    assert np.all(np.diagonal(dist) == 0.0)


def test_floyd_warshall_shortcut_beats_direct():
    # direct 0-2 link costs 10; the path through 1 costs 3
    adj = line_adjacency()
    adj[0, 2] = adj[2, 0] = 10.0
    dist = floyd_warshall(adj)
    assert dist[0, 2] == 3.0


def test_dijkstra_matches_floyd_warshall():
    topo = random_mesh_topology(15, rng=3)
    adj = topo.adjacency_matrix()
    assert np.allclose(floyd_warshall(adj), all_pairs_dijkstra(adj))


def test_dijkstra_sparse_tree():
    topo = random_tree_topology(20, rng=4)
    adj = topo.adjacency_matrix()
    assert np.allclose(floyd_warshall(adj), all_pairs_dijkstra(adj))


def test_dijkstra_single_source():
    dist = dijkstra(line_adjacency(), 0)
    assert list(dist) == [0.0, 1.0, 3.0]


def test_dijkstra_unreachable_is_inf():
    adj = np.array([[0.0, np.inf], [np.inf, 0.0]])
    dist = dijkstra(adj, 0)
    assert np.isinf(dist[1])


def test_successor_path_reconstruction():
    dist, nxt = floyd_warshall(line_adjacency(), return_successors=True)
    assert reconstruct_path(nxt, 0, 2) == [0, 1, 2]
    assert reconstruct_path(nxt, 2, 0) == [2, 1, 0]
    assert reconstruct_path(nxt, 1, 1) == [1]


def test_reconstruct_unreachable_raises():
    adj = np.array([[0.0, np.inf], [np.inf, 0.0]])
    _, nxt = floyd_warshall(adj, return_successors=True)
    with pytest.raises(TopologyError):
        reconstruct_path(nxt, 0, 1)


def test_validation_rejects_nonzero_diagonal():
    adj = line_adjacency()
    adj[0, 0] = 1.0
    with pytest.raises(ValidationError):
        floyd_warshall(adj)


def test_validation_rejects_negative_costs():
    adj = line_adjacency()
    adj[0, 1] = adj[1, 0] = -1.0
    with pytest.raises(ValidationError):
        floyd_warshall(adj)


def test_is_metric_on_closure():
    topo = random_mesh_topology(12, rng=9)
    adj = topo.adjacency_matrix()
    assert is_metric(floyd_warshall(adj))


def test_is_metric_detects_violation():
    bad = np.array(
        [
            [0.0, 10.0, 1.0],
            [10.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    assert not is_metric(bad)  # 0->2->1 costs 2 < direct 10


# --------------------------------------------------------------------- #
# disconnected graphs and NaN adjacency (scale-path bugfix sweep)
# --------------------------------------------------------------------- #
def disconnected_adjacency() -> np.ndarray:
    """Two components: {0, 1} and {2, 3}."""
    inf = np.inf
    return np.array(
        [
            [0.0, 2.0, inf, inf],
            [2.0, 0.0, inf, inf],
            [inf, inf, 0.0, 5.0],
            [inf, inf, 5.0, 0.0],
        ]
    )


def test_validation_rejects_nan_links():
    # Regression: NaN used to slip through validation (NaN compares
    # False against every bound) and silently poison the closure.
    adj = line_adjacency()
    adj[0, 1] = adj[1, 0] = np.nan
    with pytest.raises(ValidationError):
        floyd_warshall(adj)
    with pytest.raises(ValidationError):
        dijkstra(adj, 0)


def test_successors_mark_unreachable_iff_inf():
    dist, nxt = floyd_warshall(
        disconnected_adjacency(), return_successors=True
    )
    assert np.array_equal(nxt == -1, np.isinf(dist))
    # reachable pairs reconstruct; unreachable pairs raise
    assert reconstruct_path(nxt, 0, 1) == [0, 1]
    assert reconstruct_path(nxt, 2, 3) == [2, 3]
    with pytest.raises(TopologyError):
        reconstruct_path(nxt, 0, 2)
    with pytest.raises(TopologyError):
        reconstruct_path(nxt, 3, 1)


def test_dijkstra_disconnected_distances():
    dist = dijkstra(disconnected_adjacency(), 0)
    assert list(dist[:2]) == [0.0, 2.0]
    assert np.all(np.isinf(dist[2:]))
