"""Shortest-path routines: correctness and cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.network.generators import (
    random_mesh_topology,
    random_tree_topology,
    waxman_topology,
)
from repro.network.shortest_paths import (
    _exact_int_plan,
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


def test_validation_rejects_negative_infinite_links():
    # Regression: -inf was skipped by the finite-only positivity check.
    adj = line_adjacency()
    adj[0, 2] = adj[2, 0] = -np.inf
    with pytest.raises(ValidationError):
        floyd_warshall(adj)


# --------------------------------------------------------------------- #
# the exact integer closure is the float64 loop, bit for bit
# --------------------------------------------------------------------- #
def float_loop_reference(adjacency: np.ndarray) -> np.ndarray:
    """Today's float64 Floyd–Warshall, one fresh ``via`` array per k."""
    dist = np.array(adjacency, dtype=float)
    for k in range(dist.shape[0]):
        via = dist[:, k, None] + dist[None, k, :]
        np.minimum(dist, via, out=dist)
    return dist


def assert_bit_identical(adjacency: np.ndarray) -> np.ndarray:
    before = adjacency.copy()
    dist = floyd_warshall(adjacency)
    assert np.array_equal(adjacency, before)  # input not mutated
    assert dist.dtype == np.float64
    assert dist.tobytes() == float_loop_reference(before).tobytes()
    return dist


def line_with_max_cost(max_cost: float) -> np.ndarray:
    adj = line_adjacency()
    adj[1, 2] = adj[2, 1] = max_cost
    return adj


@pytest.mark.parametrize(
    "max_cost, dtype",
    [
        (4095, np.int16),  # 2 * (3 + 1) * 4095 = 32,760 fits int16
        (4096, np.int32),  # 32,768 does not
        (2**28 - 1, np.int32),  # 2 * 4 * (2**28 - 1) = 2**31 - 8 fits int32
        (2**28, None),  # 2**31 does not: float64
        (2.5, None),  # a non-integral cost: float64
    ],
)
def test_integer_dtype_guard_boundary(max_cost, dtype):
    adj = line_with_max_cost(max_cost)
    plan = _exact_int_plan(adj)
    if dtype is None:
        assert plan is None
    else:
        assert plan == (dtype, 4 * max_cost)
    dist = assert_bit_identical(adj)
    assert dist[0, 2] == 1.0 + max_cost


@pytest.mark.parametrize("seed", range(6))
def test_integer_closure_matches_float_loop(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 30))
    costs = gen.integers(1, 50, size=(n, n)).astype(float)
    adj = np.minimum(costs, costs.T)
    adj[gen.random((n, n)) < 0.4] = np.inf  # missing links, some one-way
    np.fill_diagonal(adj, 0.0)
    assert _exact_int_plan(adj)[0] == np.int16
    dist = assert_bit_identical(adj)
    assert np.array_equal(dist, all_pairs_dijkstra(adj))


def test_integer_closure_keeps_unreachable_pairs_infinite():
    adj = disconnected_adjacency()
    assert _exact_int_plan(adj) is not None
    dist = assert_bit_identical(adj)
    assert np.array_equal(np.isinf(dist), np.isinf(all_pairs_dijkstra(adj)))
    assert dist[0, 1] == 2.0 and dist[2, 3] == 5.0


def test_paper_mesh_closes_in_int16():
    adj = random_mesh_topology(40, rng=5).adjacency_matrix()
    assert _exact_int_plan(adj)[0] == np.int16
    assert_bit_identical(adj)


def test_waxman_costs_stay_on_the_float_path():
    adj = waxman_topology(25, rng=4).adjacency_matrix()
    assert _exact_int_plan(adj) is None
    assert_bit_identical(adj)


def test_negative_zero_diagonal_stays_on_the_float_path():
    adj = line_adjacency()
    adj[1, 1] = -0.0
    assert _exact_int_plan(adj) is None
    assert_bit_identical(adj)
