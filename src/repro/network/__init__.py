"""Network substrate: site topologies, link costs and shortest paths.

The paper models the interconnect as a symmetric per-unit transfer cost
matrix ``C(i, j)`` equal to the cumulative cost of the shortest path between
sites (Section 2).  This package builds such matrices from explicit
topologies (:class:`Topology`) with from-scratch all-pairs shortest-path
routines, plus the random generators used by the paper's workload and a few
extra families (tree, ring, star, Waxman) for the examples.
"""

from repro.network.topology import Topology
from repro.network.shortest_paths import (
    all_pairs_dijkstra,
    floyd_warshall,
    is_metric,
    reconstruct_path,
)
from repro.network.routing import (
    Router,
    hotspots,
    link_loads,
    total_link_cost,
)
from repro.network.generators import (
    paper_cost_matrix,
    random_mesh_topology,
    random_tree_topology,
    ring_topology,
    star_topology,
    waxman_topology,
)

__all__ = [
    "Topology",
    "Router",
    "link_loads",
    "total_link_cost",
    "hotspots",
    "all_pairs_dijkstra",
    "floyd_warshall",
    "is_metric",
    "reconstruct_path",
    "paper_cost_matrix",
    "random_mesh_topology",
    "random_tree_topology",
    "ring_topology",
    "star_topology",
    "waxman_topology",
]
