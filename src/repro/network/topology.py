"""Explicit network topologies of sites and weighted bidirectional links."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError, ValidationError


class Topology:
    """A set of sites connected by weighted, bidirectional links.

    Links carry a positive per-data-unit communication cost (the paper uses
    the TCP/IP hop count as the canonical example).  The topology is the
    *physical* view; the DRP consumes the *logical* view — the all-pairs
    shortest-path cost matrix produced by :meth:`cost_matrix`.

    Parameters
    ----------
    num_sites:
        Number of sites, named ``0 .. num_sites - 1``.
    links:
        Iterable of ``(i, j, cost)`` triples.  Duplicate links keep the
        cheapest cost; self-links are rejected.
    """

    def __init__(
        self,
        num_sites: int,
        links: Iterable[Tuple[int, int, float]] = (),
    ) -> None:
        if num_sites <= 0:
            raise ValidationError(f"num_sites must be positive, got {num_sites}")
        self._num_sites = int(num_sites)
        self._adjacency: List[Dict[int, float]] = [
            {} for _ in range(self._num_sites)
        ]
        for i, j, cost in links:
            self.add_link(i, j, cost)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_link(self, i: int, j: int, cost: float) -> None:
        """Add (or cheapen) the bidirectional link between ``i`` and ``j``."""
        self._check_site(i)
        self._check_site(j)
        if i == j:
            raise TopologyError(f"self-link at site {i} is not allowed")
        cost = float(cost)
        if not np.isfinite(cost) or cost <= 0:
            raise TopologyError(
                f"link ({i}, {j}) must have positive finite cost, got {cost}"
            )
        existing = self._adjacency[i].get(j)
        if existing is None or cost < existing:
            self._adjacency[i][j] = cost
            self._adjacency[j][i] = cost

    def remove_link(self, i: int, j: int) -> None:
        """Remove the link between ``i`` and ``j`` (must exist)."""
        self._check_site(i)
        self._check_site(j)
        if j not in self._adjacency[i]:
            raise TopologyError(f"no link between sites {i} and {j}")
        del self._adjacency[i][j]
        del self._adjacency[j][i]

    def _check_site(self, i: int) -> None:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self._num_sites:
            raise TopologyError(
                f"site index {i!r} out of range [0, {self._num_sites})"
            )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def num_sites(self) -> int:
        return self._num_sites

    @property
    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency) // 2

    def neighbors(self, i: int) -> Dict[int, float]:
        """Mapping ``neighbor -> link cost`` for site ``i`` (a copy)."""
        self._check_site(i)
        return dict(self._adjacency[i])

    def link_cost(self, i: int, j: int) -> Optional[float]:
        """Direct link cost between ``i`` and ``j``, or ``None``."""
        self._check_site(i)
        self._check_site(j)
        return self._adjacency[i].get(j)

    def links(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected link once as ``(i, j, cost)`` with i < j."""
        for i, nbrs in enumerate(self._adjacency):
            for j, cost in sorted(nbrs.items()):
                if i < j:
                    yield (i, j, cost)

    def degree(self, i: int) -> int:
        self._check_site(i)
        return len(self._adjacency[i])

    def is_connected(self) -> bool:
        """True when every site can reach every other site."""
        if self._num_sites == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nbr in self._adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == self._num_sites

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Dense matrix of direct link costs; ``inf`` where no link, 0 diagonal."""
        mat = np.full((self._num_sites, self._num_sites), np.inf)
        np.fill_diagonal(mat, 0.0)
        for i, j, cost in self.links():
            mat[i, j] = cost
            mat[j, i] = cost
        return mat

    def cost_matrix(self) -> np.ndarray:
        """All-pairs shortest-path cost matrix ``C`` (the paper's ``C(i,j)``).

        Raises :class:`TopologyError` when the topology is disconnected,
        because the DRP requires every pair of sites to communicate.
        """
        from repro.network.shortest_paths import floyd_warshall

        dist = floyd_warshall(self.adjacency_matrix())
        if not np.all(np.isfinite(dist)):
            raise TopologyError(
                "topology is disconnected: some site pairs are unreachable"
            )
        return dist

    @classmethod
    def from_adjacency_matrix(cls, matrix: np.ndarray) -> "Topology":
        """Build a topology from a symmetric direct-cost matrix.

        Entries that are ``inf`` or ``<= 0`` off the diagonal mean "no link".
        """
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(
                f"adjacency matrix must be square, got shape {mat.shape}"
            )
        if not np.allclose(mat, mat.T, equal_nan=True):
            raise ValidationError("adjacency matrix must be symmetric")
        topo = cls(mat.shape[0])
        for i in range(mat.shape[0]):
            for j in range(i + 1, mat.shape[1]):
                cost = mat[i, j]
                if np.isfinite(cost) and cost > 0:
                    topo.add_link(i, j, cost)
        return topo

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "num_sites": self._num_sites,
            "links": [[i, j, cost] for i, j, cost in self.links()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        return cls(
            data["num_sites"],
            [(int(i), int(j), float(c)) for i, j, c in data["links"]],
        )

    def __repr__(self) -> str:
        return (
            f"Topology(num_sites={self._num_sites}, num_links={self.num_links})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._num_sites == other._num_sites
            and list(self.links()) == list(other.links())
        )


__all__ = ["Topology"]
