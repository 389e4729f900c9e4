"""All-pairs shortest paths, implemented from scratch.

Two interchangeable routines are provided:

* :func:`floyd_warshall` — dense, vectorised over numpy rows, and run in
  an exact integer dtype when the costs allow it; the default for the
  complete random graphs of the paper's workload.
* :func:`all_pairs_dijkstra` — binary-heap Dijkstra per source; the
  independent reference the test-suite checks :func:`floyd_warshall`
  against.

Both accept an adjacency matrix with ``inf`` for "no direct link" and return
the shortest-path cost matrix; :func:`floyd_warshall` can also return a
successor matrix for :func:`reconstruct_path`.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError, ValidationError


def _validated_adjacency(adjacency: np.ndarray) -> np.ndarray:
    mat = np.asarray(adjacency, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"adjacency matrix must be square, got shape {mat.shape}"
        )
    if np.any(np.diagonal(mat) != 0.0):
        raise ValidationError("adjacency diagonal must be zero")
    off_diag = mat[~np.eye(mat.shape[0], dtype=bool)]
    # NaN links must be rejected explicitly: isfinite() below silently
    # drops them from the positivity check, after which they poison the
    # relaxation arithmetic (NaN distances with finite successors,
    # breaking the nxt == -1  <=>  dist == inf invariant).
    if np.any(np.isnan(off_diag)):
        raise ValidationError(
            "link costs must not be NaN (use inf for a missing link)"
        )
    if np.any(off_diag <= 0):  # also rejects -inf
        raise ValidationError("link costs must be positive")
    return mat


def _exact_int_plan(mat: np.ndarray) -> Optional[Tuple[type, int]]:
    """The narrowest integer dtype, and the sentinel, that run Floyd–Warshall
    on ``mat`` exactly.

    ``mat`` is a validated adjacency matrix.  Every finite entry must be
    integral (and the diagonal free of ``-0.0``, whose sign the float loop
    keeps).  With ``max_cost`` the largest link cost, a finite shortest path
    costs at most ``(n - 1) * max_cost``, so ``(n + 1) * max_cost`` serves
    as the ``inf`` sentinel, and no sum of two entries exceeds twice that.
    Returns ``(int16 or int32, sentinel)`` when twice the sentinel fits,
    else ``None`` (stay in float64).
    """
    finite = mat[np.isfinite(mat)]
    if not np.array_equal(finite, np.floor(finite)):
        return None
    if np.any(np.signbit(np.diagonal(mat))):
        return None
    sentinel = (mat.shape[0] + 1) * max(int(finite.max(initial=0.0)), 1)
    for dtype in (np.int16, np.int32):
        if 2 * sentinel <= np.iinfo(dtype).max:
            return dtype, sentinel
    return None


def _relax(dist: np.ndarray) -> None:
    """Close ``dist`` under shortest paths in place, one reused buffer."""
    via = np.empty_like(dist)
    for k in range(dist.shape[0]):
        np.add(dist[:, k, None], dist[None, k, :], out=via)
        np.minimum(dist, via, out=dist)


def floyd_warshall(
    adjacency: np.ndarray,
    return_successors: bool = False,
) -> np.ndarray:
    """Dense all-pairs shortest paths in ``O(M^3)`` (row-vectorised).

    Every variant relaxes in place over buffers allocated once, so a
    closure allocates O(M^2) memory, not O(M^2) per intermediate site.

    When every finite cost is an integer and twice the sentinel
    ``(M + 1) * max_cost`` fits in int16 (else int32), the closure runs in
    that dtype with ``inf`` as the sentinel, and is cast back to float64
    with ``inf`` restored.  Sums of such integers are exact in float64
    too, so the result is bit-identical to the float64 loop, which still
    runs for other costs (e.g. Waxman's) and for ``return_successors``.
    The input is never mutated.

    Parameters
    ----------
    adjacency:
        Square matrix of direct link costs; ``inf`` means no link and the
        diagonal must be zero.
    return_successors:
        When true, also return the successor matrix ``nxt`` where
        ``nxt[i, j]`` is the first hop on a shortest path from ``i`` to
        ``j`` (``-1`` when unreachable), consumable by
        :func:`reconstruct_path`.
    """
    mat = _validated_adjacency(adjacency)
    n = mat.shape[0]
    if return_successors:
        dist = mat.copy()
        nxt = np.where(np.isfinite(dist), np.arange(n)[None, :], -1)
        np.fill_diagonal(nxt, np.arange(n))
        via = np.empty_like(dist)
        better = np.empty(dist.shape, dtype=bool)
        hop = np.empty(n, dtype=nxt.dtype)
        for k in range(n):
            np.add(dist[:, k, None], dist[None, k, :], out=via)
            np.less(via, dist, out=better)
            np.copyto(dist, via, where=better)
            # column k may itself be updated below, so read it first
            np.copyto(hop, nxt[:, k])
            np.copyto(nxt, hop[:, None], where=better)
        return dist, nxt  # type: ignore[return-value]
    plan = _exact_int_plan(mat)
    if plan is None:
        dist = mat.copy()
        _relax(dist)
        return dist
    dtype, sentinel = plan
    dist = np.where(np.isfinite(mat), mat, sentinel).astype(dtype)
    _relax(dist)
    result = dist.astype(np.float64)
    result[dist == sentinel] = np.inf
    return result


def reconstruct_path(nxt: np.ndarray, source: int, target: int) -> List[int]:
    """Recover the shortest path from the successor matrix of Floyd-Warshall.

    Returns the list of sites ``[source, ..., target]``; raises
    :class:`TopologyError` when ``target`` is unreachable.
    """
    n = nxt.shape[0]
    if not (0 <= source < n and 0 <= target < n):
        raise ValidationError(
            f"path endpoints ({source}, {target}) out of range [0, {n})"
        )
    if source == target:
        return [source]
    if nxt[source, target] < 0:
        raise TopologyError(f"site {target} unreachable from site {source}")
    path = [source]
    node = source
    while node != target:
        node = int(nxt[node, target])
        path.append(node)
        if len(path) > n:
            raise TopologyError("cycle detected while reconstructing path")
    return path


def dijkstra(adjacency: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest path costs with a binary heap."""
    mat = _validated_adjacency(adjacency)
    n = mat.shape[0]
    if not 0 <= source < n:
        raise ValidationError(f"source {source} out of range [0, {n})")
    # Adjacency lists once per call keeps the heap loop allocation-free.
    neighbors: List[List[Tuple[int, float]]] = [
        [
            (j, mat[i, j])
            for j in range(n)
            if j != i and np.isfinite(mat[i, j])
        ]
        for i in range(n)
    ]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for nbr, cost in neighbors[node]:
            nd = d + cost
            if nd < dist[nbr]:
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def all_pairs_dijkstra(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths via repeated Dijkstra; good for sparse graphs."""
    mat = _validated_adjacency(adjacency)
    return np.vstack([dijkstra(mat, s) for s in range(mat.shape[0])])


def is_metric(cost_matrix: np.ndarray, tolerance: float = 1e-9) -> bool:
    """True when ``cost_matrix`` satisfies the triangle inequality.

    Shortest-path closures are metric by construction; raw random complete
    graphs generally are not.  The DRP cost model requires a metric ``C``.
    """
    mat = np.asarray(cost_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"cost matrix must be square, got shape {mat.shape}"
        )
    for k in range(mat.shape[0]):
        if np.any(mat[:, k, None] + mat[None, k, :] < mat - tolerance):
            return False
    return True


__all__ = [
    "floyd_warshall",
    "reconstruct_path",
    "dijkstra",
    "all_pairs_dijkstra",
    "is_metric",
]
