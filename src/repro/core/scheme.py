"""Replication schemes: the boolean ``X`` matrix of Section 2.2.

``X[i, k] = 1`` means site ``i`` holds a replica of object ``k``.  A scheme
is *valid* when (a) every object keeps a replica at its primary site and
(b) no site stores more than its capacity.  :class:`ReplicationScheme`
enforces (a) structurally — dropping a primary raises — and tracks storage
incrementally so (b) can be checked in O(1) per mutation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.errors import CapacityError, PrimaryCopyError, ValidationError

#: signature of a scheme change listener: (kind, site, obj) with kind one
#: of ``"add"`` / ``"drop"``, invoked *after* the mutation landed.
ChangeListener = Callable[[str, int, int], None]

#: slack on every storage check, so float sizes that sum to a capacity
#: exactly (up to rounding) still fit
CAPACITY_TOLERANCE = 1e-9


class ReplicationScheme:
    """A mutable replica placement for one :class:`DRPInstance`.

    Use :meth:`primary_only` for the paper's initial allocation (each object
    exists only at its primary site) and :meth:`from_matrix` to adopt a GA
    chromosome.  Mutations keep the per-site storage tally consistent;
    ``enforce_capacity=True`` (default) makes over-capacity mutations raise
    :class:`~repro.errors.CapacityError` up front.
    """

    def __init__(
        self,
        instance: DRPInstance,
        matrix: Optional[np.ndarray] = None,
        enforce_capacity: bool = True,
    ) -> None:
        self._instance = instance
        m, n = instance.num_sites, instance.num_objects
        if matrix is None:
            x = np.zeros((m, n), dtype=bool)
            x[instance.primaries, np.arange(n)] = True
        else:
            x = np.asarray(matrix)
            if x.shape != (m, n):
                raise ValidationError(
                    f"scheme matrix must have shape {(m, n)}, got {x.shape}"
                )
            x = x.astype(bool).copy()
            missing = np.nonzero(~x[instance.primaries, np.arange(n)])[0]
            if missing.size:
                k = int(missing[0])
                raise PrimaryCopyError(int(instance.primaries[k]), k)
        self._x = x
        self._used = x.astype(float) @ instance.sizes
        self._enforce_capacity = enforce_capacity
        self._listeners: List[ChangeListener] = []
        # Lazily-built nearest-replicator table: column k of
        # ``_nearest_cache`` is valid iff ``_nearest_valid[k]``.  An add
        # patches a valid column in O(M); a drop invalidates it (repaired
        # on next access, or incrementally by an attached evaluator).
        self._nearest_cache: Optional[np.ndarray] = None
        self._nearest_valid: Optional[np.ndarray] = None
        # Per-column packed-bit digests used as cost-cache keys; computed
        # once per mutation instead of once per cache lookup.
        self._digests: Dict[int, bytes] = {}
        if enforce_capacity:
            self.validate()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def primary_only(cls, instance: DRPInstance) -> "ReplicationScheme":
        """The initial allocation: each object only at its primary site."""
        return cls(instance)

    @classmethod
    def from_matrix(
        cls,
        instance: DRPInstance,
        matrix: np.ndarray,
        enforce_capacity: bool = True,
    ) -> "ReplicationScheme":
        """Adopt an explicit boolean placement matrix."""
        return cls(instance, matrix, enforce_capacity=enforce_capacity)

    def copy(self) -> "ReplicationScheme":
        clone = ReplicationScheme.__new__(ReplicationScheme)
        clone._instance = self._instance
        clone._x = self._x.copy()
        clone._used = self._used.copy()
        clone._enforce_capacity = self._enforce_capacity
        # Listeners watch *this* scheme, not the clone; caches rebuild
        # lazily so the clone never aliases mutable state.
        clone._listeners = []
        clone._nearest_cache = None
        clone._nearest_valid = None
        clone._digests = {}
        return clone

    # ------------------------------------------------------------------ #
    # change listeners
    # ------------------------------------------------------------------ #
    def attach_listener(self, listener: ChangeListener) -> None:
        """Call ``listener(kind, site, obj)`` after every mutation."""
        self._listeners.append(listener)

    def detach_listener(self, listener: ChangeListener) -> None:
        """Remove a previously attached listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, kind: str, site: int, obj: int) -> None:
        for listener in list(self._listeners):
            listener(kind, site, obj)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> DRPInstance:
        return self._instance

    @property
    def matrix(self) -> np.ndarray:
        """The boolean ``X`` matrix (read-only view; copy to mutate)."""
        view = self._x.view()
        view.setflags(write=False)
        return view

    def holds(self, site: int, obj: int) -> bool:
        """True when ``site`` stores a replica of ``obj``."""
        return bool(self._x[site, obj])

    def replicators(self, obj: int) -> np.ndarray:
        """Sorted site indices holding object ``obj`` (paper's ``R_k``)."""
        return np.nonzero(self._x[:, obj])[0]

    def objects_at(self, site: int) -> np.ndarray:
        """Sorted object indices stored at ``site``."""
        return np.nonzero(self._x[site])[0]

    def replica_degree(self, obj: int) -> int:
        """Number of replicas of ``obj`` including the primary."""
        return int(self._x[:, obj].sum())

    def replica_degrees(self) -> np.ndarray:
        """Per-object replica counts including primaries."""
        return self._x.sum(axis=0)

    def total_replicas(self) -> int:
        """Total replica count across all objects, primaries included."""
        return int(self._x.sum())

    def extra_replicas(self) -> int:
        """Replicas created beyond the mandatory primaries.

        This is the quantity Figures 1(b) and 1(d) plot ("number of
        replicas generated").
        """
        return self.total_replicas() - self._instance.num_objects

    def used_storage(self) -> np.ndarray:
        """Per-site storage units consumed by the current placement."""
        return self._used.copy()

    def remaining_capacity(self) -> np.ndarray:
        """Per-site free storage (the paper's ``b_i``)."""
        return self._instance.capacities - self._used

    def nearest_sites(self, obj: int) -> np.ndarray:
        """For each site, its nearest replicator of ``obj`` (``SN_ik``).

        Ties break toward the lowest site index; a replicator's nearest
        site is itself (zero-cost read).  Columns are cached and patched
        incrementally on :meth:`add_replica`, so repeated lookups between
        mutations are O(1) per column.
        """
        self._ensure_nearest(obj)
        return self._nearest_cache[:, obj].copy()

    def _compute_nearest(self, obj: int) -> np.ndarray:
        reps = self.replicators(obj)
        sub = self._instance.cost[:, reps]
        return reps[np.argmin(sub, axis=1)]

    def _ensure_nearest(self, obj: int) -> None:
        if self._nearest_cache is None:
            self._nearest_cache = np.empty(
                (self._instance.num_sites, self._instance.num_objects),
                dtype=np.int64,
            )
            self._nearest_valid = np.zeros(
                self._instance.num_objects, dtype=bool
            )
        if not self._nearest_valid[obj]:
            self._nearest_cache[:, obj] = self._compute_nearest(obj)
            self._nearest_valid[obj] = True

    def _patch_nearest_add(self, site: int, obj: int) -> None:
        """Patch the cached SN column after ``site`` gained ``obj``."""
        if self._nearest_valid is None or not self._nearest_valid[obj]:
            return
        column = self._nearest_cache[:, obj]
        cost = self._instance.cost
        current = cost[np.arange(self._instance.num_sites), column]
        newer = cost[:, site]
        # Strictly closer wins; on a tie the lowest site index wins, the
        # same rule argmin applies when rebuilding from scratch.
        closer = (newer < current) | ((newer == current) & (site < column))
        column[closer] = site

    def nearest_site_matrix(self) -> np.ndarray:
        """The full ``(M, N)`` nearest-replicator table (cached)."""
        for k in range(self._instance.num_objects):
            self._ensure_nearest(k)
        return self._nearest_cache.copy()

    def column_digest(self, obj: int) -> bytes:
        """Packed-bit digest of column ``obj``, recomputed per mutation.

        The digest equals ``np.packbits(matrix[:, obj]).tobytes()`` and is
        what :meth:`repro.core.cost.CostModel.object_cost_cached` uses as
        its cache key, so scheme-driven cost lookups skip the per-call
        packing that used to dominate the cache's hot path.
        """
        digest = self._digests.get(obj)
        if digest is None:
            digest = np.packbits(self._x[:, obj]).tobytes()
            self._digests[obj] = digest
        return digest

    # ------------------------------------------------------------------ #
    # validity
    # ------------------------------------------------------------------ #
    def capacity_violations(self) -> List[Tuple[int, float, float]]:
        """Sites over capacity as ``(site, used, capacity)`` triples."""
        caps = self._instance.capacities
        return [
            (int(i), float(self._used[i]), float(caps[i]))
            for i in np.nonzero(self._used > caps + CAPACITY_TOLERANCE)[0]
        ]

    def is_valid(self) -> bool:
        """True when no site exceeds its storage capacity."""
        return not self.capacity_violations()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.CapacityError` on the first violation."""
        violations = self.capacity_violations()
        if violations:
            site, used, cap = violations[0]
            raise CapacityError(site, used, cap)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_replica(self, site: int, obj: int) -> None:
        """Place a replica of ``obj`` at ``site``.

        Raises :class:`~repro.errors.CapacityError` when it would not fit
        (under ``enforce_capacity``) and :class:`ValueError` when the
        replica already exists.
        """
        if self._x[site, obj]:
            raise ValueError(f"site {site} already holds object {obj}")
        size = self._instance.sizes[obj]
        if (
            self._enforce_capacity
            and self._used[site] + size
            > self._instance.capacities[site] + CAPACITY_TOLERANCE
        ):
            raise CapacityError(
                site,
                float(self._used[site] + size),
                float(self._instance.capacities[site]),
            )
        self._x[site, obj] = True
        self._used[site] += size
        self._digests.pop(obj, None)
        self._patch_nearest_add(site, obj)
        self._notify("add", site, obj)

    def drop_replica(self, site: int, obj: int) -> None:
        """Remove the replica of ``obj`` at ``site``.

        The primary copy cannot be dropped
        (:class:`~repro.errors.PrimaryCopyError`).
        """
        if not self._x[site, obj]:
            raise ValueError(f"site {site} does not hold object {obj}")
        if int(self._instance.primaries[obj]) == int(site):
            raise PrimaryCopyError(site, obj)
        self._x[site, obj] = False
        self._used[site] -= self._instance.sizes[obj]
        self._digests.pop(obj, None)
        if self._nearest_valid is not None:
            # Sites whose nearest replicator was dropped need a rescan;
            # repaired lazily on the next access.
            self._nearest_valid[obj] = False
        self._notify("drop", site, obj)

    # ------------------------------------------------------------------ #
    # comparison / serialisation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicationScheme):
            return NotImplemented
        return (
            self._instance == other._instance
            and np.array_equal(self._x, other._x)
        )

    def to_dict(self) -> Dict[str, object]:
        return {"matrix": self._x.astype(int).tolist()}

    @classmethod
    def from_dict(
        cls, instance: DRPInstance, data: Dict[str, object]
    ) -> "ReplicationScheme":
        if not isinstance(data, dict) or "matrix" not in data:
            raise ValidationError("scheme data has no 'matrix' field")
        try:
            # float, not bool: a bool cast reads 2.5, NaN or null as a
            # replica bit instead of rejecting it
            matrix = np.asarray(data["matrix"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            matrix = None
        if matrix is None or not np.all((matrix == 0) | (matrix == 1)):
            raise ValidationError("scheme field 'matrix' is not a 0/1 array")
        return cls(instance, matrix.astype(bool))

    def __repr__(self) -> str:
        return (
            f"ReplicationScheme(M={self._instance.num_sites}, "
            f"N={self._instance.num_objects}, "
            f"extra_replicas={self.extra_replicas()}, "
            f"valid={self.is_valid()})"
        )


__all__ = ["CAPACITY_TOLERANCE", "ReplicationScheme"]
