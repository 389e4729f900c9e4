"""The Data Replication Problem instance (Section 2, Table 1).

A :class:`DRPInstance` bundles every input of the DRP:

* ``cost`` — the symmetric per-unit transfer cost matrix ``C(i, j)``,
  assumed to be the shortest-path closure of the physical network;
* ``sizes`` — object sizes ``o_k`` in storage units;
* ``capacities`` — site storage capacities ``s_i``;
* ``reads`` / ``writes`` — the ``r_ik`` / ``w_ik`` access counts observed
  over the statistics window;
* ``primaries`` — the primary site ``SP_k`` of each object.

Instances are immutable: the adaptive workflow (Section 5) produces *new*
instances via :meth:`with_patterns` when read/write patterns change, so a
scheme computed for one pattern can be re-evaluated under another.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import InfeasibleProblemError, ValidationError
from repro.utils.validation import check_matrix, check_vector


class DRPInstance:
    """Immutable inputs of one Data Replication Problem.

    Parameters mirror Table 1 of the paper; shapes are ``(M, M)`` for
    ``cost``, ``(N,)`` for ``sizes`` and ``primaries``, ``(M,)`` for
    ``capacities`` and ``(M, N)`` for ``reads`` and ``writes``.
    """

    def __init__(
        self,
        cost: np.ndarray,
        sizes: np.ndarray,
        capacities: np.ndarray,
        reads: np.ndarray,
        writes: np.ndarray,
        primaries: np.ndarray,
        check_metric: bool = False,
    ) -> None:
        cost = check_matrix("cost", cost, non_negative=True, dtype=float)
        if cost.shape[0] != cost.shape[1]:
            raise ValidationError(
                f"cost matrix must be square, got shape {cost.shape}"
            )
        num_sites = cost.shape[0]
        if np.any(np.diagonal(cost) != 0.0):
            raise ValidationError("cost diagonal (C(i,i)) must be zero")
        if not np.allclose(cost, cost.T):
            raise ValidationError("cost matrix must be symmetric (C(i,j)=C(j,i))")

        sizes = check_vector("sizes", sizes, non_negative=True, dtype=float)
        num_objects = sizes.shape[0]
        if num_objects == 0:
            raise ValidationError("need at least one object")
        if np.any(sizes <= 0):
            raise ValidationError("object sizes must be positive")

        capacities = check_vector(
            "capacities", capacities, length=num_sites, non_negative=True,
            dtype=float,
        )
        reads = check_matrix(
            "reads", reads, shape=(num_sites, num_objects), non_negative=True,
            dtype=float,
        )
        writes = check_matrix(
            "writes", writes, shape=(num_sites, num_objects),
            non_negative=True, dtype=float,
        )
        primaries = check_vector(
            "primaries", primaries, length=num_objects, dtype=np.int64
        )
        if np.any(primaries < 0) or np.any(primaries >= num_sites):
            raise ValidationError(
                f"primaries must be site indices in [0, {num_sites})"
            )

        if check_metric:
            from repro.network.shortest_paths import is_metric

            if not is_metric(cost):
                raise ValidationError(
                    "cost matrix violates the triangle inequality; pass the "
                    "shortest-path closure (see repro.network)"
                )

        self._cost = cost
        self._sizes = sizes
        self._capacities = capacities
        self._reads = reads
        self._writes = writes
        self._primaries = primaries
        for arr in (cost, sizes, capacities, reads, writes, primaries):
            arr.setflags(write=False)

        self._check_primary_feasibility()

    def _check_primary_feasibility(self) -> None:
        load = self.primary_load()
        over = np.nonzero(load > self._capacities)[0]
        if over.size:
            site = int(over[0])
            raise InfeasibleProblemError(
                f"primary copies at site {site} need {load[site]:g} units but "
                f"its capacity is {self._capacities[site]:g}"
            )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_sites(self) -> int:
        """``M`` — number of sites."""
        return self._cost.shape[0]

    @property
    def num_objects(self) -> int:
        """``N`` — number of objects."""
        return self._sizes.shape[0]

    @property
    def cost(self) -> np.ndarray:
        """``C(i, j)`` per-unit transfer cost matrix (read-only view)."""
        return self._cost

    @property
    def sizes(self) -> np.ndarray:
        """``o_k`` object sizes (read-only view)."""
        return self._sizes

    @property
    def capacities(self) -> np.ndarray:
        """``s_i`` site storage capacities (read-only view)."""
        return self._capacities

    @property
    def reads(self) -> np.ndarray:
        """``r_ik`` read counts (read-only view)."""
        return self._reads

    @property
    def writes(self) -> np.ndarray:
        """``w_ik`` write counts (read-only view)."""
        return self._writes

    @property
    def primaries(self) -> np.ndarray:
        """``SP_k`` primary site of each object (read-only view)."""
        return self._primaries

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def total_reads(self) -> np.ndarray:
        """Per-object total read counts (summed over sites)."""
        return self._reads.sum(axis=0)

    def total_writes(self) -> np.ndarray:
        """Per-object total write counts (summed over sites)."""
        return self._writes.sum(axis=0)

    def update_ratio(self) -> float:
        """Overall writes / reads ratio (the paper's ``U`` as a fraction)."""
        reads = float(self._reads.sum())
        if reads == 0.0:
            return float("inf") if self._writes.sum() > 0 else 0.0
        return float(self._writes.sum()) / reads

    def primary_load(self) -> np.ndarray:
        """Storage consumed at each site by primary copies alone."""
        load = np.zeros(self.num_sites)
        np.add.at(load, self._primaries, self._sizes)
        return load

    def capacity_ratio(self) -> float:
        """Total capacity as a fraction of total object size (paper's ``C%``)."""
        return float(self._capacities.sum()) / float(self._sizes.sum())

    def with_patterns(
        self,
        reads: Optional[np.ndarray] = None,
        writes: Optional[np.ndarray] = None,
    ) -> "DRPInstance":
        """A new instance with updated R/W patterns, same network and storage."""
        return DRPInstance(
            cost=self._cost,
            sizes=self._sizes,
            capacities=self._capacities,
            reads=self._reads if reads is None else reads,
            writes=self._writes if writes is None else writes,
            primaries=self._primaries,
        )

    # ------------------------------------------------------------------ #
    # serialisation / comparison
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "cost": self._cost.tolist(),
            "sizes": self._sizes.tolist(),
            "capacities": self._capacities.tolist(),
            "reads": self._reads.tolist(),
            "writes": self._writes.tolist(),
            "primaries": self._primaries.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DRPInstance":
        """Inverse of :meth:`to_dict`; a malformed ``data`` is a
        :class:`ValidationError` naming the missing, non-numeric or
        out-of-range field, or the non-integral ``primaries``."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"instance data must be a JSON object, got {type(data).__name__}"
            )
        fields = {}
        for name in ("cost", "sizes", "capacities", "reads", "writes", "primaries"):
            dtype = np.int64 if name == "primaries" else float
            if name not in data:
                raise ValidationError(f"instance data has no {name!r} field")
            try:
                fields[name] = np.asarray(data[name], dtype=dtype)
            except (TypeError, ValueError, OverflowError):
                # OverflowError: inf or an int past int64 in primaries,
                # an int past the float range anywhere
                raise ValidationError(
                    f"instance field {name!r} is not a numeric array"
                ) from None
        # The int64 cast truncates 2.9 to 2; a site index must be whole.
        as_float = np.asarray(data["primaries"], dtype=float)
        if np.any(fields["primaries"] != as_float):
            raise ValidationError(
                "instance field 'primaries' holds a non-integral site index"
            )
        return cls(**fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DRPInstance):
            return NotImplemented
        return (
            np.array_equal(self._cost, other._cost)
            and np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._capacities, other._capacities)
            and np.array_equal(self._reads, other._reads)
            and np.array_equal(self._writes, other._writes)
            and np.array_equal(self._primaries, other._primaries)
        )

    def __repr__(self) -> str:
        return (
            f"DRPInstance(M={self.num_sites}, N={self.num_objects}, "
            f"update_ratio={self.update_ratio():.3f}, "
            f"capacity_ratio={self.capacity_ratio():.3f})"
        )


__all__ = ["DRPInstance"]
