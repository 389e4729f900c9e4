"""Baseline placement policies used for comparison and ablation.

None of these are contributions of the paper; they bracket the heuristics:

* :class:`NoReplication` — the paper's initial allocation (0% savings by
  definition), the denominator of every quality figure;
* :class:`RandomReplication` — valid but uninformed placement; any useful
  heuristic must beat it;
* :class:`ReadOnlyGreedy` — SRA with the update penalty ablated from
  Eq. 5, quantifying how much the write term matters (it degrades exactly
  where the paper says SRA-style greed struggles: high update ratios).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE, ReplicationScheme
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator


class NoReplication(ReplicationAlgorithm):
    """Keep only the primary copies (the initial allocation)."""

    name = "NoReplication"

    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        return ReplicationScheme.primary_only(instance), {}


class RandomReplication(ReplicationAlgorithm):
    """Place replicas uniformly at random until a fill target is reached.

    ``fill`` is the fraction of each site's *free* capacity to consume in
    expectation; placement never violates capacity and never duplicates a
    replica.
    """

    name = "RandomReplication"

    def __init__(self, fill: float = 1.0, rng: SeedLike = None) -> None:
        if not 0.0 <= fill <= 1.0:
            raise ValidationError(f"fill must lie in [0, 1], got {fill}")
        self._fill = fill
        self._rng = as_generator(rng)

    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        scheme = ReplicationScheme.primary_only(instance)
        rng = self._rng
        placed = 0
        for site in range(instance.num_sites):
            budget = self._fill * float(scheme.remaining_capacity()[site])
            candidates = np.nonzero(~scheme.matrix[site])[0]
            rng.shuffle(candidates)
            for obj in candidates:
                size = float(instance.sizes[obj])
                if size > budget:
                    continue
                scheme.add_replica(site, int(obj))
                placed += 1
                budget -= size
        return scheme, {"replicas_created": placed, "fill": self._fill}


class ReadOnlyGreedy(ReplicationAlgorithm):
    """SRA with the update penalty removed from the benefit (ablation).

    Greedily replicates by pure read savings ``r_ik * C(i, SN_ik)`` until
    capacity runs out, ignoring the write traffic replicas attract.  On
    read-dominated workloads it tracks SRA; as the update ratio grows it
    over-replicates and loses.
    """

    name = "ReadOnlyGreedy"

    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        m, n = instance.num_sites, instance.num_objects
        cost = instance.cost
        sizes = instance.sizes
        scheme = ReplicationScheme.primary_only(instance)
        remaining = scheme.remaining_capacity()
        nearest_cost = cost[
            np.arange(m)[:, None],
            np.tile(instance.primaries, (m, 1)).astype(np.int64),
        ]
        candidates = ~scheme.matrix.copy()
        placed = 0
        while True:
            gains = np.where(
                candidates, instance.reads * nearest_cost / sizes[None, :], 0.0
            )
            gains[sizes[None, :] > remaining[:, None] + CAPACITY_TOLERANCE] = 0.0
            best_flat = int(np.argmax(gains))
            site, obj = divmod(best_flat, n)
            if gains[site, obj] <= 0.0:
                break
            scheme.add_replica(site, obj)
            placed += 1
            remaining[site] -= sizes[obj]
            candidates[site, obj] = False
            closer = cost[:, site] < nearest_cost[:, obj]
            nearest_cost[closer, obj] = cost[closer, site]
        return scheme, {"replicas_created": placed}


__all__ = ["NoReplication", "RandomReplication", "ReadOnlyGreedy"]
