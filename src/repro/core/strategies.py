"""Alternative write/consistency strategies under the same cost model.

Section 2.2 notes the framework "can be used with minor changes to
formalize various replication and consistency strategies".  This module
makes three of them concrete:

* ``PRIMARY_BROADCAST`` — the paper's policy (Eq. 4): writers ship the
  object to the primary, which broadcasts it to every replicator.
* ``WRITER_MULTICAST`` — writers ship the update directly to every
  replicator (no primary relay).  Cheaper when writers sit close to the
  replicas; the classic eager update-everywhere scheme.
* ``INVALIDATION`` — writers update only the primary; replicas are
  merely invalidated (control traffic, cost-free per the paper's
  convention).  A read that hits a stale replica refetches the object
  from the primary and revalidates the local copy.

The first two are exact closed forms (the simulator matches them to
float precision).  Invalidation's cost depends on the read/write
*interleaving*, so the closed form here is the standard stationary
approximation — each read finds its local replica stale with probability
``w_k / (w_k + r_ik-rate share)`` — and the request-level simulator
(:class:`repro.sim.ReplicaSystem` with ``write_strategy="invalidation"``)
provides ground truth; tests bound the approximation error.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError

SchemeLike = Union[ReplicationScheme, np.ndarray]


class WriteStrategy(str, enum.Enum):
    """How updates propagate to replicas."""

    PRIMARY_BROADCAST = "primary-broadcast"
    WRITER_MULTICAST = "writer-multicast"
    INVALIDATION = "invalidation"


def _as_matrix(instance: DRPInstance, scheme: SchemeLike) -> np.ndarray:
    if isinstance(scheme, ReplicationScheme):
        return scheme.matrix
    mat = np.asarray(scheme, dtype=bool)
    expected = (instance.num_sites, instance.num_objects)
    if mat.shape != expected:
        raise ValidationError(
            f"scheme matrix must have shape {expected}, got {mat.shape}"
        )
    return mat


def object_cost(
    instance: DRPInstance,
    obj: int,
    column: np.ndarray,
    strategy: WriteStrategy = WriteStrategy.PRIMARY_BROADCAST,
    update_fraction: float = 1.0,
) -> float:
    """NTC of one object under the given write strategy.

    ``PRIMARY_BROADCAST`` is Eq. 4 itself and is priced by
    :class:`~repro.core.cost.CostModel`.
    """
    strategy = WriteStrategy(strategy)
    if strategy is WriteStrategy.PRIMARY_BROADCAST:
        return CostModel(
            instance, update_fraction=update_fraction, cache_size=0
        ).object_cost(obj, column)
    mask = np.asarray(column, dtype=bool)
    reps = np.nonzero(mask)[0]
    cost = instance.cost
    size = float(instance.sizes[obj])
    reads = instance.reads[:, obj]
    writes = instance.writes[:, obj]
    primary = int(instance.primaries[obj])
    nearest_cost = cost[:, reps].min(axis=1)
    uf = update_fraction

    if strategy is WriteStrategy.WRITER_MULTICAST:
        read_term = float(reads @ nearest_cost) * size
        # each writer pays the direct shipment to every replicator
        # (its own replica, if any, is free: C(s, s) = 0)
        per_writer = cost[:, reps].sum(axis=1)
        write_term = float(writes @ per_writer)
        return read_term + uf * size * write_term

    # INVALIDATION (stationary approximation):
    total_writes = float(writes.sum())
    to_primary = cost[:, primary]
    # writers always ship the new version to the primary
    write_term = float(writes @ to_primary)
    # each site's reads go to its nearest replica, but a share of them
    # find it stale and refetch from the primary instead.  The share of
    # stale hits at a replica approximates w / (w + r_total_at_replica);
    # we use the per-site interleaving w_k/(w_k + r_ik) which is exact
    # for a single reading site and conservative otherwise.  Reads served
    # by the primary itself are never stale.
    read_term = 0.0
    for i in range(instance.num_sites):
        r = float(reads[i])
        if r == 0.0:
            continue
        nearest = float(nearest_cost[i])
        if total_writes == 0.0 or nearest_cost[i] == cost[i, primary]:
            read_term += r * nearest
            continue
        stale_share = total_writes / (total_writes + r)
        read_term += r * (
            (1.0 - stale_share) * nearest
            + stale_share * float(cost[i, primary])
        )
    return size * (read_term + uf * write_term)


def total_cost(
    instance: DRPInstance,
    scheme: SchemeLike,
    strategy: WriteStrategy = WriteStrategy.PRIMARY_BROADCAST,
    update_fraction: float = 1.0,
) -> float:
    """Total NTC under the given write strategy."""
    strategy = WriteStrategy(strategy)
    if strategy is WriteStrategy.PRIMARY_BROADCAST:
        return CostModel(
            instance, update_fraction=update_fraction, cache_size=0
        ).total_cost(scheme, cached=False)
    mat = _as_matrix(instance, scheme)
    return float(
        sum(
            object_cost(instance, k, mat[:, k], strategy, update_fraction)
            for k in range(instance.num_objects)
        )
    )


__all__ = ["WriteStrategy", "object_cost", "total_cost"]
