"""Nodes of the distributed SRA emulation.

Each :class:`SiteNode` knows only what the paper grants it: its own read
and write counts, the cost vector to every other site (routing tables),
the objects' primary sites, its nearest-replica fields ``SN_ik``, and —
once the leader has distributed the nightly statistics — the global
per-object write totals needed by the Eq. 5 benefit.  It never reads
another site's state directly; every interaction flows through messages.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.core.incremental import eq5_benefit
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.distributed.messages import MessageKind, MessageLog
from repro.errors import ProtocolError


class SiteNode:
    """One site's local state and greedy logic.

    The Eq. 5 operands are kept as per-object arrays over the site's own
    rows: reads, the cost to each object's primary and to its nearest
    known replica (``SN_ik``, which may be stale), and — once STATS
    arrived — the other sites' writes.  The candidate list ``L_i`` is a
    mask over the objects.
    """

    def __init__(self, site: int, instance: DRPInstance) -> None:
        self.site = site
        # Local knowledge only: the node keeps references to its own rows.
        self._cost_row = instance.cost[site]
        self._reads_row = instance.reads[site]
        self._writes_row = instance.writes[site]
        self._sizes = instance.sizes
        self._primary_cost = self._cost_row[instance.primaries]
        self.capacity = float(instance.capacities[site])
        self.remaining = self.capacity
        self.replicas: Set[int] = set()
        # SN_ik field per object; initially the primary site.
        self.nearest = instance.primaries.astype(np.int64).copy()
        self._nearest_cost = self._primary_cost.copy()
        # Other sites' writes per object; filled by the leader's STATS.
        self._other_writes: Optional[np.ndarray] = None
        # Candidate list L_i.
        self._open = np.ones(instance.num_objects, dtype=bool)

    # ------------------------------------------------------------------ #
    @property
    def candidates(self) -> Set[int]:
        """The candidate list ``L_i`` as a set of objects."""
        return set(np.flatnonzero(self._open).tolist())

    def receive_stats(self, write_totals: np.ndarray) -> None:
        self._other_writes = (
            np.asarray(write_totals, dtype=float) - self._writes_row
        )

    def host_primary(self, obj: int) -> None:
        """Install the primary copy (consumes capacity, not a candidate)."""
        self.replicas.add(obj)
        self._open[obj] = False
        self.remaining -= float(self._sizes[obj])
        if self.remaining < -CAPACITY_TOLERANCE:
            raise ProtocolError(
                f"site {self.site} cannot store its primary copies"
            )

    def observe_replication(self, obj: int, replicator: int) -> None:
        """Update the local ``SN`` field after a REPLICATE broadcast."""
        cost = self._cost_row[replicator]
        if cost < self._nearest_cost[obj]:
            self.nearest[obj] = replicator
            self._nearest_cost[obj] = cost

    # ------------------------------------------------------------------ #
    def _benefits(self) -> np.ndarray:
        """Eq. 5 benefit of every object here, from local knowledge."""
        if self._other_writes is None:
            raise ProtocolError(
                f"site {self.site} has no statistics; leader must send STATS"
            )
        return eq5_benefit(
            self._reads_row,
            self._nearest_cost,
            self._other_writes,
            self._primary_cost,
        )

    def benefit(self, obj: int) -> float:
        """Eq. 5 benefit of replicating ``obj`` here, from local knowledge."""
        return float(self._benefits()[obj])

    def greedy_step(self) -> Optional[int]:
        """One SRA step: pick the best candidate, prune dead ones.

        Returns the replicated object, or ``None`` when no candidate has
        positive benefit (the candidate list is pruned accordingly).
        Candidates with a non-positive benefit or that no longer fit are
        dead; ties go to the lowest object index, as in the centralised
        SRA (``argmax`` returns the first maximum).
        """
        value = self._benefits()
        fits = self._sizes <= self.remaining + CAPACITY_TOLERANCE
        live = self._open & fits & (value > 0.0)
        self._open = live
        if not live.any():
            return None
        best = int(np.argmax(np.where(live, value, -np.inf)))
        self.replicas.add(best)
        self._open[best] = False
        self.remaining -= float(self._sizes[best])
        self.nearest[best] = self.site
        self._nearest_cost[best] = self._cost_row[self.site]
        return best

    @property
    def exhausted(self) -> bool:
        """True when the candidate list ``L_i`` is empty."""
        return not self._open.any()


class LeaderNode:
    """The network leader: owns ``LS`` and the token."""

    def __init__(self, leader_site: int, num_sites: int) -> None:
        self.site = leader_site
        self.active: List[int] = list(range(num_sites))
        self._cursor = 0

    def next_site(self) -> Optional[int]:
        """Round-robin pick from ``LS``; ``None`` when ``LS`` is empty."""
        if not self.active:
            return None
        site = self.active[self._cursor % len(self.active)]
        return site

    def advance(self) -> None:
        if self.active:
            self._cursor = (self._cursor + 1) % len(self.active)

    def retire(self, site: int) -> None:
        """Remove a site whose candidate list is exhausted."""
        pos = self.active.index(site)
        self.active.pop(pos)
        if self.active:
            self._cursor = pos % len(self.active)

    @property
    def done(self) -> bool:
        return not self.active


def elect_lowest_alive(
    log: MessageLog, num_sites: int, crashed: Set[int]
) -> Optional[int]:
    """Deterministic take-over by the lowest-numbered alive site.

    Records one ``ELECTION`` message from the new site to every other
    alive site and returns it; returns ``None`` (recording nothing) when
    every site is down.  Election models an atomic procedure, so its
    messages are not subject to message faults.
    """
    alive = [s for s in range(num_sites) if s not in crashed]
    if not alive:
        return None
    elected = alive[0]
    peers = alive[1:]
    log.send_many(
        elected, peers, MessageKind.ELECTION, 0.0, elected, [False] * len(peers)
    )
    return elected


__all__ = ["SiteNode", "LeaderNode", "elect_lowest_alive"]
