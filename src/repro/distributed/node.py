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
from repro.distributed.messages import Message, MessageKind, MessageLog
from repro.errors import ProtocolError


class SiteNode:
    """One site's local state and greedy logic."""

    def __init__(self, site: int, instance: DRPInstance) -> None:
        self.site = site
        # Local knowledge only: the node keeps references to its own rows.
        self._cost_row = instance.cost[site]
        self._reads_row = instance.reads[site]
        self._writes_row = instance.writes[site]
        self._sizes = instance.sizes
        self._primaries = instance.primaries
        self.capacity = float(instance.capacities[site])
        self.remaining = self.capacity
        self.replicas: Set[int] = set()
        # SN_ik field per object; initially the primary site.
        self.nearest = instance.primaries.astype(np.int64).copy()
        # Global write totals; filled by the leader's STATS message.
        self.write_totals: Optional[np.ndarray] = None
        # Candidate list L_i.
        self.candidates: Set[int] = set(range(instance.num_objects))

    # ------------------------------------------------------------------ #
    def receive_stats(self, write_totals: np.ndarray) -> None:
        self.write_totals = np.asarray(write_totals, dtype=float).copy()

    def host_primary(self, obj: int) -> None:
        """Install the primary copy (consumes capacity, not a candidate)."""
        self.replicas.add(obj)
        self.candidates.discard(obj)
        self.remaining -= float(self._sizes[obj])
        if self.remaining < -CAPACITY_TOLERANCE:
            raise ProtocolError(
                f"site {self.site} cannot store its primary copies"
            )

    def observe_replication(self, obj: int, replicator: int) -> None:
        """Update the local ``SN`` field after a REPLICATE broadcast."""
        if self._cost_row[replicator] < self._cost_row[self.nearest[obj]]:
            self.nearest[obj] = replicator

    # ------------------------------------------------------------------ #
    def benefit(self, obj: int) -> float:
        """Eq. 5 benefit of replicating ``obj`` here, from local knowledge."""
        if self.write_totals is None:
            raise ProtocolError(
                f"site {self.site} has no statistics; leader must send STATS"
            )
        other_writes = float(self.write_totals[obj]) - float(
            self._writes_row[obj]
        )
        return float(
            eq5_benefit(
                float(self._reads_row[obj]),
                float(self._cost_row[self.nearest[obj]]),
                other_writes,
                float(self._cost_row[self._primaries[obj]]),
            )
        )

    def greedy_step(self) -> Optional[int]:
        """One SRA step: pick the best candidate, prune dead ones.

        Returns the replicated object, or ``None`` when no candidate has
        positive benefit (the candidate list is pruned accordingly).
        """
        best_obj: Optional[int] = None
        best_benefit = 0.0
        dead: List[int] = []
        # Sorted iteration keeps tie-breaking identical to the centralised
        # SRA (numpy argmax returns the lowest index).
        for obj in sorted(self.candidates):
            fits = float(self._sizes[obj]) <= self.remaining + CAPACITY_TOLERANCE
            value = self.benefit(obj)
            if value <= 0.0 or not fits:
                dead.append(obj)
                continue
            if value > best_benefit:
                best_benefit = value
                best_obj = obj
        for obj in dead:
            self.candidates.discard(obj)
        if best_obj is None:
            return None
        self.replicas.add(best_obj)
        self.candidates.discard(best_obj)
        self.remaining -= float(self._sizes[best_obj])
        self.nearest[best_obj] = self.site
        return best_obj

    @property
    def exhausted(self) -> bool:
        """True when the candidate list ``L_i`` is empty."""
        return not self.candidates


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
    for s in alive[1:]:
        log.record(
            Message(elected, s, MessageKind.ELECTION, 0.0, payload=elected)
        )
    return elected


__all__ = ["SiteNode", "LeaderNode", "elect_lowest_alive"]
