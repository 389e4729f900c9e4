"""The Simple Replication Algorithm (SRA) — Section 3 of the paper.

SRA is a greedy method.  Each site keeps a candidate list ``L_i`` of
objects it could still replicate; sites with a non-empty list form ``LS``.
In every step a site is picked from ``LS`` (round-robin in the paper; the
GRA seeding uses random order for diversity), the Eq. 5 benefit ``B_ik``
of every candidate is computed against the *current* nearest-replica table
``SN``, candidates that no longer fit or have non-positive benefit are
pruned, and the best positive-benefit object is replicated.  Replication
updates the global ``SN`` column so later benefit computations see the new
replica.

Deviation noted from the paper's pseudocode: step (7) as printed would
also select a zero-benefit object (``BMAX <= B`` with ``BMAX = 0``);
we require strictly positive benefit, which is what the prose specifies
("the benefit value is positive") and avoids wasting capacity on
do-nothing replicas.

The implementation is vectorised and keeps ``L_i`` compact: a site's
first visit costs ``O(N)`` numpy work, every later visit ``O(|L_i|)``
plus ``O(M)`` when it places a replica — within the paper's ``O(M + N)``
per-iteration bound, for an overall ``O(M^2 N + M N^2)``.  Memory beyond
the inputs and the cost model is an ``(N, M)`` float64 nearest-cost
table and the candidate lists (five values per candidate).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.core.cost import CostModel, cost_model_for
from repro.core.incremental import eq5_benefit
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE, ReplicationScheme
from repro.errors import ValidationError
from repro.obs.ledger import current_ledger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tracing import current_tracer

#: site-visit orders supported by :class:`SRA`
ORDER_ROUND_ROBIN = "round-robin"
ORDER_RANDOM = "random"


class SRA(ReplicationAlgorithm):
    """Greedy replica placement driven by the Eq. 5 benefit value.

    Parameters
    ----------
    site_order:
        ``"round-robin"`` (the paper's centralised algorithm) or
        ``"random"`` (used when seeding GRA populations, Section 4).
    rng:
        Random source; only consulted when ``site_order="random"``.
    update_fraction:
        Write-transfer scaling forwarded to the cost model (1.0 = paper).
    """

    name = "SRA"
    supports_sparse = True

    def __init__(
        self,
        site_order: str = ORDER_ROUND_ROBIN,
        rng: SeedLike = None,
        update_fraction: float = 1.0,
    ) -> None:
        if site_order not in (ORDER_ROUND_ROBIN, ORDER_RANDOM):
            raise ValidationError(
                f"site_order must be round-robin or random, got {site_order!r}"
            )
        self._site_order = site_order
        self._rng = as_generator(rng)
        self._update_fraction = update_fraction
        if site_order == ORDER_RANDOM:
            self.name = "SRA(random-order)"

    def make_cost_model(self, instance: DRPInstance) -> CostModel:
        return cost_model_for(
            instance, update_fraction=self._update_fraction
        )

    # ------------------------------------------------------------------ #
    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        tracer = current_tracer()
        with tracer.span(
            "sra.solve",
            sites=instance.num_sites,
            objects=instance.num_objects,
            order=self._site_order,
        ) as span:
            scheme, stats = self._scan(instance, model, tracer)
            span.set(replicas_created=stats["replicas_created"])
        return scheme, stats

    def _scan(
        self,
        instance,
        model: CostModel,
        tracer,
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        """The greedy scan over an object-major nearest-cost table.

        ``nearest[k, i]`` is ``C(i, SN_ik)``, stored ``(N, M)`` so that a
        placement of object ``k`` rewrites one contiguous row.  Each site
        keeps its ``L_i`` as a compact list built at its first visit:
        ascending object ids plus one float64 block holding each
        candidate's reads, other sites' writes, ``C(i, SP_k)`` and size,
        so one boolean index prunes them all.  A first visit costs
        ``O(N)``; every later one costs ``O(|L_i|)`` plus ``O(M)`` for a
        placement.

        Dense instances and sparse problems share the loop; only the
        first-visit read/write rows are fetched differently (matrix rows,
        or CSR rows densified to the same integers), so both produce the
        same scheme bit for bit.  ``C`` is read as ``C(i, j)`` with ``i``
        the reading site (the model's transposed copy serves columns as
        rows), so costs that are only ``allclose``-symmetric price as
        before.  Peak extra memory is the float64 ``(N, M)`` table and
        the candidate lists; the sparse path never builds the dense
        ``(M, N)`` count matrices.
        """
        ledger = current_ledger()
        m = instance.num_sites
        n = instance.num_objects
        cost = instance.cost
        cost_t = model.transposed_cost
        sizes = instance.sizes
        primaries = instance.primaries
        uf = model.update_fraction
        if isinstance(instance, DRPInstance):
            read_row = instance.reads.__getitem__
            write_row = instance.writes.__getitem__
            total_writes = instance.writes.sum(axis=0)
        else:
            read_row = instance.reads.row_dense
            write_row = instance.writes.row_dense
            total_writes = instance.writes.column_sums()

        scheme = ReplicationScheme.primary_only(instance)
        remaining = scheme.remaining_capacity()

        # SN distances: with only primaries placed, SN[k, i] == C(i, SP_k).
        nearest = cost_t[primaries]

        # L_i per site, built lazily: objects held at the primary are not
        # candidates, so a site is active unless it is every object's
        # primary.
        cand_objs = [None] * m
        cand_block = [None] * m
        held = np.bincount(primaries, minlength=m)
        active = [i for i in range(m) if held[i] < n]

        steps = 0
        visits = 0
        replicas_created = 0
        benefit_evaluations = 0
        cursor = 0

        while active:
            visits += 1
            if self._site_order == ORDER_RANDOM:
                pos = int(self._rng.integers(len(active)))
            else:
                pos = cursor % len(active)
            site = active[pos]

            objs = cand_objs[site]
            if objs is None:
                objs = np.flatnonzero(primaries != site)
                block = np.empty((4, objs.size))
                block[0] = read_row(site)[objs]
                block[1] = total_writes[objs] - write_row(site)[objs]
                block[2] = cost[site, primaries[objs]]
                block[3] = sizes[objs]
            else:
                block = cand_block[site]
            # Benefit of each candidate (Eq. 5, already divided by o_k).
            benefit = eq5_benefit(
                block[0], nearest[:, site][objs], block[1], block[2], uf
            )
            benefit_evaluations += int(objs.size)

            # Candidates that are not viable now never will be: benefits
            # only fall as replicas spread, and capacity only shrinks.
            keep = (benefit > 0.0) & (
                block[3] <= remaining[site] + CAPACITY_TOLERANCE
            )

            # First maximum in ascending object order, as the paper's scan
            # over L_i.  Non-viable entries cannot win, so a non-viable
            # winner means nothing here is viable.
            at = int(np.where(keep, benefit, -np.inf).argmax())
            if keep[at]:
                steps += 1
                best = int(objs[at])
                gain = float(benefit[at])
                keep[at] = False
                scheme.add_replica(site, best)
                if tracer.enabled:
                    # Eq. 5 benefit of the placement actually taken.
                    tracer.event(
                        "sra.place",
                        site=site,
                        obj=best,
                        benefit=gain,
                        step=steps,
                    )
                if ledger.enabled:
                    ledger.record(
                        "add",
                        obj=best,
                        site=site,
                        algorithm="sra",
                        benefit=gain,
                        step=steps,
                    )
                replicas_created += 1
                remaining[site] -= sizes[best]
                # Update SN for the new replica's object at every site.
                row = nearest[best]
                from_site = cost_t[site]
                np.copyto(row, from_site, where=from_site < row)
                # Objects that no longer fit at this site die lazily on the
                # next visit; the capacity check above handles them.

            objs = objs[keep]
            cand_objs[site] = objs
            cand_block[site] = block.compress(keep, axis=1)

            if not objs.size:
                active.pop(pos)
                # Round-robin continues from the same position (the next
                # site shifted into it).
                if self._site_order == ORDER_ROUND_ROBIN and active:
                    cursor = pos % len(active)
            elif self._site_order == ORDER_ROUND_ROBIN:
                cursor = (pos + 1) % len(active)

        stats: Dict[str, object] = {
            "site_visits": visits,
            "replication_steps": steps,
            "replicas_created": replicas_created,
            "site_order": self._site_order,
            "benefit_evaluations": benefit_evaluations,
        }
        return scheme, stats


__all__ = ["SRA", "ORDER_ROUND_ROBIN", "ORDER_RANDOM"]
