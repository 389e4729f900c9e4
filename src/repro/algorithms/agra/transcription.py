"""Transcription of micro-GA results into a GRA population (Section 5).

The best per-object scheme found by the micro-GA is transcribed into the
top half of the (fitness-ordered) GRA population — including the elite
chromosome, which carries the network's current replica distribution —
while the remaining ranked schemes are transcribed randomly over the other
half.

Transcription can overflow site capacities.  Rather than random
deallocation or the exact-but-slow greedy on ``D`` (``O(M^2 N)`` per
candidate), the paper repairs with the Eq. 6 estimate: at each over-full
site, deallocate the held object with the *lowest* estimated replica value
until the constraint is met (primaries are never deallocated, and the
object's replica degree is re-derived after each drop).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms.gra.population import Population
from repro.core.benefit import deallocation_estimates_for_site
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.errors import ReproError, ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tracing import current_tracer


def repair_capacity(
    instance: DRPInstance,
    matrix: np.ndarray,
    protected_obj: Optional[int] = None,
) -> np.ndarray:
    """Deallocate lowest-estimate replicas until every site fits.

    ``protected_obj`` (the freshly transcribed object) is dropped only as
    a last resort — when a site cannot otherwise satisfy its constraint.
    Returns the repaired matrix (same array, modified in place); an
    unrepairable site raises :class:`~repro.errors.ReproError` and
    leaves ``matrix`` untouched.
    """
    # Fast path: most transcriptions do not overflow any site.
    sizes = instance.sizes
    capacities = instance.capacities
    loads = np.asarray(matrix, dtype=float) @ sizes
    over = np.flatnonzero(loads > capacities + CAPACITY_TOLERANCE)
    if over.size == 0:
        return matrix
    repaired = np.array(matrix, dtype=bool)
    tracer = current_tracer()
    for site in over.tolist():
        limit = capacities[site] + CAPACITY_TOLERANCE
        # Dropping an object at this site changes only that object's own
        # degree, so the remaining candidates' estimates stay valid:
        # compute once, drop in ascending order until the site fits.
        estimates = deallocation_estimates_for_site(instance, repaired, site)
        if protected_obj is not None:
            estimates[protected_obj] = np.nan
        order = np.argsort(estimates)
        order = order[~np.isnan(estimates[order])]
        # Drops at other sites leave this row's load as computed above.
        used = float(loads[site])
        for victim in order.tolist():
            if used <= limit:
                break
            repaired[site, victim] = False
            if tracer.enabled:
                # The Eq. 6 deallocation decision: lowest estimated
                # replica value goes first.
                tracer.event(
                    "agra.deallocate",
                    site=site,
                    obj=victim,
                    estimate=float(estimates[victim]),
                )
            used -= float(sizes[victim])
        if used > limit:
            if (
                protected_obj is not None
                and repaired[site, protected_obj]
                and int(instance.primaries[protected_obj]) != site
            ):
                repaired[site, protected_obj] = False
                if tracer.enabled:
                    tracer.event(
                        "agra.deallocate",
                        site=site,
                        obj=protected_obj,
                        estimate=None,  # protected: dropped as last resort
                        last_resort=True,
                    )
                used -= float(sizes[protected_obj])
            if used > limit:
                raise ReproError(
                    f"site {site} cannot be repaired: only primary copies "
                    "remain but capacity is still exceeded"
                )
    matrix[:, :] = repaired
    return matrix


def transcribe_population(
    population: Population,
    result_columns: Sequence[np.ndarray],
    obj: int,
    rng: SeedLike = None,
    order: Optional[np.ndarray] = None,
) -> None:
    """Write ranked micro-GA columns for ``obj`` into the population.

    ``result_columns`` must be fitness-descending (as produced by
    :func:`repro.algorithms.agra.run_micro_ga`).  The best column goes to
    the top half of the population by fitness (elite included); the rest
    of the ranking is scattered randomly over the bottom half.  Capacity
    violations introduced by the new column are repaired via Eq. 6.
    Chromosome fitnesses are invalidated (set to ``None``) so the next
    evaluation recomputes them.

    ``order`` may pass a precomputed best-first member ranking.  The
    paper transcribes every changed object against the *initial* GRA
    population's fitness ordering; AGRA computes that ranking once and
    reuses it, avoiding a full population re-evaluation per object.
    """
    if not result_columns:
        raise ValidationError("result_columns must not be empty")
    gen = as_generator(rng)
    instance = population.instance
    if order is None:
        population.evaluate_all()
        order = np.argsort(
            [-(member.fitness or 0.0) for member in population.members]
        )
    else:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(len(population.members))):
            raise ValidationError(
                "order must be a permutation of the member indices"
            )
    half = max(1, len(order) // 2)
    top, bottom = order[:half], order[half:]

    best = np.asarray(result_columns[0], dtype=bool)
    for idx in top:
        member = population.members[int(idx)]
        member.matrix = member.matrix.copy()
        member.matrix[:, obj] = best
        repair_capacity(instance, member.matrix, protected_obj=obj)
        member.fitness = None
        member.cost = None

    others = [np.asarray(c, dtype=bool) for c in result_columns[1:]]
    if not others:
        others = [best]
    for idx in bottom:
        member = population.members[int(idx)]
        column = others[int(gen.integers(len(others)))]
        member.matrix = member.matrix.copy()
        member.matrix[:, obj] = column
        repair_capacity(instance, member.matrix, protected_obj=obj)
        member.fitness = None
        member.cost = None


__all__ = ["repair_capacity", "transcribe_population"]
