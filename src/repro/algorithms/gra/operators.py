"""Genetic operators of the GRA (Section 4).

* **Two-point crossover** on the flat ``M*N`` bit-string.  Either the
  segment between the two cut points or the two outer fractions are
  swapped (chosen at random).  Only the one or two genes *containing* a
  cut point can become invalid; their validity is restored by also
  exchanging the uncrossed portion of that gene, after which the gene is
  wholly inherited from one (valid) parent.  Primary bits are set in both
  parents, so crossover can never clear them.

* **Bit-flip mutation** with per-bit probability ``mu_m``; a flip that
  would violate the storage constraint or clear a primary bit is flipped
  back (i.e. suppressed), exactly as Section 4 describes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.algorithms.gra.encoding import gene_loads, gene_valid
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE

Interval = Tuple[int, int]


def _swap_region(
    flat_a: np.ndarray, flat_b: np.ndarray, lo: int, hi: int
) -> None:
    """Exchange bits [lo, hi) between the two flat chromosomes, in place."""
    if hi > lo:
        tmp = flat_a[lo:hi].copy()
        flat_a[lo:hi] = flat_b[lo:hi]
        flat_b[lo:hi] = tmp


def _subtract_intervals(
    span: Interval, removed: List[Interval]
) -> List[Interval]:
    """Portions of ``span`` not covered by any interval in ``removed``."""
    result: List[Interval] = []
    cursor = span[0]
    for lo, hi in sorted(removed):
        lo, hi = max(lo, span[0]), min(hi, span[1])
        if hi <= lo:
            continue
        if lo > cursor:
            result.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < span[1]:
        result.append((cursor, span[1]))
    return result


def two_point_crossover(
    instance: DRPInstance,
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cross two valid chromosomes; children are returned valid.

    Parents are ``(M, N)`` boolean matrices and are not modified.
    """
    m, n = instance.num_sites, instance.num_objects
    length = m * n
    child_a = parent_a.reshape(-1).copy()
    child_b = parent_b.reshape(-1).copy()

    p1, p2 = sorted(int(p) for p in rng.choice(length + 1, 2, replace=False))
    if rng.random() < 0.5:
        swapped: List[Interval] = [(p1, p2)]
    else:
        swapped = [(0, p1), (p2, length)]
    for lo, hi in swapped:
        _swap_region(child_a, child_b, lo, hi)

    mat_a = child_a.reshape(m, n)
    mat_b = child_b.reshape(m, n)

    # Restore validity of the (at most two) genes containing a cut point:
    # swap their *uncrossed* portion too, so the whole gene comes from one
    # valid parent.
    for cut in (p1, p2):
        gene = cut // n
        if gene >= m or cut % n == 0:
            continue  # cut falls on a gene boundary: both sides are whole
        if not (
            gene_valid(instance, mat_a, gene)
            and gene_valid(instance, mat_b, gene)
        ):
            span = (gene * n, (gene + 1) * n)
            for lo, hi in _subtract_intervals(span, swapped):
                _swap_region(child_a, child_b, lo, hi)
    return mat_a, mat_b


def mutate(
    instance: DRPInstance,
    chromosome: np.ndarray,
    mutation_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bit-flip mutation with constraint-violating flips suppressed.

    Returns a new valid chromosome; the input is not modified.
    """
    m, n = instance.num_sites, instance.num_objects
    out = chromosome.copy()
    if mutation_rate <= 0.0:
        return out
    flips = np.nonzero(rng.random(m * n) < mutation_rate)[0]
    if flips.size == 0:
        return out
    loads = gene_loads(instance, out)
    capacities = instance.capacities
    primaries = instance.primaries
    sizes = instance.sizes
    for pos in flips:
        site, obj = divmod(int(pos), n)
        if out[site, obj]:
            if int(primaries[obj]) == site:
                continue  # would violate the primary-copy constraint
            out[site, obj] = False
            loads[site] -= sizes[obj]
        else:
            if loads[site] + sizes[obj] > capacities[site] + CAPACITY_TOLERANCE:
                continue  # would violate the storage constraint
            out[site, obj] = True
            loads[site] += sizes[obj]
    return out


def single_point_crossover(
    length: int,
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """AGRA's single-point crossover on length-``length`` bit vectors.

    With equal probability the left or the right part of the chromosomes
    is exchanged (Section 5).
    """
    child_a = parent_a.copy()
    child_b = parent_b.copy()
    if length < 2:
        return child_a, child_b
    cut = int(rng.integers(1, length))
    if rng.random() < 0.5:
        lo, hi = 0, cut
    else:
        lo, hi = cut, length
    tmp = child_a[lo:hi].copy()
    child_a[lo:hi] = child_b[lo:hi]
    child_b[lo:hi] = tmp
    return child_a, child_b


__all__ = ["two_point_crossover", "mutate", "single_point_crossover"]
