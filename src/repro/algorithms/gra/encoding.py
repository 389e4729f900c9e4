"""Chromosome encoding (Section 4, "Encoding mechanism").

A chromosome is a bit-string of ``M`` genes (one per site), each of ``N``
bits (one per object): bit ``k`` of gene ``i`` set means site ``i``
replicates object ``k``.  We store chromosomes as boolean ``(M, N)``
matrices — gene ``i`` is row ``i`` and the flat bit index of the paper is
``i * N + k`` — which makes gene (site) validity checks vectorised row
operations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.errors import ValidationError


def flat_to_matrix(bits: np.ndarray, num_sites: int, num_objects: int) -> np.ndarray:
    """Reshape the paper's flat ``M*N`` bit-string into the (M, N) matrix."""
    arr = np.asarray(bits, dtype=bool)
    if arr.shape != (num_sites * num_objects,):
        raise ValidationError(
            f"expected {num_sites * num_objects} bits, got shape {arr.shape}"
        )
    return arr.reshape(num_sites, num_objects).copy()


def matrix_to_flat(matrix: np.ndarray) -> np.ndarray:
    """Flatten a chromosome matrix into the paper's bit-string layout."""
    return np.asarray(matrix, dtype=bool).reshape(-1).copy()


def gene_loads(instance: DRPInstance, matrix: np.ndarray) -> np.ndarray:
    """Storage used by each gene (site) under ``matrix``."""
    return np.asarray(matrix, dtype=float) @ instance.sizes


def gene_valid(instance: DRPInstance, matrix: np.ndarray, site: int) -> bool:
    """Gene validity: the site's replicas fit in its capacity (Section 4)."""
    load = float(np.asarray(matrix[site], dtype=float) @ instance.sizes)
    return load <= float(instance.capacities[site]) + CAPACITY_TOLERANCE


def chromosome_valid(instance: DRPInstance, matrix: np.ndarray) -> bool:
    """Chromosome validity: every gene valid and every primary present."""
    loads = gene_loads(instance, matrix)
    if np.any(loads > instance.capacities + CAPACITY_TOLERANCE):
        return False
    n = instance.num_objects
    return bool(np.all(matrix[instance.primaries, np.arange(n)]))


def enforce_primaries(instance: DRPInstance, matrix: np.ndarray) -> np.ndarray:
    """Set every primary bit (in place) and return the matrix."""
    matrix[instance.primaries, np.arange(instance.num_objects)] = True
    return matrix


def random_valid_chromosome(
    instance: DRPInstance, rng: np.random.Generator, fill: float = 0.5
) -> np.ndarray:
    """A random valid chromosome: primaries plus random replicas that fit.

    ``fill`` bounds the expected fraction of each site's free capacity to
    consume.  Used by the un-seeded initialisation ablation.
    """
    m, n = instance.num_sites, instance.num_objects
    matrix = np.zeros((m, n), dtype=bool)
    enforce_primaries(instance, matrix)
    loads = gene_loads(instance, matrix)
    for site in range(m):
        budget = fill * (float(instance.capacities[site]) - loads[site])
        order = rng.permutation(n)
        for obj in order:
            if matrix[site, obj]:
                continue
            size = float(instance.sizes[obj])
            if size <= budget:
                matrix[site, obj] = True
                budget -= size
    return matrix


def perturb_chromosome(
    instance: DRPInstance,
    matrix: np.ndarray,
    share: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomly toggle up to ``share`` of the bits, preserving validity.

    Implements the diversity injection of Section 4's initial population:
    candidate bit positions are sampled, then each toggle is applied only
    when it keeps the gene within capacity and does not clear a primary
    bit.  Returns a new matrix.
    """
    m, n = instance.num_sites, instance.num_objects
    out = np.asarray(matrix, dtype=bool).copy()
    loads = gene_loads(instance, out)
    count = int(round(share * m * n))
    if count == 0:
        return out
    positions = rng.choice(m * n, size=count, replace=False)
    primaries = instance.primaries
    for pos in positions:
        site, obj = divmod(int(pos), n)
        size = float(instance.sizes[obj])
        if out[site, obj]:
            if int(primaries[obj]) == site:
                continue  # never clear a primary bit
            out[site, obj] = False
            loads[site] -= size
        else:
            if loads[site] + size > float(instance.capacities[site]) + CAPACITY_TOLERANCE:
                continue  # would overflow the gene
            out[site, obj] = True
            loads[site] += size
    return out


__all__ = [
    "flat_to_matrix",
    "matrix_to_flat",
    "gene_loads",
    "gene_valid",
    "chromosome_valid",
    "enforce_primaries",
    "random_valid_chromosome",
    "perturb_chromosome",
]
