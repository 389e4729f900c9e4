"""Chromosome and population containers with memoised evaluation.

Fitness follows Section 4: ``f = (D_prime - D) / D_prime`` against the
primary-only allocation.  Chromosomes whose fitness would be negative are
reset to the initial allocation (fitness 0), as the paper prescribes.

Evaluation is the GA's hot path and has one pricing path:
:meth:`Population.evaluate_all` looks each pending placement up in a
bytes-keyed whole-matrix memo (elitist copies and un-crossed parents
survive across generations), and prices every remaining distinct
placement in one :meth:`CostModel.population_costs` call, whose batch
kernel collapses the columns members share and reuses the cost model's
per-object column cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cost import CostModel
from repro.core.fitness import fitness_from_costs
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError


@dataclass
class Chromosome:
    """One candidate replication scheme inside a GA population."""

    matrix: np.ndarray  # boolean (M, N)
    cost: Optional[float] = None
    fitness: Optional[float] = None

    def copy(self) -> "Chromosome":
        return Chromosome(self.matrix.copy(), self.cost, self.fitness)

    def key(self) -> bytes:
        """Hashable identity of the placement (packed bits)."""
        return np.packbits(self.matrix).tobytes()


def primary_only_matrix(instance: DRPInstance) -> np.ndarray:
    """The initial allocation as a chromosome matrix."""
    matrix = np.zeros(
        (instance.num_sites, instance.num_objects), dtype=bool
    )
    matrix[instance.primaries, np.arange(instance.num_objects)] = True
    return matrix


class Population:
    """A list of chromosomes bound to one instance and cost model."""

    def __init__(
        self,
        instance: DRPInstance,
        model: CostModel,
        members: Optional[Sequence[Chromosome]] = None,
    ) -> None:
        self.instance = instance
        self.model = model
        self.members: List[Chromosome] = list(members or [])
        self._eval_cache: Dict[bytes, float] = {}
        self.evaluations = 0

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    # ------------------------------------------------------------------ #
    def evaluate_all(self) -> None:
        """Evaluate every pending member, batched across the population.

        Members whose placement the whole-matrix memo already holds are
        finished from it; the remaining distinct placements are priced
        in one :meth:`CostModel.population_costs` call.  Every member
        then gets the same negative-fitness reset.
        """
        fresh: Dict[bytes, List[Chromosome]] = {}
        for member in self.members:
            if member.fitness is not None:
                continue
            key = member.key()
            cost = self._eval_cache.get(key)
            if cost is None:
                fresh.setdefault(key, []).append(member)
            else:
                self._finish(member, cost)
        if not fresh:
            return
        costs = self.model.population_costs(
            [members[0].matrix for members in fresh.values()]
        )
        self.evaluations += len(fresh)
        for (key, members), cost in zip(fresh.items(), costs):
            self._eval_cache[key] = float(cost)
            for member in members:
                self._finish(member, float(cost))

    def _finish(self, chromosome: Chromosome, cost: float) -> None:
        """Apply fitness (with the paper's negative reset) from a cost."""
        d_prime = self.model.d_prime()
        fitness = fitness_from_costs(d_prime, cost)
        if fitness < 0.0:
            chromosome.matrix = primary_only_matrix(self.instance)
            chromosome.cost = d_prime
            chromosome.fitness = 0.0
        else:
            chromosome.cost = cost
            chromosome.fitness = fitness

    def fitness_array(self) -> np.ndarray:
        self.evaluate_all()
        return np.asarray(
            [member.fitness for member in self.members], dtype=float
        )

    # ------------------------------------------------------------------ #
    def best(self) -> Chromosome:
        if not self.members:
            raise ValidationError("population is empty")
        self.evaluate_all()
        return max(self.members, key=lambda c: c.fitness)  # type: ignore[arg-type]

    def worst_index(self) -> int:
        if not self.members:
            raise ValidationError("population is empty")
        self.evaluate_all()
        fitness = self.fitness_array()
        return int(np.argmin(fitness))

    def best_scheme(self) -> ReplicationScheme:
        return ReplicationScheme.from_matrix(
            self.instance, self.best().matrix
        )

    def mean_fitness(self) -> float:
        return float(self.fitness_array().mean())

    def diversity(self) -> float:
        """Fraction of distinct placements in the population (0..1]."""
        if not self.members:
            return 0.0
        keys = {member.key() for member in self.members}
        return len(keys) / len(self.members)


__all__ = ["Chromosome", "Population", "primary_only_matrix"]
