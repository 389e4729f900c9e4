"""Chromosome and population containers with memoised evaluation.

Fitness follows Section 4: ``f = (D_prime - D) / D_prime`` against the
primary-only allocation.  Chromosomes whose fitness would be negative are
reset to the initial allocation (fitness 0), as the paper prescribes.

Evaluation is the GA's hot path; :class:`Population` deduplicates
identical chromosomes (elitist copies, un-crossed parents survive across
generations) through a bytes-keyed cache on top of the cost model's
per-object column cache.  Mutation offspring additionally evaluate as
*delta chains* from their parent genome: the parent's per-object cost
vector is copied and only the columns the mutation actually changed are
re-priced (through the same batched kernel, so totals stay bit-identical
to a full batch evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.tracing import current_tracer


@dataclass
class Chromosome:
    """One candidate replication scheme inside a GA population.

    ``object_costs`` caches the per-object cost terms of the placement
    (filled by chained evaluation; treated as immutable once attached).
    ``parent`` links a mutation offspring to the genome it was derived
    from until it is evaluated; it is cleared afterwards so finished
    generations do not pin their ancestors in memory.
    """

    matrix: np.ndarray  # boolean (M, N)
    cost: Optional[float] = None
    fitness: Optional[float] = None
    object_costs: Optional[np.ndarray] = field(default=None, repr=False)
    parent: Optional["Chromosome"] = field(default=None, repr=False)

    def copy(self) -> "Chromosome":
        return Chromosome(
            self.matrix.copy(), self.cost, self.fitness, self.object_costs
        )

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
        self.chained_evaluations = 0

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    # ------------------------------------------------------------------ #
    def evaluate(self, chromosome: Chromosome) -> Chromosome:
        """Fill in cost and fitness, applying the negative-fitness reset."""
        if chromosome.fitness is not None:
            return chromosome
        key = chromosome.key()
        cost = self._eval_cache.get(key)
        if cost is None:
            cost = self.model.total_cost(chromosome.matrix)
            self._eval_cache[key] = cost
            self.evaluations += 1
        # Paper: negative fitness resets to the initial allocation.
        self._finish(chromosome, cost)
        return chromosome

    def evaluate_all(self) -> None:
        """Evaluate every pending member, batched across the population.

        Batched evaluation collapses duplicate per-object columns across
        members (generations share most columns), then applies the same
        negative-fitness reset as :meth:`evaluate`.
        """
        pending = [m for m in self.members if m.fitness is None]
        if not pending:
            return
        # whole-matrix cache first (elitist copies, surviving parents),
        # then delta chains for mutation offspring with a known parent,
        # then dedup the remaining fresh placements before batch pricing
        chained = 0
        fresh: Dict[bytes, List[Chromosome]] = {}
        for member in pending:
            key = member.key()
            cost = self._eval_cache.get(key)
            if cost is None and member.parent is not None:
                cost = self._chain_cost(member)
                if cost is not None:
                    chained += 1
                    self._eval_cache[key] = cost
                    self.evaluations += 1
            if cost is None:
                fresh.setdefault(key, []).append(member)
            else:
                self._finish(member, cost)
        if chained:
            self.chained_evaluations += chained
            tracer = current_tracer()
            if tracer.enabled:
                # One event per batched evaluation keeps `repro trace`
                # able to count incremental vs full kernel pricing.
                tracer.event("cost.delta", chained=chained)
        if fresh:
            groups = list(fresh.items())
            costs = self.model.population_costs(
                [members[0].matrix for _, members in groups]
            )
            self.evaluations += len(groups)
            for (key, members), cost in zip(groups, costs):
                self._eval_cache[key] = float(cost)
                for member in members:
                    self._finish(member, float(cost))

    def _chain_cost(self, member: Chromosome) -> Optional[float]:
        """Price a mutation offspring as a delta chain from its parent.

        Copies the parent's per-object cost vector and re-prices only the
        columns the mutation changed, through the same batched kernel the
        full path uses — totals are bit-identical to a fresh batch
        evaluation.  Returns ``None`` when the parent's vector cannot be
        established (e.g. the parent was reset after pricing).
        """
        parent = member.parent
        if parent is None or parent.matrix.shape != member.matrix.shape:
            return None
        if parent.object_costs is None:
            self._ensure_object_costs(parent)
            if parent.object_costs is None:
                return None
        changed = np.flatnonzero(
            (member.matrix != parent.matrix).any(axis=0)
        )
        vector = parent.object_costs.copy()
        model = self.model
        for k in changed:
            vector[k] = model.object_cost_kernel(int(k), member.matrix[:, k])
        member.object_costs = vector
        # Same left-to-right order population_costs accumulates in.
        return float(sum(vector.tolist()))

    def _ensure_object_costs(self, chromosome: Chromosome) -> None:
        """Fill a chromosome's per-object cost vector from the kernel.

        Column costs come from the model's cache when present (they were
        priced when the chromosome itself was evaluated), so this is
        usually N cache hits, not N kernel runs.
        """
        n = self.instance.num_objects
        vector = np.empty(n)
        model = self.model
        matrix = chromosome.matrix
        for k in range(n):
            vector[k] = model.object_cost_kernel(k, matrix[:, k])
        chromosome.object_costs = vector

    def _finish(self, chromosome: Chromosome, cost: float) -> None:
        """Apply fitness (with the paper's negative reset) from a cost."""
        d_prime = self.model.d_prime()
        fitness = 0.0 if d_prime == 0.0 else (d_prime - cost) / d_prime
        if fitness < 0.0:
            chromosome.matrix = primary_only_matrix(self.instance)
            chromosome.cost = d_prime
            chromosome.fitness = 0.0
            # The cached per-object costs described the pre-reset matrix.
            chromosome.object_costs = None
        else:
            chromosome.cost = cost
            chromosome.fitness = fitness
        chromosome.parent = None

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
