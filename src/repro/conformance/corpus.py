"""Deterministic scenario corpus for the conformance harness.

A :class:`Scenario` is a *recipe*, not an instance: a seed plus the
workload, topology and fault-plan knobs needed to rebuild the exact same
:class:`~repro.core.problem.DRPInstance` on any machine.  Recipes are
JSON round-trippable, so a failing scenario can be committed as an
artifact and rebuilt bit-identically by ``repro conform shrink``.

Two corpus sources exist:

* :func:`default_corpus` — the fixed, hand-picked set every PR runs.  It
  spans the axes the evaluation paths branch on: tile boundaries (object
  counts around multiples of the oracle's tile width), topology families
  (paper random graph, tree, ring, star, Waxman), update ratios from
  read-only to write-heavy, tight and loose capacities, and a fault plan
  for the replay-determinism invariant.
* :func:`seeded_corpus` — ``budget`` additional scenarios drawn from a
  seeded RNG over the same axes, for scheduled deeper sweeps
  (``repro conform run --budget N --seed S``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.network.generators import (
    random_tree_topology,
    ring_topology,
    star_topology,
    waxman_topology,
)
from repro.sim.faults import (
    CrashWindow,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
)
from repro.utils.rng import SeedLike, as_generator
from repro.workload import WorkloadSpec, generate_instance

#: topology families a scenario can ask for; "paper" is the Section 6.1
#: random complete graph, the rest go through repro.network.generators
#: and take the shortest-path closure of the generated physical graph
TOPOLOGIES = ("paper", "tree", "ring", "star", "waxman")


@dataclass(frozen=True)
class Scenario:
    """One rebuildable conformance scenario.

    ``build()`` is deterministic: the same scenario (same field values)
    produces the same instance on every machine and NumPy version the
    repo supports, because all randomness flows through
    ``np.random.default_rng(seed)``.
    """

    name: str
    seed: int
    num_sites: int
    num_objects: int
    update_ratio: float = 0.05
    capacity_ratio: float = 0.15
    topology: str = "paper"
    fault_plan: Optional[FaultPlan] = None
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValidationError(
                f"topology must be one of {TOPOLOGIES}, got "
                f"{self.topology!r}"
            )
        if self.num_sites < 3:
            raise ValidationError(
                f"conformance scenarios need >= 3 sites, got "
                f"{self.num_sites}"
            )
        if self.num_objects < 1:
            raise ValidationError(
                f"num_objects must be >= 1, got {self.num_objects}"
            )

    # ------------------------------------------------------------------ #
    def spec(self) -> WorkloadSpec:
        """The Section 6.1 workload knobs of this scenario."""
        return WorkloadSpec(
            num_sites=self.num_sites,
            num_objects=self.num_objects,
            update_ratio=self.update_ratio,
            capacity_ratio=self.capacity_ratio,
        )

    def _cost_matrix(
        self, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        if self.topology == "paper":
            return None  # generate_instance draws the paper's graph
        if self.topology == "tree":
            topo = random_tree_topology(self.num_sites, rng=rng)
        elif self.topology == "ring":
            topo = ring_topology(self.num_sites, cost=2.0)
        elif self.topology == "star":
            topo = star_topology(self.num_sites, cost=3.0)
        else:  # waxman; alpha/beta high enough to stay connected small
            topo = waxman_topology(
                self.num_sites, alpha=0.9, beta=0.9, rng=rng
            )
        return topo.cost_matrix()

    def build(self) -> DRPInstance:
        """Materialise the instance this scenario describes."""
        rng = as_generator(self.seed)
        cost = self._cost_matrix(rng)
        return generate_instance(self.spec(), rng=rng, cost=cost)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "seed": self.seed,
            "num_sites": self.num_sites,
            "num_objects": self.num_objects,
            "update_ratio": self.update_ratio,
            "capacity_ratio": self.capacity_ratio,
            "topology": self.topology,
            "tags": list(self.tags),
        }
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: object) -> "Scenario":
        """Inverse of :meth:`to_dict`; a missing or mistyped field is a
        :class:`ValidationError` naming it, never a silent conversion."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"scenario must be a JSON object, got {type(data).__name__}"
            )
        tags = _scenario_field(data, "tags", list, [])
        if not all(isinstance(tag, str) for tag in tags):
            raise ValidationError(f"scenario tags must be strings, got {tags!r}")
        plan = data.get("fault_plan")
        return cls(
            name=_scenario_field(data, "name", str),
            seed=_scenario_field(data, "seed", int),
            num_sites=_scenario_field(data, "num_sites", int),
            num_objects=_scenario_field(data, "num_objects", int),
            update_ratio=_scenario_ratio(data, "update_ratio", 0.05),
            capacity_ratio=_scenario_ratio(data, "capacity_ratio", 0.15),
            topology=_scenario_field(data, "topology", str, "paper"),
            fault_plan=(
                FaultPlan.from_dict(plan) if plan is not None else None
            ),
            tags=tuple(tags),
        )

    def with_overrides(self, **kwargs: object) -> "Scenario":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


_REQUIRED = object()


def _scenario_field(
    data: Dict[str, object], key: str, kind: type, default=_REQUIRED
):
    value = data.get(key, default)
    if value is _REQUIRED:
        raise ValidationError(f"scenario has no {key!r} field")
    # bool is an int subclass, but true is not a seed
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(
            f"scenario field {key!r} must be a {kind.__name__}, got {value!r}"
        )
    return value


def _scenario_ratio(data: Dict[str, object], key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
        # an int that float() would round must not load as another number
        if math.isfinite(number) and number == value:
            return number
    raise ValidationError(
        f"scenario field {key!r} must be a finite number, got {value!r}"
    )


def _smoke_fault_plan(seed: int) -> FaultPlan:
    """A small deterministic plan for the replay-determinism invariant."""
    return FaultPlan(
        crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
        degradations=(
            LinkDegradation(src=0, dst=2, factor=3.0, start=0.1, end=0.8),
        ),
        messages=MessageFaultSpec(loss=0.05, duplicate=0.05),
        seed=seed,
    )


def default_corpus() -> List[Scenario]:
    """The fixed per-PR corpus (fast: every instance is small).

    Object counts straddle the oracle's tile width on purpose — 4 and 5
    objects exercise the two-tile kernels, 2 and 3 the merged trailing
    tile — and one scenario carries a fault plan so the deterministic
    fault machinery is always covered.
    """
    return [
        Scenario("tiny-exact", seed=11, num_sites=4, num_objects=4,
                 capacity_ratio=0.4, tags=("optimal",)),
        Scenario("tiny-tight-capacity", seed=12, num_sites=5,
                 num_objects=5, capacity_ratio=0.08, tags=("optimal",)),
        Scenario("single-tile", seed=13, num_sites=6, num_objects=3),
        Scenario("two-tile-boundary", seed=14, num_sites=8,
                 num_objects=4),
        Scenario("read-only", seed=15, num_sites=8, num_objects=12,
                 update_ratio=0.0),
        Scenario("write-heavy", seed=16, num_sites=9, num_objects=14,
                 update_ratio=0.8),
        Scenario("tree-topology", seed=17, num_sites=10, num_objects=16,
                 topology="tree"),
        Scenario("ring-topology", seed=18, num_sites=7, num_objects=10,
                 topology="ring"),
        Scenario("star-topology", seed=19, num_sites=9, num_objects=12,
                 topology="star"),
        Scenario("waxman-topology", seed=20, num_sites=10,
                 num_objects=15, topology="waxman"),
        Scenario("faulty-replay", seed=21, num_sites=8, num_objects=12,
                 fault_plan=_smoke_fault_plan(21), tags=("faults",)),
        Scenario("larger-mixed", seed=22, num_sites=12, num_objects=24,
                 update_ratio=0.2, capacity_ratio=0.25),
    ]


def seeded_corpus(seed: SeedLike, budget: int) -> List[Scenario]:
    """``budget`` scenarios drawn deterministically from ``seed``.

    The sweep draws every axis independently: sites 3–14, objects 2–28,
    update ratio over read-only to write-dominated, tight and loose
    capacities, all topology families, and a ~25% chance of a fault
    plan.  Same seed, same budget → the identical scenario list.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    rng = as_generator(seed)
    scenarios: List[Scenario] = []
    for i in range(budget):
        topology = TOPOLOGIES[int(rng.integers(len(TOPOLOGIES)))]
        num_sites = int(rng.integers(3, 15))
        num_objects = int(rng.integers(2, 29))
        update_ratio = float(
            rng.choice([0.0, 0.01, 0.05, 0.2, 0.5, 1.0])
        )
        capacity_ratio = float(rng.choice([0.08, 0.15, 0.3, 0.6]))
        scenario_seed = int(rng.integers(1, 2**31 - 1))
        plan: Optional[FaultPlan] = None
        if rng.random() < 0.25:
            plan = _smoke_fault_plan(scenario_seed % 1009)
        scenarios.append(
            Scenario(
                name=f"sweep-{i:04d}",
                seed=scenario_seed,
                num_sites=num_sites,
                num_objects=num_objects,
                update_ratio=update_ratio,
                capacity_ratio=capacity_ratio,
                topology=topology,
                fault_plan=plan,
                tags=("sweep",),
            )
        )
    return scenarios


__all__ = ["Scenario", "TOPOLOGIES", "default_corpus", "seeded_corpus"]
