"""Greedy delta-debugging shrinker for failing conformance scenarios.

Given an instance on which a failure predicate holds (by default: the
differential oracle reports at least one failure), the shrinker tries
progressively smaller variants and keeps any that *still fail*:

1. **drop sites** — removing a site removes its row/column from the
   cost matrix and its rows from the access-count matrices; objects
   whose primary lived there are dropped with it and the remaining
   primaries are re-indexed;
2. **drop objects** — removing a column from sizes/reads/writes/
   primaries;
3. **zero counts** — zeroing whole read/write rows, then (on small
   instances) individual cells, so the surviving workload is as sparse
   as the bug allows.

The passes repeat until a full round removes nothing (a greedy fixpoint
— classic ddmin economics: each accepted candidate permanently shrinks
the search space).  The result round-trips to a JSON artifact via
:func:`write_artifact` / :func:`load_artifact`, so CI can upload minimal
repros and ``repro conform shrink`` can replay them anywhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.conformance.corpus import Scenario
from repro.core.problem import DRPInstance
from repro.errors import ReproError, ValidationError
from repro.utils.files import atomic_write, read_text

#: failure predicate: messages describing why the instance fails
#: (empty list == the instance passes, candidate rejected)
Predicate = Callable[[DRPInstance], List[str]]

#: artifact format marker
ARTIFACT_KIND = "repro.conformance.shrink"
ARTIFACT_VERSION = 1

#: above this many cells, per-cell zeroing is skipped (row zeroing still
#: runs); keeps shrinking near-instant on the corpus sizes we generate
MAX_CELLS_FOR_CELL_PASS = 256


def oracle_predicate(
    invariant_names: Optional[Sequence[str]] = None,
) -> Predicate:
    """The default predicate: "the differential oracle still fails"."""
    from repro.conformance.oracle import run_instance

    def predicate(instance: DRPInstance) -> List[str]:
        return run_instance(
            instance, name="shrink", invariant_names=invariant_names
        ).all_failures()

    return predicate


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    instance: DRPInstance
    failures: List[str]
    original_sites: int
    original_objects: int
    steps: List[str] = field(default_factory=list)
    evaluations: int = 0
    scenario: Optional[Scenario] = None

    @property
    def num_sites(self) -> int:
        return self.instance.num_sites

    @property
    def num_objects(self) -> int:
        return self.instance.num_objects

    def summary(self) -> str:
        return (
            f"shrunk {self.original_sites}x{self.original_objects} -> "
            f"{self.num_sites}x{self.num_objects} sites x objects in "
            f"{len(self.steps)} steps ({self.evaluations} predicate "
            f"evaluations)"
        )


# --------------------------------------------------------------------- #
# instance surgery (every helper returns None for an invalid candidate)
# --------------------------------------------------------------------- #
def _build(
    cost: np.ndarray,
    sizes: np.ndarray,
    capacities: np.ndarray,
    reads: np.ndarray,
    writes: np.ndarray,
    primaries: np.ndarray,
) -> Optional[DRPInstance]:
    try:
        return DRPInstance(
            cost=np.array(cost, dtype=float),
            sizes=np.array(sizes, dtype=float),
            capacities=np.array(capacities, dtype=float),
            reads=np.array(reads, dtype=float),
            writes=np.array(writes, dtype=float),
            primaries=np.array(primaries, dtype=np.int64),
        )
    except ReproError:
        return None


def drop_site(instance: DRPInstance, site: int) -> Optional[DRPInstance]:
    """The instance without ``site`` (and without the objects it primaried)."""
    if instance.num_sites <= 2:
        return None
    keep_sites = np.array(
        [i for i in range(instance.num_sites) if i != site]
    )
    keep_objs = np.nonzero(instance.primaries != site)[0]
    if keep_objs.size == 0:
        return None
    # Old site index -> new index among the survivors.
    remap = np.full(instance.num_sites, -1, dtype=np.int64)
    remap[keep_sites] = np.arange(keep_sites.size)
    return _build(
        cost=instance.cost[np.ix_(keep_sites, keep_sites)],
        sizes=instance.sizes[keep_objs],
        capacities=instance.capacities[keep_sites],
        reads=instance.reads[np.ix_(keep_sites, keep_objs)],
        writes=instance.writes[np.ix_(keep_sites, keep_objs)],
        primaries=remap[instance.primaries[keep_objs]],
    )


def drop_object(instance: DRPInstance, obj: int) -> Optional[DRPInstance]:
    """The instance without object ``obj``."""
    if instance.num_objects <= 1:
        return None
    keep = np.array(
        [k for k in range(instance.num_objects) if k != obj]
    )
    return _build(
        cost=instance.cost,
        sizes=instance.sizes[keep],
        capacities=instance.capacities,
        reads=instance.reads[:, keep],
        writes=instance.writes[:, keep],
        primaries=instance.primaries[keep],
    )


def _zero_patch(
    instance: DRPInstance, which: str, rows: slice, cols: slice
) -> Optional[DRPInstance]:
    source = instance.reads if which == "reads" else instance.writes
    if not np.any(source[rows, cols]):
        return None  # already zero — not a reduction
    patched = source.copy()
    patched[rows, cols] = 0.0
    try:
        if which == "reads":
            return instance.with_patterns(reads=patched)
        return instance.with_patterns(writes=patched)
    except ReproError:
        return None


# --------------------------------------------------------------------- #
def shrink_instance(
    instance: DRPInstance,
    predicate: Optional[Predicate] = None,
    max_evaluations: int = 2000,
    scenario: Optional[Scenario] = None,
) -> ShrinkResult:
    """Greedily minimise a failing instance while the predicate holds.

    Raises :class:`ValidationError` if the starting instance does not
    fail — shrinking a passing instance would "converge" to an arbitrary
    passing husk and report it as a repro.
    """
    if predicate is None:
        predicate = oracle_predicate()
    failures = predicate(instance)
    evaluations = 1
    if not failures:
        raise ValidationError(
            "the instance passes the failure predicate; nothing to shrink"
        )

    current = instance
    steps: List[str] = []

    def try_candidate(
        candidate: Optional[DRPInstance], label: str
    ) -> bool:
        nonlocal current, failures, evaluations
        if candidate is None or evaluations >= max_evaluations:
            return False
        evaluations += 1
        new_failures = predicate(candidate)
        if new_failures:
            current = candidate
            failures = new_failures
            steps.append(label)
            return True
        return False

    changed = True
    while changed and evaluations < max_evaluations:
        changed = False

        # Pass 1: drop sites, highest index first so earlier indices —
        # and with them the candidate order — stay stable after a hit.
        site = current.num_sites - 1
        while site >= 0:
            if try_candidate(drop_site(current, site), f"drop-site-{site}"):
                changed = True
            site -= 1

        # Pass 2: drop objects.
        obj = current.num_objects - 1
        while obj >= 0:
            if try_candidate(
                drop_object(current, obj), f"drop-object-{obj}"
            ):
                changed = True
            obj -= 1

        # Pass 3: zero whole read/write rows, then single cells while
        # the instance is small enough for the quadratic pass to be free.
        for which in ("reads", "writes"):
            for site in range(current.num_sites):
                if try_candidate(
                    _zero_patch(
                        current, which, slice(site, site + 1), slice(None)
                    ),
                    f"zero-{which}-row-{site}",
                ):
                    changed = True
        if current.num_sites * current.num_objects <= MAX_CELLS_FOR_CELL_PASS:
            for which in ("reads", "writes"):
                for site in range(current.num_sites):
                    for obj in range(current.num_objects):
                        if try_candidate(
                            _zero_patch(
                                current,
                                which,
                                slice(site, site + 1),
                                slice(obj, obj + 1),
                            ),
                            f"zero-{which}-{site}-{obj}",
                        ):
                            changed = True

    return ShrinkResult(
        instance=current,
        failures=failures,
        original_sites=instance.num_sites,
        original_objects=instance.num_objects,
        steps=steps,
        evaluations=evaluations,
        scenario=scenario,
    )


# --------------------------------------------------------------------- #
# artifacts
# --------------------------------------------------------------------- #
def write_artifact(result: ShrinkResult, path: str) -> str:
    """Write a shrunk repro as a self-contained JSON artifact."""
    data: Dict[str, object] = {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "summary": result.summary(),
        "original": {
            "num_sites": result.original_sites,
            "num_objects": result.original_objects,
        },
        "shrunk": {
            "num_sites": result.num_sites,
            "num_objects": result.num_objects,
        },
        "failures": list(result.failures),
        "steps": list(result.steps),
        "evaluations": result.evaluations,
        "instance": result.instance.to_dict(),
    }
    if result.scenario is not None:
        data["scenario"] = result.scenario.to_dict()
    with atomic_write(path) as fp:
        json.dump(data, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, object]:
    """Load a shrink artifact; ``"instance"`` comes back as a DRPInstance.

    Raises :class:`ValidationError` on a missing file or a JSON payload
    that is not a shrink artifact, with a message that says what to do.
    """
    if not os.path.lexists(path):
        raise ValidationError(
            f"no shrink artifact at {path}; produce one with "
            f"`repro conform shrink --scenario NAME --out {path}` or "
            f"download the conformance job's shrunken-repro artifact"
        )
    text = read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an int literal past the digit limit
        raise ValidationError(
            f"{path} is not valid JSON ({exc}); expected a "
            f"`repro conform shrink` artifact"
        ) from None
    if not isinstance(data, dict) or data.get("kind") != ARTIFACT_KIND:
        raise ValidationError(
            f"{path} is not a conformance shrink artifact "
            f"(missing kind={ARTIFACT_KIND!r})"
        )
    data["instance"] = DRPInstance.from_dict(data.get("instance"))
    if "scenario" in data:
        data["scenario"] = Scenario.from_dict(data["scenario"])
    return data


__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_VERSION",
    "MAX_CELLS_FOR_CELL_PASS",
    "Predicate",
    "ShrinkResult",
    "drop_object",
    "drop_site",
    "load_artifact",
    "oracle_predicate",
    "shrink_instance",
    "write_artifact",
]
