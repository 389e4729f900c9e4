"""Dynamic read/write pattern changes (Section 6.1, fifth experiment).

The paper parameterises pattern drift with four knobs:

* ``Ch`` — the percentage by which a changed object's reads *or* writes
  rise (e.g. 600% means six times the current total is added);
* ``OCh`` — the percentage of objects whose pattern changes;
* ``R`` / ``U`` — of the changed objects, the shares changed toward reads
  vs toward updates (``R + U = 100%``).

New *read* requests are scattered uniformly over sites.  New *update*
requests are split: half scattered uniformly, half assigned to sites drawn
from a normal distribution whose mean is a random site and whose variance
is one fifth of the number of sites — modelling objects that are updated
from a specific cluster of nodes.  Negative ``change_percent`` models the
dual decrease case (requests are removed proportionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class PatternChange:
    """One applied drift event: which objects changed, and how."""

    read_increased: Tuple[int, ...]
    write_increased: Tuple[int, ...]
    change_percent: float

    @property
    def changed_objects(self) -> Tuple[int, ...]:
        return tuple(sorted({*self.read_increased, *self.write_increased}))


def _clustered_sites(
    count: int, num_sites: int, rng: np.random.Generator
) -> np.ndarray:
    """Sites for clustered updates: normal around a random centre site."""
    centre = float(rng.integers(num_sites))
    std = float(np.sqrt(num_sites / 5.0))
    draws = rng.normal(centre, std, size=count)
    return np.clip(np.rint(draws), 0, num_sites - 1).astype(np.int64)


def _scatter_uniform(
    count: int, num_sites: int, rng: np.random.Generator
) -> np.ndarray:
    counts = np.zeros(num_sites, dtype=np.int64)
    if count > 0:
        counts += rng.multinomial(count, np.full(num_sites, 1.0 / num_sites))
    return counts


def _remove_proportionally(
    column: np.ndarray, amount: int, rng: np.random.Generator
) -> np.ndarray:
    """Remove ``amount`` requests from ``column`` proportionally to its mass."""
    column = column.astype(np.int64).copy()
    total = int(column.sum())
    amount = min(amount, total)
    if amount <= 0 or total == 0:
        return column
    removal = rng.multinomial(amount, column / total)
    # multinomial can overshoot a site's count only through the proportion
    # rounding of the probability vector; clamp and redistribute leftovers.
    removal = np.minimum(removal, column)
    column -= removal
    leftover = amount - int(removal.sum())
    while leftover > 0 and column.sum() > 0:
        site = int(rng.choice(np.nonzero(column > 0)[0]))
        column[site] -= 1
        leftover -= 1
    return column


def apply_pattern_change(
    instance: DRPInstance,
    change_percent: float,
    object_share: float,
    read_share: float,
    rng: SeedLike = None,
    clustered_update_fraction: float = 0.5,
) -> Tuple[DRPInstance, PatternChange]:
    """Apply one drift event and return the drifted instance.

    Parameters
    ----------
    change_percent:
        The paper's ``Ch`` as a fraction (6.0 == "Ch=600%").  Negative
        values decrease the corresponding requests instead.
    object_share:
        The paper's ``OCh`` as a fraction of objects affected.
    read_share:
        The paper's ``R`` as a fraction: of the affected objects, this
        share has its *reads* changed; the rest has its *writes* changed.
    clustered_update_fraction:
        Portion of new updates assigned via the clustered normal
        distribution (paper: one half).

    Returns the new :class:`DRPInstance` (same network/storage) plus a
    :class:`PatternChange` record.
    """
    if not 0.0 <= object_share <= 1.0:
        raise ValidationError(
            f"object_share must lie in [0, 1], got {object_share}"
        )
    if not 0.0 <= read_share <= 1.0:
        raise ValidationError(
            f"read_share must lie in [0, 1], got {read_share}"
        )
    if not 0.0 <= clustered_update_fraction <= 1.0:
        raise ValidationError(
            "clustered_update_fraction must lie in [0, 1], got "
            f"{clustered_update_fraction}"
        )
    gen = as_generator(rng)
    m, n = instance.num_sites, instance.num_objects

    num_changed = int(round(object_share * n))
    changed = gen.choice(n, size=num_changed, replace=False)
    num_reads_up = int(round(read_share * num_changed))
    read_objs = set(int(k) for k in changed[:num_reads_up])
    write_objs = set(int(k) for k in changed[num_reads_up:])

    reads = instance.reads.astype(np.int64).copy()
    writes = instance.writes.astype(np.int64).copy()

    for k in read_objs:
        delta = int(round(abs(change_percent) * float(reads[:, k].sum())))
        if change_percent >= 0:
            reads[:, k] += _scatter_uniform(delta, m, gen)
        else:
            reads[:, k] = _remove_proportionally(reads[:, k], delta, gen)

    for k in write_objs:
        delta = int(round(abs(change_percent) * float(writes[:, k].sum())))
        if change_percent >= 0:
            clustered = int(round(clustered_update_fraction * delta))
            uniform = delta - clustered
            writes[:, k] += _scatter_uniform(uniform, m, gen)
            if clustered > 0:
                sites = _clustered_sites(clustered, m, gen)
                np.add.at(writes[:, k], sites, 1)
        else:
            writes[:, k] = _remove_proportionally(writes[:, k], delta, gen)

    drifted = instance.with_patterns(reads=reads, writes=writes)
    record = PatternChange(
        read_increased=tuple(sorted(read_objs)),
        write_increased=tuple(sorted(write_objs)),
        change_percent=float(change_percent),
    )
    return drifted, record


def detect_changed_objects(
    before: DRPInstance,
    after: DRPInstance,
    threshold: float = 0.5,
) -> List[int]:
    """Objects whose total reads or writes moved by more than ``threshold``.

    This is the monitor site's trigger condition in Section 5 ("each time
    the R/W pattern of an object changes above a threshold value").  The
    threshold is relative: 0.5 fires when a total changed by more than 50%
    of its previous value (an object going from zero to any positive count
    always fires).
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    changed: List[int] = []
    reads_before = before.reads.sum(axis=0).astype(float)
    reads_after = after.reads.sum(axis=0).astype(float)
    writes_before = before.writes.sum(axis=0).astype(float)
    writes_after = after.writes.sum(axis=0).astype(float)
    for k in range(before.num_objects):
        for old, new in (
            (reads_before[k], reads_after[k]),
            (writes_before[k], writes_after[k]),
        ):
            if old == 0.0:
                fired = new > 0.0
            else:
                fired = abs(new - old) / old > threshold
            if fired:
                changed.append(k)
                break
    return changed


__all__ = ["PatternChange", "apply_pattern_change", "detect_changed_objects"]
