"""Expansion of (reads, writes) count matrices into request traces.

The analytic cost model works on aggregate counts; the discrete-event
simulator replays individual requests.  :func:`generate_trace` produces a
time-ordered stream whose per-(site, object) totals equal the instance's
count matrices *exactly*, so the simulator's measured NTC must equal the
analytic ``D(X)`` — the key cross-validation of this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

READ = "read"
WRITE = "write"


@dataclass(frozen=True, order=True)
class Request:
    """One client request issued by ``site`` for object ``obj``."""

    time: float
    site: int
    obj: int
    kind: str  # READ or WRITE

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValidationError(f"kind must be read/write, got {self.kind!r}")
        if self.time < 0:
            raise ValidationError(f"time must be >= 0, got {self.time}")


def generate_trace(
    instance: DRPInstance,
    duration: float = 1.0,
    rng: SeedLike = None,
) -> List[Request]:
    """A shuffled request trace matching the instance's counts exactly.

    Every ``r_ik`` read and ``w_ik`` write becomes one :class:`Request`
    with a uniform-random timestamp in ``[0, duration)``; the returned
    list is sorted by time.  Counts are interpreted as integers (the
    Section 6.1 generator produces integer counts).
    """
    if duration <= 0:
        raise ValidationError(f"duration must be > 0, got {duration}")
    gen = as_generator(rng)
    reads = np.rint(instance.reads).astype(np.int64)
    writes = np.rint(instance.writes).astype(np.int64)
    sites_r, objs_r = np.nonzero(reads)
    sites_w, objs_w = np.nonzero(writes)

    requests: List[Request] = []
    for site, obj in zip(sites_r, objs_r):
        count = int(reads[site, obj])
        for t in gen.uniform(0.0, duration, size=count):
            requests.append(Request(float(t), int(site), int(obj), READ))
    for site, obj in zip(sites_w, objs_w):
        count = int(writes[site, obj])
        for t in gen.uniform(0.0, duration, size=count):
            requests.append(Request(float(t), int(site), int(obj), WRITE))
    requests.sort()
    return requests


def trace_counts(
    instance: DRPInstance, trace: List[Request]
) -> "tuple[np.ndarray, np.ndarray]":
    """Aggregate a trace back into (reads, writes) count matrices."""
    m, n = instance.num_sites, instance.num_objects
    reads = np.zeros((m, n), dtype=np.int64)
    writes = np.zeros((m, n), dtype=np.int64)
    for req in trace:
        target = reads if req.kind == READ else writes
        target[req.site, req.obj] += 1
    return reads, writes


__all__ = ["READ", "WRITE", "Request", "generate_trace", "trace_counts"]
