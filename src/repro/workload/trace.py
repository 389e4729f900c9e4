"""Expansion of (reads, writes) count matrices into request traces.

The analytic cost model works on aggregate counts; the simulator
(:mod:`repro.sim`) replays individual requests.  :func:`generate_trace` produces a
time-ordered stream whose per-(site, object) totals equal the instance's
count matrices *exactly*, so the simulator's measured NTC must equal the
analytic ``D(X)`` — the key cross-validation of this reproduction.

The stream is columnar: a :class:`Trace` holds one array per field
(``time``, ``site``, ``obj``, ``write``), so a 150k-request trace costs a
few megabytes and replays with array operations.  Iterating or indexing
it still yields :class:`Request` objects for the per-request protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
        if not self.time >= 0:  # a negation, so NaN is rejected too
            raise ValidationError(f"time must be >= 0, got {self.time}")


class Trace:
    """A read-only, columnar sequence of requests.

    ``time[r]``, ``site[r]``, ``obj[r]`` and ``write[r]`` describe request
    ``r``.  Iteration and indexing yield :class:`Request` objects.  Two
    traces are equal when every column is.
    """

    __slots__ = ("time", "site", "obj", "write")

    def __init__(self, time, site, obj, write) -> None:
        # Read-only views: the columns are adopted without a copy.
        columns = tuple(
            np.asarray(column, dtype=dtype).view()
            for column, dtype in (
                (time, np.float64), (site, np.int64),
                (obj, np.int64), (write, bool),
            )
        )
        if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValidationError("trace columns must be 1-D and equally long")
        if not np.all(columns[0] >= 0):
            raise ValidationError("trace times must be >= 0 (and not NaN)")
        for column in columns:
            column.setflags(write=False)
        self.time, self.site, self.obj, self.write = columns

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "Trace":
        """The columnar form of ``requests``, in the order given."""
        if isinstance(requests, Trace):
            return requests
        rows = [(r.time, r.site, r.obj, r.kind == WRITE) for r in requests]
        if not rows:
            return cls((), (), (), ())
        return cls(*zip(*rows))

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, index: int) -> Request:
        return Request(
            float(self.time[index]),
            int(self.site[index]),
            int(self.obj[index]),
            WRITE if self.write[index] else READ,
        )

    def __iter__(self) -> Iterator[Request]:
        for time, site, obj, write in zip(
            self.time.tolist(), self.site.tolist(),
            self.obj.tolist(), self.write.tolist(),
        ):
            yield Request(time, site, obj, WRITE if write else READ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(
                (self.time, self.site, self.obj, self.write),
                (other.time, other.site, other.obj, other.write),
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} requests, {int(self.write.sum())} writes)"


def generate_trace(
    instance: DRPInstance,
    duration: float = 1.0,
    rng: SeedLike = None,
) -> Trace:
    """A shuffled request trace matching the instance's counts exactly.

    Every ``r_ik`` read and ``w_ik`` write becomes one request with a
    uniform-random timestamp in ``[0, duration)``; the trace is ordered
    like a sorted list of :class:`Request` (time, then site, object and
    kind).  Counts are interpreted as integers (the Section 6.1
    generator produces integer counts).

    The timestamps come from one ``uniform`` draw over the read cells
    (row-major), then the write cells: the same values, and the same
    generator state afterwards, as one draw per cell in that order.
    """
    if not (np.isfinite(duration) and duration > 0):
        raise ValidationError(
            f"duration must be finite and > 0, got {duration}"
        )
    gen = as_generator(rng)
    reads = np.rint(instance.reads).astype(np.int64)
    writes = np.rint(instance.writes).astype(np.int64)
    sites_r, objs_r = np.nonzero(reads)
    sites_w, objs_w = np.nonzero(writes)
    counts = np.concatenate((reads[sites_r, objs_r], writes[sites_w, objs_w]))
    total = int(counts.sum())
    time = (
        gen.uniform(0.0, duration, size=total) if total else np.empty(0)
    )
    site = np.repeat(np.concatenate((sites_r, sites_w)), counts)
    obj = np.repeat(np.concatenate((objs_r, objs_w)), counts)
    write = np.repeat(np.arange(len(counts)) >= len(sites_r), counts)
    order = np.lexsort((write, obj, site, time))
    return Trace(time[order], site[order], obj[order], write[order])


__all__ = ["READ", "WRITE", "Request", "Trace", "generate_trace"]
