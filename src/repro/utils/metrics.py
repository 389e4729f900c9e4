"""Lightweight runtime metrics: counters, timers and histograms.

The experiment harness and the cost kernel are instrumented with a
:class:`MetricsRegistry` — a plain in-process collection of named
counters, accumulating timers and distribution histograms:

* a **counter** is an integer bumped with :meth:`MetricsRegistry.increment`
  (cache hits/misses, evaluation counts);
* a **timer** accumulates wall-clock seconds, either via
  :meth:`MetricsRegistry.observe` or the :class:`Timer` context manager
  returned by :meth:`MetricsRegistry.timer`;
* a **histogram** (:class:`Histogram`) records a value distribution in
  fixed log-scale buckets (bounded memory regardless of sample count)
  and reports p50/p95/p99/max; the simulator's read/write latencies go
  through these.

Registries are cheap to create, picklable through :meth:`snapshot` /
:meth:`merge_snapshot` (how the process-pool harness ships worker
metrics back to the parent — histograms merge bucket-wise, exactly like
counters), and render as an aligned terminal table.

A process-wide default registry lives in the :data:`METRICS` slot,
filled only by :class:`repro.runtime.context.RunContext`; the experiment
harness reads it with :func:`current_metrics` so a single ``--metrics``
flag instruments every nested run without threading a registry through
every call site.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

from repro.utils.recorders import Slot

#: snapshot type: {"counters": {...}, "timers": {name: {"calls", "total_seconds", "max_seconds"}}, "histograms": {name: {...}}}
Snapshot = Dict[str, Dict[str, object]]


class Timer:
    """Context manager that adds its elapsed wall-clock to one timer."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self._registry.observe(
                self._name, time.perf_counter() - self._start
            )
            self._start = None


class _NullTimer:
    """No-op stand-in used when a registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class Histogram:
    """Log-scale bucketed value distribution with bounded memory.

    Buckets are geometric: bucket ``i`` holds values in
    ``[MIN_BOUND * GROWTH**i, MIN_BOUND * GROWTH**(i+1))`` with
    ``GROWTH = 2**0.25`` (four buckets per octave, ~9% worst-case
    relative error on a percentile).  Values at or below ``MIN_BOUND``
    (including exact zeros, e.g. local-read latencies) land in a
    dedicated zero bucket.  Counts are kept sparsely, so an empty or
    narrow distribution costs a handful of dict entries.

    ``count``/``total``/``min``/``max`` are exact; :meth:`mean` is exact;
    :meth:`percentile` is bucket-resolution approximate, clamped to the
    observed min/max.  Two histograms recorded independently and merged
    with :meth:`merge` are bucket-identical to one histogram fed both
    streams — that is what lets the parallel harness merge worker
    latency distributions without shipping raw samples.

    >>> h = Histogram()
    >>> for v in (1.0, 2.0, 3.0):
    ...     h.record(v)
    >>> h.count, round(h.mean(), 3)
    (3, 2.0)
    >>> 1.8 < h.percentile(50.0) < 2.2
    True
    """

    #: growth factor between bucket bounds (4 buckets per factor of 2)
    GROWTH = 2.0 ** 0.25
    #: lower bound of bucket 0; values <= this are "zero"
    MIN_BOUND = 1e-9
    #: number of geometric buckets (covers MIN_BOUND .. ~5e12)
    NUM_BUCKETS = 288

    __slots__ = (
        "count", "total", "min", "max", "zero_count", "_buckets", "_memo"
    )

    _LOG_GROWTH = math.log(GROWTH)
    _LOG_MIN = math.log(MIN_BOUND)
    #: bound on the value -> bucket memo (distinct values seen)
    _MEMO_LIMIT = 4096

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero_count = 0
        self._buckets: Dict[int, int] = {}
        # Recorded values tend to come from a small discrete set (e.g.
        # simulator latencies = size x unit-cost combinations), so a
        # bounded value->bucket memo replaces the log() on the hot path.
        self._memo: Dict[float, int] = {}

    def _index(self, value: float) -> int:
        idx = int((math.log(value) - self._LOG_MIN) / self._LOG_GROWTH)
        return min(max(idx, 0), self.NUM_BUCKETS - 1)

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value``.

        Non-finite values are rejected *before* any state mutation: the
        old behaviour let ``inf``/``NaN`` bump ``count``/``total`` and
        then blow up in the bucket math (``OverflowError`` /
        ``ValueError``), leaving the histogram corrupted — ``mean()``
        and ``percentile()`` disagreeing with the bucket contents.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram values must be finite, got {value}"
            )
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.MIN_BOUND:
            self.zero_count += count
            return
        memo = self._memo
        idx = memo.get(value)
        if idx is None:
            idx = self._index(value)
            if len(memo) < self._MEMO_LIMIT:
                memo[value] = idx
        self._buckets[idx] = self._buckets.get(idx, 0) + count

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (bucket midpoint, clamped).

        Accuracy is bounded by the bucket growth factor: the returned
        value is within ~9% of the true percentile.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must lie in [0, 100], got {q}")
        # nearest-rank over the bucketed distribution
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zero_count
        if rank <= seen:
            return max(0.0, self.min)
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank <= seen:
                midpoint = self.MIN_BOUND * self.GROWTH ** (idx + 0.5)
                return min(max(midpoint, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket-wise addition)."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.zero_count += other.zero_count
        for idx, count in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + count

    # ---------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """A picklable/JSON-able snapshot of the histogram state."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero_count": self.zero_count,
            "buckets": dict(self._buckets),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        minimum = data.get("min")
        maximum = data.get("max")
        hist.min = math.inf if minimum is None else float(minimum)
        hist.max = -math.inf if maximum is None else float(maximum)
        hist.zero_count = int(data.get("zero_count", 0))
        hist._buckets = {
            int(idx): int(count)
            for idx, count in dict(data.get("buckets", {})).items()
        }
        return hist

    def summary(self, percentiles=(50.0, 95.0, 99.0)) -> Dict[str, float]:
        """count/mean/max plus the requested percentiles as a flat dict."""
        out = {
            "count": float(self.count),
            "mean": self.mean(),
            "max": self.max if self.count else 0.0,
        }
        for q in percentiles:
            out[f"p{q:g}"] = self.percentile(q)
        return out


class MetricsRegistry:
    """Named counters plus accumulating wall-time timers.

    >>> registry = MetricsRegistry()
    >>> registry.increment("cache.hits")
    >>> with registry.timer("solve"):
    ...     pass
    >>> registry.counters["cache.hits"]
    1
    >>> registry.timers["solve"]["calls"]
    1
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def increment(self, name: str, value: int = 1) -> None:
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one completed span of ``seconds`` under timer ``name``."""
        if not self.enabled:
            return
        entry = self._timers.get(name)
        if entry is None:
            entry = {"calls": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            self._timers[name] = entry
        entry["calls"] += 1
        entry["total_seconds"] += float(seconds)
        entry["max_seconds"] = max(entry["max_seconds"], float(seconds))

    def timer(self, name: str):
        """A context manager timing one span under ``name``."""
        if not self.enabled:
            return _NULL_TIMER
        return Timer(self, name)

    def observe_value(self, name: str, value: float, count: int = 1) -> None:
        """Record ``value`` into the log-scale histogram ``name``."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.record(value, count)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or ``None`` when nothing was recorded."""
        return self._histograms.get(name)

    # ------------------------------------------------------------------ #
    # access / aggregation
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    @property
    def timers(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(entry) for name, entry in self._timers.items()}

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> Snapshot:
        """A picklable copy of every counter, timer and histogram.

        Keys are sorted, not insertion-ordered: two runs that record the
        same metrics in a different order (e.g. under different thread
        or sub-process interleavings) must serialise identically, so
        snapshot-derived artifacts — telemetry JSONL lines, OpenMetrics
        exports, ``--metrics`` dumps — diff cleanly across runs.
        """
        return {
            "counters": {
                name: self._counters[name]
                for name in sorted(self._counters)
            },
            "timers": {
                name: dict(self._timers[name])
                for name in sorted(self._timers)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: Snapshot) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used by the parallel harness: worker processes record into their
        own registries and the parent merges the returned snapshots.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, int(value))
        for name, entry in snapshot.get("timers", {}).items():
            mine = self._timers.get(name)
            if mine is None:
                mine = {"calls": 0, "total_seconds": 0.0, "max_seconds": 0.0}
                self._timers[name] = mine
            mine["calls"] += int(entry.get("calls", 0))
            mine["total_seconds"] += float(entry.get("total_seconds", 0.0))
            mine["max_seconds"] = max(
                mine["max_seconds"], float(entry.get("max_seconds", 0.0))
            )
        for name, data in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_dict(data)
            mine_hist = self._histograms.get(name)
            if mine_hist is None:
                self._histograms[name] = incoming
            else:
                mine_hist.merge(incoming)

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()

    def render(self, precision: int = 4) -> str:
        """Counters, timers and histograms as an aligned terminal block.

        Rendering never mutates and never raises — a disabled (or simply
        empty) registry renders a stable ``(empty)`` placeholder, so
        callers can print unconditionally.
        """
        lines = ["metrics:"]
        for name in sorted(self._counters):
            lines.append(f"  {name} = {self._counters[name]:,}")
        for name in sorted(self._timers):
            entry = self._timers[name]
            calls = int(entry["calls"])
            mean = entry["total_seconds"] / calls if calls else 0.0
            lines.append(
                f"  {name}: calls={calls:,} "
                f"total={entry['total_seconds']:.{precision}f}s "
                f"mean={mean:.{precision}f}s "
                f"max={entry['max_seconds']:.{precision}f}s"
            )
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            lines.append(
                f"  {name}: count={hist.count:,} "
                f"mean={hist.mean():.{precision}f} "
                f"p50={hist.percentile(50.0):.{precision}f} "
                f"p95={hist.percentile(95.0):.{precision}f} "
                f"p99={hist.percentile(99.0):.{precision}f} "
                f"max={(hist.max if hist.count else 0.0):.{precision}f}"
            )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# optional process-wide registry (CLI --metrics)
# --------------------------------------------------------------------- #
#: the process-wide registry's slot; with nothing installed it reads ``None``
METRICS: Slot[Optional[MetricsRegistry]] = Slot("metrics", None)

#: the installed registry, or ``None`` when ``--metrics`` is off
current_metrics = METRICS.current


__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "Snapshot",
    "METRICS",
    "current_metrics",
]
