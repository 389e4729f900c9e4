"""A deterministic sampling profiler over the tracer's span stack.

Wall-clock profilers (``cProfile``, ``py-spy``) perturb the runs they
measure and never produce the same profile twice.  This profiler is
**deterministic**: instrumented call sites report *progress* — one
:func:`~DeterministicProfiler.tick` per simulator event, per GA
generation, per batched kernel evaluation — and every
``sample_every``-th tick captures the stack of currently-open tracer
spans.  No clock is read anywhere, so two identical seeded runs produce
bit-identical profiles, and a profile diff between two commits shows
*algorithmic* shifts (more generations spent here, fewer kernel calls
there) rather than scheduler noise.

Sample weights are tick counts.  Attribution therefore follows the
progress units the call sites emit, not seconds — the right currency for
a reproduction whose claims are about work done, with the span names
(``gra.generation``, ``cost.batch``, ``sim.run``) tying each stack back
to the trace tree that ``repro trace`` summarises.

Profiles export as collapsed stacks (``outer;inner count`` — Brendan
Gregg's flamegraph.pl / speedscope both read it) or as `speedscope
<https://www.speedscope.app/>`_ JSON (``evented: false`` sampled
profile).

A process-wide profiler lives in the :data:`PROFILER` slot, filled only
by :class:`repro.runtime.context.RunContext` (the CLI ``--profile``
flag); call sites fetch it via :func:`current_profiler`, which returns a
shared *disabled* profiler when profiling is off, so hot paths pay one
call plus one ``enabled`` check.  A profiling run context also installs
the tracer — the span stack is what gets sampled — but does not by
itself write any trace file.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Tuple

from repro.errors import ValidationError
from repro.utils.files import atomic_write
from repro.utils.recorders import Slot
from repro.utils.tracing import Tracer, current_tracer

#: export formats accepted by :meth:`DeterministicProfiler.write`
FORMAT_COLLAPSED = "collapsed"
FORMAT_SPEEDSCOPE = "speedscope"
PROFILE_FORMATS = (FORMAT_COLLAPSED, FORMAT_SPEEDSCOPE)

#: stack recorded when no span is open at a sampled tick
IDLE_FRAME = "(no open span)"

Stack = Tuple[str, ...]


class DeterministicProfiler:
    """Sampled stacks keyed on progress counts, never on wall-clock.

    >>> from repro.utils.tracing import Tracer
    >>> tracer = Tracer()
    >>> profiler = DeterministicProfiler(sample_every=1, tracer=tracer)
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner"):
    ...         profiler.tick()
    >>> profiler.collapsed()
    'outer;inner 1'

    Parameters
    ----------
    sample_every:
        Capture one stack sample per this many ticks (1 = every tick).
        Sampling is an exact decimation of the tick stream, so the
        profile is a deterministic function of the run.
    tracer:
        Span-stack source; defaults to the process-wide tracer at each
        tick (so a profiler created before ``--trace`` still sees spans).
    """

    def __init__(
        self,
        sample_every: int = 1,
        enabled: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if sample_every < 1:
            raise ValidationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.enabled = enabled
        self.sample_every = sample_every
        self._tracer = tracer
        self.ticks = 0
        self.samples = 0
        self._stacks: Dict[Stack, int] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def tick(self, count: int = 1) -> None:
        """Report ``count`` units of progress from the calling site.

        Capture happens whenever the cumulative tick counter crosses a
        multiple of ``sample_every``; a coarse-grained site passing
        ``count > sample_every`` contributes proportionally many samples
        of its current stack.
        """
        if not self.enabled:
            return
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}")
        before = self.ticks
        self.ticks = before + count
        crossings = (
            self.ticks // self.sample_every - before // self.sample_every
        )
        if crossings:
            tracer = (
                self._tracer if self._tracer is not None else current_tracer()
            )
            stack = tracer.open_span_names() or (IDLE_FRAME,)
            self._stacks[stack] = self._stacks.get(stack, 0) + crossings
            self.samples += crossings

    def reset(self) -> None:
        self.ticks = 0
        self.samples = 0
        self._stacks.clear()

    # ------------------------------------------------------------------ #
    # access / export
    # ------------------------------------------------------------------ #
    def stacks(self) -> Dict[Stack, int]:
        """A copy of the sampled ``stack -> weight`` table."""
        return dict(self._stacks)

    def self_weights(self) -> Dict[str, int]:
        """Per-frame self weight: samples whose *leaf* is that frame.

        This is the profiler's analogue of the trace summary's
        self-time ranking — the leaf of a sampled stack is where the
        progress unit was spent.
        """
        weights: Dict[str, int] = {}
        for stack, count in self._stacks.items():
            leaf = stack[-1]
            weights[leaf] = weights.get(leaf, 0) + count
        return weights

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c weight`` line per stack.

        Lines are sorted lexicographically by stack, so two identical
        runs produce byte-identical output (the determinism test diffs
        exactly this).
        """
        return "\n".join(
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self._stacks.items())
        )

    def speedscope(self, name: str = "repro profile") -> Dict[str, object]:
        """The profile as a speedscope ``sampled`` document (a dict).

        Frames are deduplicated into the shared frame table in first-
        sorted-appearance order; weights are tick counts (the ``units``
        field says so instead of pretending they are seconds).
        """
        frames: List[Dict[str, object]] = []
        frame_index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[int] = []
        for stack, count in sorted(self._stacks.items()):
            indexed = []
            for frame in stack:
                if frame not in frame_index:
                    frame_index[frame] = len(frames)
                    frames.append({"name": frame})
                indexed.append(frame_index[frame])
            samples.append(indexed)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "name": name,
            "exporter": "repro-deterministic-profiler",
        }

    def write(self, path: str, format: str = FORMAT_COLLAPSED) -> str:
        """Write the profile to ``path`` in ``format``; returns the path."""
        if format not in PROFILE_FORMATS:
            raise ValidationError(
                f"profile format must be one of {PROFILE_FORMATS}, "
                f"got {format!r}"
            )
        with atomic_write(path) as fp:
            if format == FORMAT_SPEEDSCOPE:
                json.dump(self.speedscope(name=path), fp, sort_keys=True)
            else:
                self._write_collapsed(fp)
        return path

    def _write_collapsed(self, fp: IO[str]) -> None:
        text = self.collapsed()
        fp.write(text)
        if text:
            fp.write("\n")

    def render(self, top: int = 10) -> str:
        """A terminal block: sample totals plus the top leaf frames."""
        lines = [
            f"profile: {self.samples:,} samples over {self.ticks:,} ticks "
            f"(1 per {self.sample_every})"
        ]
        ranked = sorted(
            self.self_weights().items(), key=lambda item: (-item[1], item[0])
        )
        for frame, weight in ranked[:top]:
            share = 100.0 * weight / self.samples if self.samples else 0.0
            lines.append(f"  {frame}: {weight:,} samples ({share:.1f}%)")
        if len(lines) == 1:
            lines.append("  (no samples recorded)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# optional process-wide profiler (CLI --profile)
# --------------------------------------------------------------------- #
#: the process-wide profiler's slot; a shared disabled profiler stands in
PROFILER: Slot[DeterministicProfiler] = Slot(
    "profiler", DeterministicProfiler(enabled=False)
)

#: the installed profiler, or the disabled stand-in when profiling is off
current_profiler = PROFILER.current


__all__ = [
    "FORMAT_COLLAPSED",
    "FORMAT_SPEEDSCOPE",
    "PROFILE_FORMATS",
    "IDLE_FRAME",
    "DeterministicProfiler",
    "PROFILER",
    "current_profiler",
]
