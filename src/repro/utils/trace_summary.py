"""Terminal-side analysis of trace files (the ``repro trace`` command).

Loads a JSONL or Chrome trace written by :mod:`repro.utils.tracing` and
renders, without leaving the terminal:

* buffer statistics (record counts, a ``DROPPED`` warning — with a
  per-kind breakdown — leading the report when the ring buffer
  truncated);
* the top span names by **self time** — wall-clock inside a span minus
  the wall-clock of its child spans, the quantity that actually ranks
  where time went;
* a per-phase breakdown over the root spans;
* the GRA convergence table recovered from ``gra.generation`` spans
  (best/mean fitness per generation, per-generation wall time);
* the AGRA decision log recovered from ``agra.allocate`` /
  ``agra.deallocate`` events, Eq. 6 estimator values included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.utils.tracing import EVENT, SPAN, Record, read_trace

#: span name emitted once per GRA generation
GRA_GENERATION_SPAN = "gra.generation"
#: event names emitted by AGRA adaptation decisions
AGRA_DECISION_EVENTS = ("agra.allocate", "agra.deallocate")
#: span name of one full-kernel batched evaluation
COST_BATCH_SPAN = "cost.batch"
#: event name of incremental (delta) pricing reports
COST_DELTA_EVENT = "cost.delta"


@dataclass
class SpanNode:
    """One span with resolved children (tree reconstructed from parents)."""

    record: Record
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.record["name"])

    @property
    def duration(self) -> float:
        return float(self.record["end"]) - float(self.record["start"])

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans, floored at zero.

        Children merged from parallel workers run concurrently, so their
        summed durations can exceed the parent's wall time — a negative
        residual carries no information and is clamped away.
        """
        return max(
            0.0, self.duration - sum(c.duration for c in self.children)
        )

    @property
    def attrs(self) -> Dict[str, object]:
        return dict(self.record.get("attrs") or {})


@dataclass
class TraceSummary:
    """Everything ``repro trace`` prints, in structured form."""

    spans: List[SpanNode]
    roots: List[SpanNode]
    events: List[Record]
    dropped: int
    dropped_by_kind: Dict[str, int] = field(default_factory=dict)


def build_tree(records: Sequence[Record]) -> TraceSummary:
    """Resolve parent ids into a span forest plus the flat event list."""
    nodes: Dict[int, SpanNode] = {}
    order: List[SpanNode] = []
    events: List[Record] = []
    for record in records:
        if record.get("type") == SPAN:
            node = SpanNode(record)
            span_id = record.get("id")
            if isinstance(span_id, int):
                nodes[span_id] = node
            order.append(node)
        elif record.get("type") == EVENT:
            events.append(record)
    roots: List[SpanNode] = []
    for node in order:
        parent = node.record.get("parent")
        if isinstance(parent, int) and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in order:
        node.children.sort(key=lambda c: float(c.record["start"]))
    roots.sort(key=lambda n: float(n.record["start"]))
    return TraceSummary(spans=order, roots=roots, events=events, dropped=0)


def summarize(path: str) -> TraceSummary:
    """Load ``path`` (JSONL or Chrome) and build the span forest."""
    data = read_trace(path)
    summary = build_tree(data["records"])
    summary.dropped = int(data.get("dropped", 0))
    summary.dropped_by_kind = {
        str(k): int(v)
        for k, v in (data.get("dropped_by_kind") or {}).items()
    }
    return summary


# --------------------------------------------------------------------- #
# aggregations
# --------------------------------------------------------------------- #
def self_time_by_name(summary: TraceSummary) -> List[Dict[str, object]]:
    """Aggregate spans by name; rows sorted by total self time, descending."""
    rows: Dict[str, Dict[str, object]] = {}
    for node in summary.spans:
        row = rows.setdefault(
            node.name,
            {"name": node.name, "calls": 0, "total": 0.0, "self": 0.0,
             "max": 0.0},
        )
        row["calls"] += 1
        row["total"] += node.duration
        row["self"] += node.self_time
        row["max"] = max(row["max"], node.duration)
    return sorted(rows.values(), key=lambda r: -float(r["self"]))


def phase_breakdown(summary: TraceSummary) -> List[Dict[str, object]]:
    """Wall-clock per root span name (the run's coarse phases)."""
    rows: Dict[str, Dict[str, object]] = {}
    for node in summary.roots:
        row = rows.setdefault(
            node.name, {"name": node.name, "calls": 0, "total": 0.0}
        )
        row["calls"] += 1
        row["total"] += node.duration
    return sorted(rows.values(), key=lambda r: -float(r["total"]))


def gra_convergence(summary: TraceSummary) -> List[Dict[str, object]]:
    """Per-generation best/mean fitness rows from ``gra.generation`` spans."""
    rows = []
    for node in summary.spans:
        if node.name != GRA_GENERATION_SPAN:
            continue
        attrs = node.attrs
        rows.append(
            {
                "generation": attrs.get("index"),
                "best_fitness": attrs.get("best"),
                "mean_fitness": attrs.get("mean"),
                "seconds": node.duration,
            }
        )
    # numbered generations in order, then any other label, then none
    rows.sort(
        key=lambda r: (
            r["generation"] is None,
            not isinstance(r["generation"], (int, float)),
            r["generation"]
            if isinstance(r["generation"], (int, float))
            else str(r["generation"]),
        )
    )
    return rows


def _count(value: object) -> int:
    """A counter attribute as an int; a value that is no finite number
    (absent, null, a string) counts as 0."""
    try:
        return int(value) if math.isfinite(value) else 0
    except (TypeError, ValueError, OverflowError):
        return 0


def evaluation_mix(summary: TraceSummary) -> Optional[Dict[str, object]]:
    """Full-kernel vs incremental evaluation volumes.

    Full pricing shows up as ``cost.batch`` spans (one per batched
    kernel call, ``rows`` columns each).  Incremental pricing shows up
    as ``cost.delta`` events: live evaluators emit a sampled event every
    ~1024 priced deltas carrying cumulative ``priced``/``applied``
    counters (so those columns are lower bounds, refreshed per sample).
    ``None`` when the trace holds neither.
    """
    batch_calls = 0
    batch_rows = 0
    for node in summary.spans:
        if node.name == COST_BATCH_SPAN:
            batch_calls += 1
            batch_rows += _count(node.attrs.get("rows"))
    priced = applied = 0
    delta_events = 0
    for event in summary.events:
        if event.get("name") != COST_DELTA_EVENT:
            continue
        delta_events += 1
        attrs = dict(event.get("attrs") or {})
        # Cumulative per-evaluator counters: the latest sample carries
        # the running total, so keep the maximum seen.
        priced = max(priced, _count(attrs.get("priced")))
        applied = max(applied, _count(attrs.get("applied")))
    if not batch_calls and not delta_events:
        return None
    return {
        "full_batch_calls": batch_calls,
        "full_columns": batch_rows,
        "delta_events": delta_events,
        "priced_deltas": priced,
        "applied_moves": applied,
    }


def agra_decisions(summary: TraceSummary) -> List[Record]:
    """AGRA allocate/deallocate events in time order."""
    decisions = [
        e for e in summary.events if e.get("name") in AGRA_DECISION_EVENTS
    ]
    decisions.sort(key=lambda e: float(e.get("time", 0.0)))
    return decisions


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #
def _fmt(value: object, precision: int = 4) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_summary(
    summary: TraceSummary, top: int = 15, precision: int = 4
) -> str:
    """The full ``repro trace`` report as one printable block."""
    lines: List[str] = []
    # A truncated trace leads the report: every number below it is a
    # lower bound, so the reader must see the warning first.
    if summary.dropped:
        lines.append(
            f"DROPPED: ring buffer truncated {summary.dropped:,} "
            "records (raise the tracer capacity for a complete trace)"
        )
        if summary.dropped_by_kind:
            breakdown = ", ".join(
                f"{kind}={count:,}"
                for kind, count in sorted(
                    summary.dropped_by_kind.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            )
            lines.append(f"  dropped by kind: {breakdown}")
    lines.append(
        f"trace: {len(summary.spans):,} spans, "
        f"{len(summary.events):,} events, {len(summary.roots):,} roots"
    )
    if not summary.spans and not summary.events:
        lines.append(
            "  no spans recorded — the traced run emitted nothing. "
            "Likely causes: tracing was never enabled (run with "
            "--trace), or the command finished before any instrumented "
            "code ran."
        )
        return "\n".join(lines)

    phases = phase_breakdown(summary)
    if phases:
        lines.append("")
        lines.append("phases (root spans):")
        for row in phases:
            lines.append(
                f"  {row['name']}: calls={row['calls']} "
                f"total={_fmt(row['total'], precision)}s"
            )

    ranked = self_time_by_name(summary)
    if ranked:
        lines.append("")
        lines.append(f"top spans by self time (top {top}):")
        width = max(len(str(r["name"])) for r in ranked[:top])
        for row in ranked[:top]:
            lines.append(
                f"  {str(row['name']).ljust(width)}  "
                f"calls={row['calls']:<6} "
                f"self={_fmt(row['self'], precision)}s "
                f"total={_fmt(row['total'], precision)}s "
                f"max={_fmt(row['max'], precision)}s"
            )

    convergence = gra_convergence(summary)
    if convergence:
        lines.append("")
        lines.append("GRA convergence (from gra.generation spans):")
        lines.append("  gen    best          mean          seconds")
        for row in convergence:
            lines.append(
                f"  {str(row['generation']).ljust(6)}"
                f" {_fmt(row['best_fitness'], 6).ljust(13)}"
                f" {_fmt(row['mean_fitness'], 6).ljust(13)}"
                f" {_fmt(row['seconds'], precision)}"
            )

    mix = evaluation_mix(summary)
    if mix:
        lines.append("")
        lines.append("evaluation mix (full kernel vs incremental):")
        lines.append(
            f"  full:        batch_calls={mix['full_batch_calls']} "
            f"columns={mix['full_columns']}"
        )
        lines.append(
            f"  incremental: priced_deltas>={mix['priced_deltas']} "
            f"applied>={mix['applied_moves']} "
            f"(events={mix['delta_events']}, sampled)"
        )

    decisions = agra_decisions(summary)
    if decisions:
        lines.append("")
        lines.append("AGRA decision log:")
        for event in decisions:
            attrs = dict(event.get("attrs") or {})
            detail = " ".join(
                f"{key}={_fmt(attrs[key], precision)}"
                for key in sorted(attrs)
            )
            lines.append(f"  {event['name']}: {detail}")
    return "\n".join(lines)


__all__ = [
    "GRA_GENERATION_SPAN",
    "AGRA_DECISION_EVENTS",
    "COST_BATCH_SPAN",
    "COST_DELTA_EVENT",
    "SpanNode",
    "TraceSummary",
    "build_tree",
    "summarize",
    "self_time_by_name",
    "phase_breakdown",
    "gra_convergence",
    "evaluation_mix",
    "agra_decisions",
    "render_summary",
]
