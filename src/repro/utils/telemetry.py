"""Exportable telemetry: the registry's numbers as first-class signals.

:mod:`repro.utils.metrics` accumulates counters/timers/histograms in
process; :mod:`repro.utils.tracing` records *when* things happened.
This module turns both into signals another system can consume:

* a :class:`TelemetrySink` holds labelled **gauges** (per-site NTC,
  requests replayed, per-epoch savings — values that go up *and* down)
  next to an optional :class:`~repro.utils.metrics.MetricsRegistry`,
  and snapshots the combined state on demand;
* pluggable **exporters** receive each snapshot: :class:`JsonlExporter`
  appends one JSON line per snapshot (a cross-run time series),
  :class:`OpenMetricsExporter` writes the latest state in the
  OpenMetrics v1 text exposition format (scrapeable by Prometheus and
  anything speaking that format), and :class:`InMemoryExporter` keeps
  snapshots in a list for tests;
* :func:`render_openmetrics` / :func:`parse_openmetrics` round-trip the
  exposition text, so an export can be validated byte for byte.

Like the tracer, a process-wide sink lives in the :data:`TELEMETRY`
slot, filled only by :class:`repro.runtime.context.RunContext` (the CLI
``--openmetrics`` / ``--telemetry`` flags); instrumented call sites
fetch it via :func:`current_sink`, which hands back a shared *disabled*
sink when telemetry is off — the hot paths pay one call plus one
``enabled`` check and nothing else.

Metric naming
-------------
Gauge names use OpenMetrics-safe characters (``[a-zA-Z0-9_:]``), e.g.
``repro_sim_transfers``.  Registry counter/timer/histogram names (which
use dots, e.g. ``cost.cache_hits``) are sanitised on export:
``cost.cache_hits`` becomes ``repro_cost_cache_hits``.  Labels are plain
string pairs; per-site gauges carry ``{site="3"}``.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, IO, List, Optional, Tuple

from repro.errors import ValidationError
from repro.utils.files import atomic_write
from repro.utils.metrics import Histogram, MetricsRegistry
from repro.utils.recorders import Slot

#: snapshot schema version carried in every JSONL line
SNAPSHOT_VERSION = 1

#: prefix prepended to every exported metric family name
METRIC_PREFIX = "repro_"

#: labels are rendered sorted by key, so exports are deterministic
LabelSet = Tuple[Tuple[str, str], ...]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map an internal dotted name onto the OpenMetrics charset.

    >>> sanitize_metric_name("cost.cache_hits")
    'repro_cost_cache_hits'
    >>> sanitize_metric_name("repro_sim_transfers")
    'repro_sim_transfers'
    """
    cleaned = _SANITIZE.sub("_", name)
    if not cleaned.startswith(METRIC_PREFIX):
        cleaned = METRIC_PREFIX + cleaned
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned  # leading digit after the prefix; be safe
    return cleaned


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class InMemoryExporter:
    """Keeps every exported snapshot in a list (tests, notebooks)."""

    def __init__(self) -> None:
        self.snapshots: List[Dict[str, object]] = []

    def export(self, snapshot: Dict[str, object]) -> None:
        self.snapshots.append(snapshot)

    def close(self) -> None:  # symmetrical with the file exporters
        pass


class JsonlExporter:
    """Appends one JSON line per snapshot — a durable time series.

    Lines are self-describing (``version``/``sequence``/``tick``) and
    key-sorted, so two identical runs produce byte-identical files and
    cross-run diffs stay readable.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fp: Optional[IO[str]] = open(path, "a", encoding="utf-8")

    def export(self, snapshot: Dict[str, object]) -> None:
        if self._fp is None:
            raise ValidationError(f"exporter for {self.path} is closed")
        self._fp.write(json.dumps(snapshot, sort_keys=True) + "\n")
        self._fp.flush()

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None


class OpenMetricsExporter:
    """Writes the *latest* snapshot as OpenMetrics text on every export.

    The exposition format is point-in-time, so the file always holds the
    most recent state (atomically rewritten), ending with ``# EOF`` as
    the spec requires.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def export(self, snapshot: Dict[str, object]) -> None:
        with atomic_write(self.path) as fp:
            fp.write(render_openmetrics_snapshot(snapshot))

    def close(self) -> None:
        pass


class TelemetrySink:
    """Labelled gauges plus registry snapshots, fanned out to exporters.

    >>> sink = TelemetrySink()
    >>> sink.set_gauge("repro_sim_transfers", 17)
    >>> sink.observe_gauge("repro_sim_ntc_by_site", 3.5, site=2)
    >>> snap = sink.snapshot(tick=0)
    >>> snap["gauges"]["repro_sim_transfers"][0]["value"]
    17.0

    ``enabled=False`` turns every method into a no-op; the shared
    disabled sink returned by :func:`current_sink` is how instrumented
    hot paths stay zero-cost when telemetry is off.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.registry = registry
        self._gauges: Dict[str, Dict[LabelSet, float]] = {}
        self._exporters: List[object] = []
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` (with ``labels``) to ``value``."""
        if not self.enabled:
            return
        series = self._gauges.setdefault(name, {})
        series[_labelset(labels)] = float(value)

    def observe_gauge(
        self, name: str, value: float, **labels: object
    ) -> None:
        """Alias of :meth:`set_gauge` (reads better at some call sites)."""
        self.set_gauge(name, value, **labels)

    def add_to_gauge(self, name: str, delta: float, **labels: object) -> None:
        """Add ``delta`` to gauge ``name`` (missing series start at 0)."""
        if not self.enabled:
            return
        series = self._gauges.setdefault(name, {})
        key = _labelset(labels)
        series[key] = series.get(key, 0.0) + float(delta)

    def attach_exporter(self, exporter: object) -> object:
        """Register an exporter; returns it for chaining."""
        self._exporters.append(exporter)
        return exporter

    @property
    def exporters(self) -> List[object]:
        return list(self._exporters)

    # ------------------------------------------------------------------ #
    # snapshots / export
    # ------------------------------------------------------------------ #
    def snapshot(self, tick: Optional[float] = None) -> Dict[str, object]:
        """Capture gauges plus the attached registry as one snapshot.

        ``tick`` is a caller-supplied *logical* timestamp (epoch index,
        events processed, ...) — never wall-clock, so identical runs
        yield identical snapshot streams.
        """
        gauges: Dict[str, List[Dict[str, object]]] = {}
        for name in sorted(self._gauges):
            gauges[name] = [
                {"labels": dict(labelset), "value": value}
                for labelset, value in sorted(self._gauges[name].items())
            ]
        snap: Dict[str, object] = {
            "version": SNAPSHOT_VERSION,
            "sequence": self._sequence,
            "tick": tick,
            "gauges": gauges,
        }
        if self.registry is not None:
            snap["metrics"] = self.registry.snapshot()
        self._sequence += 1
        for exporter in self._exporters:
            exporter.export(snap)
        return snap

    def render_openmetrics(self) -> str:
        """The current state as OpenMetrics v1 exposition text."""
        return render_openmetrics_snapshot(self._peek())

    def _peek(self) -> Dict[str, object]:
        """A snapshot that neither bumps the sequence nor exports."""
        sequence = self._sequence
        exporters = self._exporters
        self._exporters = []
        try:
            snap = self.snapshot()
        finally:
            self._exporters = exporters
            self._sequence = sequence
        return snap

    def close(self) -> None:
        """Close every attached exporter (flushes file-backed ones)."""
        for exporter in self._exporters:
            exporter.close()

    def reset(self) -> None:
        self._gauges.clear()
        self._sequence = 0


# --------------------------------------------------------------------- #
# OpenMetrics rendering / parsing
# --------------------------------------------------------------------- #
def _fmt_value(value: float) -> str:
    """A float rendered so that parsing it back is exact (repr round-trip)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(name: str, labels: LabelSet, value: float) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels
        )
        return f"{name}{{{body}}} {_fmt_value(value)}"
    return f"{name} {_fmt_value(value)}"


def snapshot_families(
    snapshot: Dict[str, object],
) -> "Dict[str, Dict[str, object]]":
    """Flatten a sink snapshot into OpenMetrics metric families.

    Returns ``{family_name: {"type": ..., "samples": {(suffix, labels):
    value}}}`` — the canonical structure both the renderer and the
    parser produce, which is what makes the round-trip testable.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family(name: str, kind: str) -> Dict[Tuple[str, LabelSet], float]:
        entry = families.setdefault(name, {"type": kind, "samples": {}})
        return entry["samples"]  # type: ignore[return-value]

    for name, series in dict(snapshot.get("gauges", {})).items():
        samples = family(sanitize_metric_name(name), "gauge")
        for point in series:
            samples[("", _labelset(point.get("labels", {})))] = float(
                point["value"]
            )

    metrics = dict(snapshot.get("metrics", {}) or {})
    for name, value in dict(metrics.get("counters", {})).items():
        samples = family(sanitize_metric_name(name), "counter")
        samples[("_total", ())] = float(value)
    for name, entry in dict(metrics.get("timers", {})).items():
        base = sanitize_metric_name(name) + "_seconds"
        samples = family(base, "summary")
        samples[("_count", ())] = float(entry.get("calls", 0))
        samples[("_sum", ())] = float(entry.get("total_seconds", 0.0))
    for name, data in dict(metrics.get("histograms", {})).items():
        hist = Histogram.from_dict(data)
        base = sanitize_metric_name(name)
        samples = family(base, "histogram")
        cumulative = hist.zero_count
        if cumulative:
            samples[("_bucket", (("le", _fmt_value(hist.MIN_BOUND)),))] = (
                float(cumulative)
            )
        # Keys may be ints (live snapshot) or strings (JSON round-trip);
        # normalise before sorting so cumulative counts stay monotone.
        buckets = {
            int(idx): int(count)
            for idx, count in dict(data.get("buckets", {})).items()
        }
        for idx in sorted(buckets):
            cumulative += buckets[idx]
            upper = hist.MIN_BOUND * hist.GROWTH ** (idx + 1)
            samples[("_bucket", (("le", _fmt_value(upper)),))] = float(
                cumulative
            )
        samples[("_bucket", (("le", "+Inf"),))] = float(hist.count)
        samples[("_count", ())] = float(hist.count)
        samples[("_sum", ())] = float(hist.total)
    return families


def _sample_order(
    item: Tuple[Tuple[str, LabelSet], float]
) -> Tuple[str, float, LabelSet]:
    """Deterministic sample ordering that also satisfies the spec.

    Histogram ``_bucket`` samples must appear in increasing numeric
    ``le`` order (a plain string sort would put ``+Inf`` *first*);
    everything else orders by suffix then labels.
    """
    (suffix, labels), _ = item
    if suffix == "_bucket":
        le = dict(labels).get("le")
        if le is not None:
            return (suffix, _parse_value(le), labels)
    return (suffix, 0.0, labels)


def render_families(families: Dict[str, Dict[str, object]]) -> str:
    """Metric families as OpenMetrics v1 text (``# EOF``-terminated)."""
    lines: List[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# TYPE {name} {entry['type']}")
        samples: Dict[Tuple[str, LabelSet], float] = entry[
            "samples"
        ]  # type: ignore[assignment]
        for (suffix, labels), value in sorted(
            samples.items(), key=_sample_order
        ):
            lines.append(_sample(name + suffix, labels, value))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics_snapshot(snapshot: Dict[str, object]) -> str:
    """One sink snapshot as OpenMetrics v1 exposition text."""
    return render_families(snapshot_families(snapshot))


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: .*)?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_SUFFIXES = ("_bucket", "_total", "_count", "_sum")


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Parse OpenMetrics v1 text back into metric families.

    Inverse of :func:`render_families` over everything the renderer
    emits (``render_families(parse_openmetrics(text)) == text`` for any
    ``text`` the sink produced).  Raises
    :class:`~repro.errors.ValidationError` on malformed input: samples
    before their ``# TYPE`` line, unknown names, a missing ``# EOF``
    terminator, or an unparsable sample line.
    """
    families: Dict[str, Dict[str, object]] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValidationError(
                f"line {lineno}: content after the # EOF terminator"
            )
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, name, kind = line.split(" ", 3)
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: malformed TYPE line {line!r}"
                ) from None
            families[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT lines: legal, carried by other emitters
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValidationError(
                f"line {lineno}: unparsable sample line {line!r}"
            )
        sample_name = match.group("name")
        family_name, suffix = sample_name, ""
        if family_name not in families:
            for candidate in _SUFFIXES:
                if sample_name.endswith(candidate):
                    family_name = sample_name[: -len(candidate)]
                    suffix = candidate
                    break
        if family_name not in families:
            raise ValidationError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                "# TYPE declaration"
            )
        labels: List[Tuple[str, str]] = []
        if match.group("labels"):
            for key, value in _LABEL_PAIR.findall(match.group("labels")):
                labels.append((key, _unescape_label(value)))
        samples: Dict[Tuple[str, LabelSet], float] = families[family_name][
            "samples"
        ]  # type: ignore[assignment]
        samples[(suffix, tuple(sorted(labels)))] = _parse_value(
            match.group("value")
        )
    if not saw_eof:
        raise ValidationError("missing # EOF terminator")
    return families


def validate_openmetrics(text: str) -> int:
    """Validate exposition text; returns the number of sample lines.

    A thin wrapper over :func:`parse_openmetrics` for callers that only
    want the format check (the CI smoke job, the tests).
    """
    families = parse_openmetrics(text)
    return sum(len(entry["samples"]) for entry in families.values())


# --------------------------------------------------------------------- #
# optional process-wide sink (CLI --openmetrics / --telemetry)
# --------------------------------------------------------------------- #
#: the process-wide sink's slot; a shared disabled sink stands in
TELEMETRY: Slot[TelemetrySink] = Slot("telemetry", TelemetrySink(enabled=False))

#: the installed sink, or the disabled stand-in when telemetry is off
current_sink = TELEMETRY.current


__all__ = [
    "SNAPSHOT_VERSION",
    "METRIC_PREFIX",
    "TelemetrySink",
    "InMemoryExporter",
    "JsonlExporter",
    "OpenMetricsExporter",
    "sanitize_metric_name",
    "snapshot_families",
    "render_families",
    "render_openmetrics_snapshot",
    "parse_openmetrics",
    "validate_openmetrics",
    "TELEMETRY",
    "current_sink",
]
