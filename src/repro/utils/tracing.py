"""Structured tracing: nested spans, point events, bounded recording.

Aggregate metrics (:mod:`repro.utils.metrics`) answer *how much*; this
module answers *when* and *why*.  A :class:`Tracer` records

* **spans** — named intervals with a monotonic start/end, a parent span
  id (spans nest via a per-tracer stack) and arbitrary key-value
  attributes.  The GRA engine opens one span per generation, the cost
  kernel one per batched evaluation, the harness one per task;
* **events** — point-in-time markers attached to the enclosing span
  (SRA placements, AGRA allocate/deallocate decisions, sampled
  simulator progress).

Records land in an in-memory ring buffer of bounded capacity: tracing a
long run costs O(capacity) memory, and once the buffer wraps, the oldest
records are discarded and a ``dropped`` count — plus a per-kind
breakdown keyed by the record name's first dotted segment — is carried
into every export so truncation is never silent.

Traces export as JSONL (one record per line, ``meta`` line first) or as
the Chrome ``trace_event`` JSON format, loadable in Perfetto or
``chrome://tracing``.  :func:`read_trace` loads either format back.

Worker processes record into their own tracers; the parallel harness
ships :meth:`Tracer.snapshot` back over pickle and the parent calls
:meth:`Tracer.merge_snapshot` with a parent span id, which re-parents
the worker's root spans under the parent run and remaps span ids into
the parent's id space deterministically (merge order decides ids, and
the harness merges in task order).

A process-wide tracer lives in the :data:`TRACER` slot, filled only by
:class:`repro.runtime.context.RunContext` (the CLI ``--trace`` flag);
instrumented call sites fetch it via :func:`current_tracer`, which
returns a shared *disabled* tracer when tracing is off, so the hot paths
pay one call plus one attribute check and nothing else.

Span timestamps are ``time.perf_counter`` deltas re-based onto the wall
clock at tracer creation: monotonic within a process, and comparable
across the processes of one parallel sweep up to OS clock skew.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Deque, Dict, IO, List, Optional

from repro.errors import ValidationError
from repro.utils.files import atomic_write, read_text
from repro.utils.recorders import Slot

#: default ring-buffer capacity (records, spans and events combined)
DEFAULT_CAPACITY = 200_000

#: export formats accepted by :meth:`Tracer.write`
FORMAT_JSONL = "jsonl"
FORMAT_CHROME = "chrome"
FORMATS = (FORMAT_JSONL, FORMAT_CHROME)

#: record type tags
SPAN = "span"
EVENT = "event"
META = "meta"

#: a trace record: plain dict, JSON- and pickle-friendly
Record = Dict[str, object]


class _SpanHandle:
    """An open span: context manager handed out by :meth:`Tracer.span`.

    ``set(**attrs)`` attaches attributes while the span is open; the
    record is appended to the ring buffer when the span closes.
    """

    __slots__ = ("_tracer", "id", "parent_id", "name", "attrs", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set(self, **attrs: object) -> "_SpanHandle":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self.id = tracer._allocate_id()
        stack = tracer._stack
        self.parent_id = stack[-1].id if stack else None
        stack.append(self)
        self._start = tracer._now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        end = tracer._now()
        stack = tracer._stack
        # Tolerate mispaired exits (an inner span leaked by an exception):
        # unwind to and including this span.
        while stack:
            top = stack.pop()
            if top is self:
                break
        tracer._append(
            {
                "type": SPAN,
                "id": self.id,
                "parent": self.parent_id,
                "name": self.name,
                "start": self._start,
                "end": end,
                "pid": tracer.pid,
                "attrs": self.attrs,
            }
        )


class _NullSpan:
    """Shared no-op span used when tracing is disabled."""

    __slots__ = ()
    id = -1
    parent_id = None

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Nested spans and events in a bounded in-memory ring buffer.

    >>> tracer = Tracer()
    >>> with tracer.span("outer", phase="demo"):
    ...     with tracer.span("inner"):
    ...         tracer.event("tick", n=1)
    >>> [r["name"] for r in tracer.records()]
    ['tick', 'inner', 'outer']

    Spans are recorded when they *close*, so children precede parents in
    the buffer; :func:`build_tree` in :mod:`repro.utils.trace_summary`
    reconstructs the hierarchy from parent ids.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.pid = os.getpid()
        self.dropped = 0
        self.dropped_by_kind: Dict[str, int] = {}
        self._buffer: Deque[Record] = deque(maxlen=capacity)
        self._stack: List[_SpanHandle] = []
        self._next_id = 0
        # perf_counter deltas re-based onto the wall clock: monotonic in
        # this process, comparable across the processes of one sweep.
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return self._wall0 + (time.perf_counter() - self._perf0)

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _append(self, record: Record) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
            kind = _record_kind(self._buffer[0])
            self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1
        self._buffer.append(record)

    def span(self, name: str, **attrs: object):
        """Open a nested span; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event under the current span."""
        if not self.enabled:
            return
        stack = self._stack
        self._append(
            {
                "type": EVENT,
                "id": self._allocate_id(),
                "parent": stack[-1].id if stack else None,
                "name": name,
                "time": self._now(),
                "pid": self.pid,
                "attrs": attrs,
            }
        )

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, if any."""
        return self._stack[-1].id if self._stack else None

    def open_span_names(self) -> "tuple[str, ...]":
        """Names of the currently open spans, outermost first.

        The deterministic profiler samples this stack: names carry no
        ids or timestamps, so identical runs yield identical stacks.
        """
        return tuple(handle.name for handle in self._stack)

    # ------------------------------------------------------------------ #
    # access / aggregation
    # ------------------------------------------------------------------ #
    def records(self) -> List[Record]:
        """A copy of the buffered records, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def reset(self) -> None:
        self._buffer.clear()
        self._stack.clear()
        self.dropped = 0
        self.dropped_by_kind = {}
        self._next_id = 0

    def snapshot(self) -> Record:
        """A picklable copy of the buffer (how workers ship traces back)."""
        return {
            "records": [dict(r) for r in self._buffer],
            "dropped": self.dropped,
            "dropped_by_kind": dict(self.dropped_by_kind),
            "pid": self.pid,
        }

    def merge_snapshot(
        self,
        snapshot: Record,
        parent_id: Optional[int] = None,
    ) -> Dict[int, int]:
        """Fold a worker's :meth:`snapshot` into this tracer.

        Worker span/event ids are remapped into this tracer's id space
        (allocation follows record order, so merging the same snapshots
        in the same order yields the same ids), and records whose parent
        is unknown — the worker's root spans — are re-parented under
        ``parent_id``.  Returns the id remap table.
        """
        remap: Dict[int, int] = {}
        records = [dict(record) for record in snapshot.get("records", [])]
        # Two passes: spans close child-before-parent, so a child record
        # precedes its parent in the buffer — every id must be allocated
        # before any parent link can be resolved.
        for record in records:
            old_id = record.get("id")
            if isinstance(old_id, int):
                remap[old_id] = record["id"] = self._allocate_id()
        for record in records:
            parent = record.get("parent")
            if isinstance(parent, int) and parent in remap:
                record["parent"] = remap[parent]
            else:
                # root (or truncated-away parent): hang under parent_id
                record["parent"] = parent_id
            self._append(record)
        self.dropped += int(snapshot.get("dropped", 0))
        for kind, count in (snapshot.get("dropped_by_kind") or {}).items():
            self.dropped_by_kind[kind] = (
                self.dropped_by_kind.get(kind, 0) + int(count)
            )
        return remap

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def _meta(self) -> Record:
        return {
            "type": META,
            "version": 1,
            "pid": self.pid,
            "records": len(self._buffer),
            "dropped": self.dropped,
            "dropped_by_kind": dict(self.dropped_by_kind),
        }

    def write_jsonl(self, fp: IO[str]) -> None:
        """One JSON record per line; a ``meta`` line (dropped count) first."""
        fp.write(json.dumps(self._meta()) + "\n")
        for record in self._buffer:
            fp.write(json.dumps(record) + "\n")

    def write_chrome(self, fp: IO[str]) -> None:
        """Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``).

        Spans become complete (``ph="X"``) events with microsecond
        timestamps; events become instant (``ph="i"``) events.  The span
        id and parent id ride along in ``args`` (with user attributes
        namespaced under ``args["attrs"]``) so the exact tree — including
        attributes that happen to be named ``id`` or ``parent`` —
        round-trips through :func:`read_trace`.

        Events carrying the reserved ``flow`` / ``flow_phase`` attributes
        (message sends and receives do) additionally emit Chrome flow
        entries (``ph`` in ``s``/``t``/``f``) so hops render as arrows in
        Perfetto; :func:`read_trace` skips those companion entries, the
        ``i`` event already carries the flow attributes.
        """
        entries: List[Record] = []
        flow_ids: Dict[object, int] = {}
        for record in self._buffer:
            entries.append(_record_to_chrome(record))
            flow = _flow_entry(record, flow_ids)
            if flow is not None:
                entries.append(flow)
        json.dump(
            {
                "traceEvents": entries,
                "displayTimeUnit": "ms",
                "otherData": self._meta(),
            },
            fp,
        )

    def write(self, path: str, format: str = FORMAT_JSONL) -> str:
        """Write the trace to ``path`` in ``format``; returns the path."""
        if format not in FORMATS:
            raise ValidationError(
                f"trace format must be one of {FORMATS}, got {format!r}"
            )
        with atomic_write(path) as fp:
            if format == FORMAT_CHROME:
                self.write_chrome(fp)
            else:
                self.write_jsonl(fp)
        return path


def _record_kind(record: Record) -> str:
    """Drop-accounting bucket: the record name's first dotted segment."""
    name = str(record.get("name") or "")
    head = name.split(".", 1)[0]
    return head or str(record.get("type", "unknown"))


def _flow_entry(record: Record, flow_ids: Dict[object, int]) -> Optional[Record]:
    """The Chrome flow companion for a ``flow``-attributed event, if any."""
    if record.get("type") != EVENT:
        return None
    attrs = record.get("attrs") or {}
    phase = attrs.get("flow_phase")
    if "flow" not in attrs or phase not in ("s", "t", "f"):
        return None
    key = attrs["flow"]
    flow_id = flow_ids.setdefault(key, len(flow_ids) + 1)
    entry: Record = {
        "name": str(attrs.get("flow_name", record.get("name", "flow"))),
        "cat": "flow",
        "ph": phase,
        "id": flow_id,
        "ts": float(record["time"]) * 1e6,
        "pid": record.get("pid", 0),
        "tid": record.get("pid", 0),
    }
    if phase == "f":
        entry["bp"] = "e"  # bind to the enclosing slice, matching the send
    return entry


def _record_to_chrome(record: Record) -> Record:
    args: Record = {
        "id": record.get("id"),
        "attrs": dict(record.get("attrs") or {}),
    }
    if record.get("parent") is not None:
        args["parent"] = record.get("parent")
    if record["type"] == SPAN:
        start = float(record["start"])
        return {
            "name": record["name"],
            "cat": SPAN,
            "ph": "X",
            "ts": start * 1e6,
            "dur": (float(record["end"]) - start) * 1e6,
            "pid": record.get("pid", 0),
            "tid": record.get("pid", 0),
            "args": args,
        }
    return {
        "name": record["name"],
        "cat": EVENT,
        "ph": "i",
        "s": "t",
        "ts": float(record["time"]) * 1e6,
        "pid": record.get("pid", 0),
        "tid": record.get("pid", 0),
        "args": args,
    }


def _chrome_to_record(entry: Record) -> Optional[Record]:
    args = dict(entry.get("args") or {})
    if isinstance(args.get("attrs"), dict):
        # Current format: metadata flat, user attributes namespaced.
        span_id = args.get("id")
        parent = args.get("parent")
        attrs = dict(args["attrs"])
    else:
        # Legacy format (pre-namespacing): attributes and metadata share
        # one flat dict; attrs named id/parent were clobbered at export,
        # so popping here recovers everything the file still holds.
        span_id = args.pop("id", None)
        parent = args.pop("parent", None)
        attrs = args
    common = {
        "id": span_id,
        "parent": parent,
        "name": entry.get("name", ""),
        "pid": entry.get("pid", 0),
        "attrs": attrs,
    }
    if entry.get("ph") == "X":
        start = float(entry.get("ts", 0.0)) / 1e6
        return {
            "type": SPAN,
            "start": start,
            "end": start + float(entry.get("dur", 0.0)) / 1e6,
            **common,
        }
    if entry.get("ph") == "i":
        return {
            "type": EVENT,
            "time": float(entry.get("ts", 0.0)) / 1e6,
            **common,
        }
    return None  # other phase types (metadata etc.) are not ours


def _checked(record: object, where: str) -> Record:
    """``record`` if it is a JSON object, and a span has a name and
    numeric ``start``/``end``; otherwise a :class:`ValidationError`."""
    if not isinstance(record, dict):
        raise ValidationError(
            f"{where}: expected a JSON object, got {type(record).__name__}"
        )
    if record.get("type") == SPAN and not (
        isinstance(record.get("name"), str)
        and all(isinstance(record.get(k), (int, float)) for k in ("start", "end"))
    ):
        raise ValidationError(
            f"{where}: a span needs a name and numeric start/end"
        )
    return record


def read_trace(path: str) -> Dict[str, object]:
    """Load a trace file written by :meth:`Tracer.write` (either format).

    Returns ``{"records": [...], "dropped": int, "dropped_by_kind": {...}}``
    with records in the original buffer order.  The format is sniffed
    from the content: a JSON object with ``traceEvents`` is Chrome
    format, anything else is JSONL.
    """
    content = read_text(path)
    stripped = content.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:2000]:
        try:
            data = json.loads(content)
        except ValueError as exc:  # also an int literal past the digit limit
            raise ValidationError(
                f"{path} is not a valid trace file: {exc}"
            ) from None
        entries = data.get("traceEvents", [])
        if not isinstance(entries, list):
            raise ValidationError(f"{path}: traceEvents must be a list")
        records = []
        for index, entry in enumerate(entries):
            where = f"{path}: traceEvents[{index}]"
            entry = _checked(entry, where)
            try:
                record = _chrome_to_record(entry)
            except (TypeError, ValueError):
                raise ValidationError(f"{where}: malformed trace event") from None
            if record is not None:
                records.append(record)
        meta, where = data.get("otherData") or {}, f"{path}: otherData"
    else:
        records, meta, where = [], {}, path
        for lineno, line in enumerate(content.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an int literal past the digit limit
                raise ValidationError(
                    f"{path} is not a valid trace file: {exc}"
                ) from None
            record = _checked(record, f"{path}:{lineno}")
            if record.get("type") == META:
                meta, where = record, f"{path}:{lineno}"
                continue
            records.append(record)
    try:
        return {
            "records": records,
            "dropped": int(meta.get("dropped", 0)),
            "dropped_by_kind": dict(meta.get("dropped_by_kind") or {}),
        }
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"{where}: malformed dropped count") from None


# --------------------------------------------------------------------- #
# optional process-wide tracer (CLI --trace)
# --------------------------------------------------------------------- #
#: the process-wide tracer's slot; a shared disabled tracer stands in
TRACER: Slot[Tracer] = Slot("tracer", Tracer(capacity=1, enabled=False))

#: the installed tracer, or the disabled stand-in when tracing is off
current_tracer = TRACER.current


__all__ = [
    "DEFAULT_CAPACITY",
    "FORMAT_JSONL",
    "FORMAT_CHROME",
    "FORMATS",
    "SPAN",
    "EVENT",
    "META",
    "Record",
    "Tracer",
    "read_trace",
    "TRACER",
    "current_tracer",
]
