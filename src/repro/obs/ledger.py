"""Append-only replica placement ledger with full attribution.

Every replica **add**, **drop**, **defer** and **resume** that touches a
deployed :class:`~repro.core.scheme.ReplicationScheme` — plus advisory
**decide** and **fault** entries that explain *why* — is recorded as one
immutable dict entry.  Producers (the SRA solver, the AGRA engine, the
adaptive loop, both distributed protocols, the fault injector) attach
attribution by nesting :meth:`PlacementLedger.scope` blocks::

    with ledger.scope(algorithm="agra", epoch=3, trigger="pattern-change"):
        ledger.record("add", obj=7, site=2, benefit=41.5)

Entry schema (all producers)::

    seq        monotonically increasing per-ledger sequence number
    action     add | drop | defer | resume | decide | fault
    obj        object index (absent for object-less fault entries)
    site       site index (absent for site-less decide entries)
    causal_parent   tracer span id open at record time (tracing on only)
    ...        scope attribution (outer scopes first) and call-site detail
               (algorithm, epoch, benefit / Eq. 6 estimate, trigger,
               fault window, reason, source site, ...)

Only ``add`` and ``drop`` mutate the deployed scheme; replaying exactly
those two actions from an empty (primary-only) scheme must reproduce the
final scheme bit for bit — the ``ledger-scheme-consistency`` conformance
invariant enforces this on every corpus scenario.

A process-wide ledger lives in the :data:`LEDGER` slot, like the
tracer's: it is installed and torn down only by
:class:`repro.runtime.context.RunContext` (the CLI ``--ledger`` flag),
and instrumented call sites fetch it with :func:`current_ledger`, which
returns a shared *disabled* ledger when the feature is off so the hot
paths pay one call plus one attribute check and nothing else.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Optional, Tuple

from repro.errors import ValidationError
from repro.utils.files import atomic_write, read_text
from repro.utils.recorders import Slot
from repro.utils.tracing import current_tracer

#: entry actions that mutate the deployed scheme (replayable)
ACTION_ADD = "add"
ACTION_DROP = "drop"
#: advisory actions (attribution / audit only, skipped by replay)
ACTION_DEFER = "defer"
ACTION_RESUME = "resume"
ACTION_DECIDE = "decide"
ACTION_FAULT = "fault"

ACTIONS = (
    ACTION_ADD,
    ACTION_DROP,
    ACTION_DEFER,
    ACTION_RESUME,
    ACTION_DECIDE,
    ACTION_FAULT,
)
REPLAYABLE_ACTIONS = (ACTION_ADD, ACTION_DROP)

#: one ledger entry: plain dict, JSON- and pickle-friendly
Entry = Dict[str, object]


class PlacementLedger:
    """Append-only record of every replica placement decision.

    >>> ledger = PlacementLedger()
    >>> with ledger.scope(algorithm="sra"):
    ...     _ = ledger.record("add", obj=3, site=1, benefit=12.5)
    >>> ledger.entries()[0]["algorithm"]
    'sra'
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: List[Entry] = []
        self._scopes: List[Dict[str, object]] = []
        self._seq = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def scope(self, **attribution: object) -> Iterator["PlacementLedger"]:
        """Attach ``attribution`` to every entry recorded in the block.

        Scopes nest; inner keys shadow outer ones.  A disabled ledger's
        scope is a no-op.
        """
        if not self.enabled:
            yield self
            return
        self._scopes.append(attribution)
        try:
            yield self
        finally:
            self._scopes.pop()

    def record(
        self,
        action: str,
        obj: Optional[int] = None,
        site: Optional[int] = None,
        **detail: object,
    ) -> Optional[Entry]:
        """Append one entry; returns it (``None`` when disabled)."""
        if not self.enabled:
            return None
        if action not in ACTIONS:
            raise ValidationError(
                f"ledger action must be one of {ACTIONS}, got {action!r}"
            )
        entry: Entry = {"seq": self._seq, "action": action}
        self._seq += 1
        if obj is not None:
            entry["obj"] = int(obj)
        if site is not None:
            entry["site"] = int(site)
        tracer = current_tracer()
        if tracer.enabled and tracer.current_span_id is not None:
            entry["causal_parent"] = tracer.current_span_id
        for scope in self._scopes:
            entry.update(scope)
        entry.update(detail)
        self._entries.append(entry)
        return entry

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def entries(
        self,
        obj: Optional[int] = None,
        site: Optional[int] = None,
        action: Optional[str] = None,
    ) -> List[Entry]:
        """A filtered copy of the entries, oldest first."""
        return [
            dict(e)
            for e in self._entries
            if (obj is None or e.get("obj") == obj)
            and (site is None or e.get("site") == site)
            and (action is None or e.get("action") == action)
        ]

    def replay_ops(self) -> Iterator[Tuple[str, int, int]]:
        """The scheme-mutating stream: ``(action, site, obj)`` tuples."""
        for entry in self._entries:
            if entry["action"] in REPLAYABLE_ACTIONS:
                yield (
                    str(entry["action"]),
                    int(entry["site"]),
                    int(entry["obj"]),
                )

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self._scopes.clear()
        self._seq = 0

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def write_jsonl(self, fp: IO[str]) -> None:
        """One JSON entry per line, in sequence order."""
        for entry in self._entries:
            fp.write(json.dumps(entry, default=str) + "\n")

    def write(self, path: str) -> str:
        with atomic_write(path) as fp:
            self.write_jsonl(fp)
        return path


def read_ledger(path: str) -> List[Entry]:
    """Load a JSONL ledger written by :meth:`PlacementLedger.write`."""
    content = read_text(path)
    entries: List[Entry] = []
    for lineno, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:  # also an int literal past the digit limit
            raise ValidationError(
                f"{path} is not a valid ledger file: {exc}"
            ) from None
        if not isinstance(entry, dict):
            raise ValidationError(
                f"{path}:{lineno}: expected a JSON object, "
                f"got {type(entry).__name__}"
            )
        _check_entry(entry, f"{path}:{lineno}")
        entries.append(entry)
    return entries


def _check_entry(entry: Entry, where: str) -> None:
    """The keys :func:`explain_entries` sorts, groups and filters on must
    hold what :meth:`PlacementLedger.record` writes there."""
    if entry.get("action") not in ACTIONS:
        raise ValidationError(
            f"{where}: ledger action must be one of {ACTIONS}, "
            f"got {entry.get('action')!r}"
        )
    for key in ("seq", "obj", "site"):
        value = entry.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(
                f"{where}: ledger {key!r} must be an integer, got {value!r}"
            )


# --------------------------------------------------------------------- #
# the decision chain (`repro explain`)
# --------------------------------------------------------------------- #
def explain_entries(
    entries: List[Entry],
    obj: int,
    site: Optional[int] = None,
    at: Optional[float] = None,
) -> List[Entry]:
    """The decision chain for one object (optionally one site).

    Returns every entry touching ``obj`` — plus object-less ``fault``
    entries at sites in the chain, which are the fault windows that
    triggered deferrals — in sequence order.  ``at`` cuts the chain at a
    logical time: entries whose ``epoch`` / ``time`` attribution exceeds
    it are dropped.
    """
    chain = [
        e
        for e in entries
        if e.get("obj") == obj and (site is None or e.get("site") == site)
    ]
    sites_in_chain = {e.get("site") for e in chain if e.get("site") is not None}
    faults = [
        e
        for e in entries
        if e.get("action") == ACTION_FAULT
        and e.get("obj") is None
        and e.get("site") in sites_in_chain
    ]
    merged = sorted(chain + faults, key=lambda e: e.get("seq", 0))
    if at is not None:
        def _when(entry: Entry) -> "Optional[int | float]":
            for key in ("epoch", "time"):
                value = entry.get(key)
                if isinstance(value, (int, float)):
                    # not float(value): an int past the float range
                    # still compares with ``at``
                    return value
            return None

        merged = [e for e in merged if (_when(e) is None or _when(e) <= at)]
    return merged


#: attribution keys rendered on their own column, in display order
_LEAD_KEYS = ("seq", "action", "obj", "site")


def render_explanation(
    entries: List[Entry],
    obj: int,
    site: Optional[int] = None,
    at: Optional[float] = None,
) -> str:
    """Human-readable decision chain for ``repro explain``."""
    chain = explain_entries(entries, obj, site=site, at=at)
    where = f"object {obj}" + (f" at site {site}" if site is not None else "")
    when = f" up to t={at:g}" if at is not None else ""
    lines = [f"decision chain for {where}{when}: {len(chain)} entries"]
    if not chain:
        lines.append(
            "  (no ledger entries — was the run recorded with --ledger?)"
        )
        return "\n".join(lines)
    for entry in chain:
        detail = ", ".join(
            f"{key}={value}"
            for key, value in entry.items()
            if key not in _LEAD_KEYS
        )
        head = (
            f"  #{entry.get('seq', '?'):>4} {str(entry['action']):<7}"
            f" obj={entry.get('obj', '-')!s:<4} site={entry.get('site', '-')!s:<4}"
        )
        lines.append(head + (f" {detail}" if detail else ""))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# optional process-wide ledger (CLI --ledger)
# --------------------------------------------------------------------- #
#: the process-wide ledger's slot; a shared disabled ledger stands in
LEDGER: Slot[PlacementLedger] = Slot("ledger", PlacementLedger(enabled=False))

#: the installed ledger, or the disabled stand-in when the feature is off
current_ledger = LEDGER.current


__all__ = [
    "ACTION_ADD",
    "ACTION_DROP",
    "ACTION_DEFER",
    "ACTION_RESUME",
    "ACTION_DECIDE",
    "ACTION_FAULT",
    "ACTIONS",
    "REPLAYABLE_ACTIONS",
    "Entry",
    "PlacementLedger",
    "read_ledger",
    "explain_entries",
    "render_explanation",
    "LEDGER",
    "current_ledger",
]
