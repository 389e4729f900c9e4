"""Deterministic fault injection for the simulator and the protocols.

The paper's Section 5 premise is that replication must stay useful while
the system is *live*; the emulation therefore needs failure models richer
than an instant, binary ``fail_site``.  This module provides them as
**data**: a :class:`FaultPlan` is a declarative, JSON-serialisable
schedule of

* **site crash windows** — a site goes down at ``start`` and (optionally)
  recovers at ``end``;
* **link degradations** — the per-unit transfer cost of a link is
  multiplied by ``factor`` for the duration of a window;
* **partitions** — a group of sites is cut off from the rest (links
  across the cut deliver nothing);
* **message faults** — per-message loss / duplication probabilities and
  a mean extra delay, applied by the distributed protocol emulations.

A :class:`FaultInjector` binds a plan to a live
:class:`~repro.sim.protocol.ReplicaSystem`: transitions apply in
deterministic order (time, then end-before-start, then declaration
order), pulled by :meth:`FaultInjector.advance_to` during a trace
replay.  Every transition is emitted through the current
:class:`~repro.utils.tracing.Tracer` and counted in
:class:`~repro.sim.metrics.SimulationMetrics.fault_events`.

Determinism guarantees (relied on by the chaos test-suite):

* the same plan + the same seed produce the same message-fault decisions
  in the same order (:class:`MessageFaults` draws from a private
  ``numpy`` generator seeded with ``plan.seed``);
* an **empty** plan is a zero-fault, zero-side-effect path — replaying a
  trace through an injector with an empty plan is behaviour-identical to
  replaying with no injector at all.

Time units are context-dependent: trace replay interprets transition
times as *simulated seconds*; the round-based distributed protocols
interpret them as *round numbers*; the adaptive loop interprets them as
*epoch numbers*.  See ``docs/fault_injection.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FaultPlanError, SimulationError
from repro.obs.ledger import current_ledger
from repro.utils.files import atomic_write, read_text
from repro.utils.tracing import current_tracer

#: transition kinds, in the order they apply at equal timestamps —
#: recoveries/restorations before new faults, so a back-to-back window
#: pair ``[0, 1)`` + ``[1, 2)`` never double-fails a site.
CRASH = "crash"
RECOVER = "recover"
DEGRADE = "degrade"
RESTORE = "restore"
PARTITION = "partition"
HEAL = "heal"

_END_KINDS = (RECOVER, RESTORE, HEAL)


# --------------------------------------------------------------------- #
# plan building blocks
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CrashWindow:
    """Site ``site`` is down during ``[start, end)`` (``end=None``: forever)."""

    site: int
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site < 0:
            raise FaultPlanError(f"crash site must be >= 0, got {self.site}")
        _check_window(self.start, self.end, "crash")


@dataclass(frozen=True)
class LinkDegradation:
    """Link ``src -> dst`` cost is multiplied by ``factor`` during the window."""

    src: int
    dst: int
    factor: float
    start: float = 0.0
    end: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise FaultPlanError("link endpoints must be >= 0")
        if self.src == self.dst:
            raise FaultPlanError("cannot degrade a site's link to itself")
        # NaN fails the > comparison, so this also rejects NaN.  inf is
        # deliberately allowed: an infinitely degraded link delivers
        # nothing, i.e. the link is severed for the window's duration.
        if not self.factor > 0.0:
            raise FaultPlanError(
                f"degradation factor must be > 0, got {self.factor}"
            )
        _check_window(self.start, self.end, "degradation")


@dataclass(frozen=True)
class PartitionWindow:
    """Sites in ``group`` are cut off from every other site during the window."""

    group: Tuple[int, ...]
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", tuple(int(s) for s in self.group))
        if not self.group:
            raise FaultPlanError("partition group cannot be empty")
        if len(set(self.group)) != len(self.group):
            raise FaultPlanError(f"partition group has duplicates: {self.group}")
        if min(self.group) < 0:
            raise FaultPlanError("partition sites must be >= 0")
        _check_window(self.start, self.end, "partition")


@dataclass(frozen=True)
class MessageFaultSpec:
    """Per-message fault probabilities for the protocol emulations."""

    loss: float = 0.0
    duplicate: float = 0.0
    delay_mean: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("loss", self.loss), ("duplicate", self.duplicate)):
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(
                    f"message {name} probability must lie in [0, 1], got {value}"
                )
        # written as a negation so NaN is rejected too
        if not 0.0 <= self.delay_mean < np.inf:
            raise FaultPlanError(
                f"delay_mean must be finite and >= 0, got {self.delay_mean}"
            )

    @property
    def active(self) -> bool:
        return self.loss > 0.0 or self.duplicate > 0.0 or self.delay_mean > 0.0


def _check_window(start: float, end: Optional[float], what: str) -> None:
    if start < 0.0 or not np.isfinite(start):
        raise FaultPlanError(f"{what} start must be finite and >= 0, got {start}")
    if end is not None and (not np.isfinite(end) or end <= start):
        raise FaultPlanError(
            f"{what} window must satisfy end > start, got [{start}, {end})"
        )


@dataclass(frozen=True)
class _Transition:
    """One state change derived from a plan window."""

    time: float
    priority: int  # 0: window ends, 1: window starts (at equal times)
    order: int  # declaration order (final tie-break)
    kind: str
    spec: object

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.order)


# --------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded schedule of faults.

    ``seed`` drives every probabilistic decision (message loss /
    duplication / delay); scheduled windows are deterministic by
    construction.  Build one in code or load it with
    :func:`load_fault_plan`.
    """

    crashes: Tuple[CrashWindow, ...] = ()
    degradations: Tuple[LinkDegradation, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    messages: MessageFaultSpec = field(default_factory=MessageFaultSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultPlanError(f"plan seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "degradations", tuple(self.degradations))
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.crashes
            and not self.degradations
            and not self.partitions
            and not self.messages.active
        )

    def validate(self, num_sites: int) -> None:
        """Check every referenced site against the system size."""
        for window in self.crashes:
            if window.site >= num_sites:
                raise FaultPlanError(
                    f"crash site {window.site} out of range [0, {num_sites})"
                )
        for link in self.degradations:
            if link.src >= num_sites or link.dst >= num_sites:
                raise FaultPlanError(
                    f"degraded link ({link.src}, {link.dst}) out of range "
                    f"[0, {num_sites})"
                )
        for part in self.partitions:
            if max(part.group) >= num_sites:
                raise FaultPlanError(
                    f"partition group {part.group} out of range [0, {num_sites})"
                )
            if len(part.group) >= num_sites:
                raise FaultPlanError(
                    f"partition group {part.group} leaves no site outside it"
                )

    def transitions(self) -> List[_Transition]:
        """Every window start/end as a deterministically ordered list."""
        out: List[_Transition] = []
        order = 0
        for window in self.crashes:
            out.append(_Transition(window.start, 1, order, CRASH, window))
            if window.end is not None:
                out.append(_Transition(window.end, 0, order, RECOVER, window))
            order += 1
        for link in self.degradations:
            out.append(_Transition(link.start, 1, order, DEGRADE, link))
            if link.end is not None:
                out.append(_Transition(link.end, 0, order, RESTORE, link))
            order += 1
        for part in self.partitions:
            out.append(_Transition(part.start, 1, order, PARTITION, part))
            if part.end is not None:
                out.append(_Transition(part.end, 0, order, HEAL, part))
            order += 1
        out.sort(key=_Transition.sort_key)
        return out

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crashes": [
                {"site": w.site, "start": w.start, "end": w.end}
                for w in self.crashes
            ],
            "degradations": [
                {
                    "src": d.src,
                    "dst": d.dst,
                    # json.dump would emit the bare token `Infinity`,
                    # which is not valid JSON; a severed link (inf
                    # factor) is serialised as the sentinel string
                    # "inf" instead (float("inf") parses it right back).
                    "factor": (
                        d.factor if np.isfinite(d.factor) else "inf"
                    ),
                    "start": d.start,
                    "end": d.end,
                    "symmetric": d.symmetric,
                }
                for d in self.degradations
            ],
            "partitions": [
                {"group": list(p.group), "start": p.start, "end": p.end}
                for p in self.partitions
            ],
            "messages": {
                "loss": self.messages.loss,
                "duplicate": self.messages.duplicate,
                "delay_mean": self.messages.delay_mean,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        known = {"seed", "crashes", "degradations", "partitions", "messages"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys: {sorted(unknown)} "
                f"(expected a subset of {sorted(known)})"
            )
        crashes = tuple(
            CrashWindow(
                site=_plan_int(w, "site", "crash"),
                start=_plan_float(w, "start", "crash", default=0.0),
                end=_plan_float(w, "end", "crash", default=None),
            )
            for w in _plan_windows(data, "crashes")
        )
        degradations = tuple(
            LinkDegradation(
                src=_plan_int(d, "src", "degradation"),
                dst=_plan_int(d, "dst", "degradation"),
                factor=_plan_float(d, "factor", "degradation"),
                start=_plan_float(d, "start", "degradation", default=0.0),
                end=_plan_float(d, "end", "degradation", default=None),
                symmetric=_plan_bool(d, "symmetric", "degradation"),
            )
            for d in _plan_windows(data, "degradations")
        )
        partitions = tuple(
            PartitionWindow(
                group=_plan_group(p),
                start=_plan_float(p, "start", "partition", default=0.0),
                end=_plan_float(p, "end", "partition", default=None),
            )
            for p in _plan_windows(data, "partitions")
        )
        spec = _plan_entry(data.get("messages", {}), "messages")
        messages = MessageFaultSpec(
            loss=_plan_float(spec, "loss", "messages", default=0.0),
            duplicate=_plan_float(spec, "duplicate", "messages", default=0.0),
            delay_mean=_plan_float(spec, "delay_mean", "messages", default=0.0),
        )
        return cls(
            crashes=crashes,
            degradations=degradations,
            partitions=partitions,
            messages=messages,
            seed=_plan_int(data, "seed", "fault plan", default=0),
        )

    def save(self, path: str) -> str:
        with atomic_write(path) as fp:
            # allow_nan=False: any non-finite float that slipped past
            # the sentinel encoding fails loudly here instead of
            # silently writing the invalid-JSON `Infinity`/`NaN` tokens.
            json.dump(self.to_dict(), fp, indent=2, allow_nan=False)
            fp.write("\n")
        return path


# --------------------------------------------------------------------- #
# strict field readers for FaultPlan.from_dict: a value loads exactly as
# written or raises FaultPlanError (no truncated fractions, no truthy
# strings, no OverflowError from an int past the float range)
# --------------------------------------------------------------------- #
_MISSING = object()


def _malformed(message: str) -> FaultPlanError:
    return FaultPlanError(f"malformed fault plan: {message}")


def _plan_value(holder: Dict[str, object], key: str, where: str, default):
    value = holder.get(key, default)
    if value is _MISSING:
        raise _malformed(f"{where} window has no {key!r} field")
    return value


def _as_int(value: object, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _malformed(f"{what} must be an integer, got {value!r}")
    return value


def _plan_int(holder, key: str, where: str, default=_MISSING) -> int:
    return _as_int(_plan_value(holder, key, where, default), f"{where} {key}")


def _plan_float(holder, key: str, where: str, default=_MISSING):
    value = _plan_value(holder, key, where, default)
    if value is None and default is None:
        return None
    if key == "factor" and value == "inf":
        return float("inf")  # the severed-link sentinel of to_dict
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _malformed(f"{where} {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _malformed(
            f"{where} {key} {value} is outside the float range"
        ) from None


def _plan_bool(holder, key: str, where: str) -> bool:
    value = holder.get(key, True)
    if not isinstance(value, bool):
        raise _malformed(f"{where} {key} must be true or false, got {value!r}")
    return value


#: the fields each kind of plan entry may carry
_PLAN_FIELDS = {
    "crashes": {"site", "start", "end"},
    "degradations": {"src", "dst", "factor", "start", "end", "symmetric"},
    "partitions": {"group", "start", "end"},
    "messages": {"loss", "duplicate", "delay_mean"},
}


def _plan_entry(entry: object, key: str) -> Dict[str, object]:
    if not isinstance(entry, dict):
        raise _malformed(
            f"{key!r} entries must be JSON objects, "
            f"got {type(entry).__name__}"
        )
    unknown = set(entry) - _PLAN_FIELDS[key]
    if unknown:
        raise _malformed(
            f"unknown fields in {key!r}: {sorted(unknown)}"
        )
    return entry


def _plan_windows(data: Dict[str, object], key: str) -> List[Dict[str, object]]:
    windows = data.get(key, [])
    if not isinstance(windows, list):
        raise _malformed(
            f"{key!r} must be a list, got {type(windows).__name__}"
        )
    return [_plan_entry(window, key) for window in windows]


def _plan_group(holder: Dict[str, object]) -> Tuple[int, ...]:
    group = _plan_value(holder, "group", "partition", _MISSING)
    if not isinstance(group, list):
        raise _malformed(f"partition group must be a list, got {group!r}")
    return tuple(_as_int(site, "partition site") for site in group)


def load_fault_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    text = read_text(path, "fault plan", FaultPlanError)
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an int literal past the digit limit
        raise FaultPlanError(f"{path} is not valid JSON: {exc}") from None
    return FaultPlan.from_dict(data)


# --------------------------------------------------------------------- #
# message-level faults (used by the distributed protocol emulations)
# --------------------------------------------------------------------- #
#: uniforms drawn per refill while no delay draw interleaves (2,048 fates)
_FATE_BLOCK = 4096


class MessageFaults:
    """Seeded per-message loss / duplication / delay decisions.

    One :meth:`judge` call per message send (or one :meth:`judge_many`
    call per batch); the draw count per message is fixed while the spec
    is active, so decision streams are reproducible for a given
    ``(spec, seed)`` regardless of message content.

    Each message takes a ``(loss, duplicate)`` pair of uniforms, then,
    when ``delay_mean > 0``, one exponential draw.  Without a delay the
    pairs are read from one ``random(4096)`` block at a time: the same
    stream as one ``random(2)`` call per message, so the fates are the
    same, but the generator ends a run up to one block further ahead.
    """

    def __init__(self, spec: MessageFaultSpec, seed: int = 0) -> None:
        self.spec = spec
        # cached: the spec is frozen, and judge() reads this on every send
        self.active = spec.active
        self._rng = np.random.default_rng(seed)
        self._block: List[float] = []
        self._next = 0
        self.losses = 0
        self.duplicates = 0
        self.total_delay = 0.0

    def _uniforms(self, count: int) -> List[float]:
        """The next ``count`` uniforms of the block stream."""
        out = self._block[self._next : self._next + count]
        self._next += count
        while len(out) < count:
            self._block = self._rng.random(_FATE_BLOCK).tolist()
            self._next = count - len(out)
            out += self._block[: self._next]
        return out

    def judge(self) -> Tuple[bool, bool, float]:
        """Decide one message's fate: ``(lost, duplicated, extra_delay)``."""
        if not self.active:
            return (False, False, 0.0)
        spec = self.spec
        delay = 0.0
        if spec.delay_mean > 0.0:
            u_loss, u_dup = self._rng.random(2).tolist()
            delay = float(self._rng.exponential(spec.delay_mean))
        else:
            u_loss, u_dup = self._uniforms(2)
        lost = u_loss < spec.loss
        duplicated = u_dup < spec.duplicate
        if lost:
            self.losses += 1
        if duplicated:
            self.duplicates += 1
        self.total_delay += delay
        return (lost, duplicated, delay)

    def judge_many(self, count: int) -> Tuple[List[bool], List[bool]]:
        """The ``(lost, duplicated)`` flags of ``count`` messages.

        The same fates, counters and stream as ``count`` :meth:`judge`
        calls in a row; the delays are only added to ``total_delay``.
        """
        if not self.active:
            return [False] * count, [False] * count
        if self.spec.delay_mean > 0.0:
            fates = [self.judge() for _ in range(count)]
            return [f[0] for f in fates], [f[1] for f in fates]
        uniforms = self._uniforms(2 * count)
        loss, duplicate = self.spec.loss, self.spec.duplicate
        lost = [u < loss for u in uniforms[0::2]]
        duplicated = [u < duplicate for u in uniforms[1::2]]
        self.losses += lost.count(True)
        self.duplicates += duplicated.count(True)
        return lost, duplicated


class ProtocolFaults:
    """Round-clocked fault state shared by the protocol emulations.

    Tracks which sites are crashed as logical time (round number)
    advances, and exposes the plan's :class:`MessageFaults` stream.
    """

    def __init__(self, plan: FaultPlan, num_sites: int) -> None:
        plan.validate(num_sites)
        self.plan = plan
        self.messages = MessageFaults(plan.messages, plan.seed)
        self._transitions = [
            t for t in plan.transitions() if t.kind in (CRASH, RECOVER)
        ]
        self._cursor = 0
        self._depth: Dict[int, int] = {}
        self.crashed: Set[int] = set()

    def advance_to(self, time: float) -> List[Tuple[str, int]]:
        """Apply crash/recover transitions due at ``<= time``.

        Returns the applied ``(kind, site)`` changes, in order.
        """
        changes: List[Tuple[str, int]] = []
        while (
            self._cursor < len(self._transitions)
            and self._transitions[self._cursor].time <= time
        ):
            tr = self._transitions[self._cursor]
            self._cursor += 1
            site = tr.spec.site
            depth = self._depth.get(site, 0)
            if tr.kind == CRASH:
                self._depth[site] = depth + 1
                if depth == 0:
                    self.crashed.add(site)
                    changes.append((CRASH, site))
            else:
                self._depth[site] = depth - 1
                if depth == 1:
                    self.crashed.discard(site)
                    changes.append((RECOVER, site))
        return changes


# --------------------------------------------------------------------- #
# the injector
# --------------------------------------------------------------------- #
class FaultInjector:
    """Applies a :class:`FaultPlan` to a live :class:`ReplicaSystem`.

    :meth:`advance_to` applies every transition due at or before a
    timestamp; ``ReplicaSystem.replay`` calls it before each request (so
    a transition at time ``t`` precedes requests at the same ``t``) and
    :meth:`drain` after the last one.

    An injector is single-use: it walks its transition list forward only.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._transitions = plan.transitions()
        self._cursor = 0
        self._validated_for: Optional[int] = None
        self._crash_depth: Dict[int, int] = {}
        self._active_degradations: List[LinkDegradation] = []
        self._active_partitions: List[PartitionWindow] = []
        self.events_applied = 0

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._transitions)

    def message_faults(self) -> MessageFaults:
        """A fresh seeded message-fault stream for protocol emulations."""
        return MessageFaults(self.plan.messages, self.plan.seed)

    # ------------------------------------------------------------------ #
    def advance_to(self, time: float, system) -> int:
        """Apply every transition due at or before ``time``; returns count."""
        if self._cursor >= len(self._transitions):
            return 0
        self._check(system)
        applied = 0
        while (
            self._cursor < len(self._transitions)
            and self._transitions[self._cursor].time <= time
        ):
            self._apply(self._transitions[self._cursor], system)
            self._cursor += 1
            applied += 1
        return applied

    def next_time(self) -> float:
        """Time of the next pending transition (``inf`` when exhausted).

        Between two :meth:`advance_to` calls no fault state changes
        before this time, which is what lets ``ReplicaSystem.replay``
        price every request up to it as one segment.
        """
        if self._cursor >= len(self._transitions):
            return float("inf")
        return self._transitions[self._cursor].time

    def drain(self, system) -> int:
        """Apply every remaining transition (end-of-replay bookkeeping)."""
        return self.advance_to(float("inf"), system)

    # ------------------------------------------------------------------ #
    def _check(self, system) -> None:
        num_sites = system.instance.num_sites
        if self._validated_for != num_sites:
            self.plan.validate(num_sites)
            self._validated_for = num_sites

    def _apply(self, transition: _Transition, system) -> None:
        tracer = current_tracer()
        ledger = current_ledger()
        kind, spec = transition.kind, transition.spec
        self.events_applied += 1
        if kind == CRASH:
            depth = self._crash_depth.get(spec.site, 0)
            self._crash_depth[spec.site] = depth + 1
            if depth == 0:
                system.fail_site(spec.site)
                system.metrics.record_fault("site_crash")
                tracer.event(
                    "fault.site_crash", site=spec.site, at=transition.time
                )
                if ledger.enabled:
                    ledger.record(
                        "fault", site=spec.site,
                        fault="site_crash", time=transition.time,
                    )
        elif kind == RECOVER:
            depth = self._crash_depth.get(spec.site, 0)
            self._crash_depth[spec.site] = depth - 1
            if depth == 1:
                refetches = system.recover_site(spec.site)
                system.metrics.record_fault("site_recovery")
                tracer.event(
                    "fault.site_recovery",
                    site=spec.site,
                    at=transition.time,
                    refetches=refetches,
                )
                if ledger.enabled:
                    ledger.record(
                        "fault", site=spec.site,
                        fault="site_recovery", time=transition.time,
                        refetches=refetches,
                    )
        elif kind == DEGRADE:
            self._active_degradations.append(spec)
            self._push_links(system)
            system.metrics.record_fault("link_degradation")
            tracer.event(
                "fault.link_degradation",
                src=spec.src,
                dst=spec.dst,
                factor=spec.factor,
                at=transition.time,
            )
            if ledger.enabled:
                ledger.record(
                    "fault", site=spec.src,
                    fault="link_degradation", dst=spec.dst,
                    factor=spec.factor, time=transition.time,
                )
        elif kind == RESTORE:
            self._active_degradations.remove(spec)
            self._push_links(system)
            system.metrics.record_fault("link_restoration")
            tracer.event(
                "fault.link_restoration",
                src=spec.src,
                dst=spec.dst,
                at=transition.time,
            )
            if ledger.enabled:
                ledger.record(
                    "fault", site=spec.src,
                    fault="link_restoration", dst=spec.dst,
                    time=transition.time,
                )
        elif kind == PARTITION:
            self._active_partitions.append(spec)
            self._push_links(system)
            system.metrics.record_fault("partition")
            tracer.event(
                "fault.partition", group=list(spec.group), at=transition.time
            )
            if ledger.enabled:
                ledger.record(
                    "fault", fault="partition",
                    group=list(spec.group), time=transition.time,
                )
        elif kind == HEAL:
            self._active_partitions.remove(spec)
            self._push_links(system)
            system.metrics.record_fault("partition_heal")
            tracer.event(
                "fault.partition_heal",
                group=list(spec.group),
                at=transition.time,
            )
            if ledger.enabled:
                ledger.record(
                    "fault", fault="partition_heal",
                    group=list(spec.group), time=transition.time,
                )
        else:  # pragma: no cover - transitions() only emits known kinds
            raise SimulationError(f"unknown fault transition kind {kind!r}")

    def _push_links(self, system) -> None:
        """Recompute link state from the active windows and push it.

        Recomputing from scratch (rather than multiplying incrementally)
        keeps the restore path *exact*: when the last window closes the
        system returns to its pristine base cost matrix, bit for bit.
        """
        m = system.instance.num_sites
        multipliers: Optional[np.ndarray] = None
        if self._active_degradations:
            multipliers = np.ones((m, m))
            for link in self._active_degradations:
                multipliers[link.src, link.dst] *= link.factor
                if link.symmetric:
                    multipliers[link.dst, link.src] *= link.factor
        unreachable: Optional[np.ndarray] = None
        if self._active_partitions:
            unreachable = np.zeros((m, m), dtype=bool)
            for part in self._active_partitions:
                inside = np.zeros(m, dtype=bool)
                inside[list(part.group)] = True
                cross = inside[:, None] ^ inside[None, :]
                unreachable |= cross
        if multipliers is not None:
            # An infinitely degraded link is a severed link: mark it
            # unreachable so requests route around it (or fail) instead
            # of being accounted at an infinite transfer cost.
            severed = ~np.isfinite(multipliers)
            if severed.any():
                if unreachable is None:
                    unreachable = severed
                else:
                    unreachable |= severed
        system.set_link_faults(multipliers, unreachable)


__all__ = [
    "CrashWindow",
    "LinkDegradation",
    "PartitionWindow",
    "MessageFaultSpec",
    "MessageFaults",
    "ProtocolFaults",
    "FaultPlan",
    "FaultInjector",
    "load_fault_plan",
]
