"""Message fabric for the distributed-protocol emulations.

Messages are control traffic: the paper's cost model deliberately ignores
them ("the communication cost of control messages has minor impact"), but
the emulation counts them — and their cost-weighted volume — so that claim
can actually be checked against the data traffic a scheme saves.

:class:`MessageLog` keeps one row per message in per-field columns
(sender, receiver, kind, size, payload, lost) and prices each row as it
arrives; :attr:`MessageLog.messages` builds equal :class:`Message`
objects only when someone reads it.

When tracing is enabled, the log also stamps every row with its causal
metadata — record ids, parent span id and the tracer's ring position —
and attaches itself to the tracer as an off-ring record source
(:class:`repro.utils.tracing.OffRingSource`).  The paired ``msg.send`` /
``msg.recv`` point events, carrying a per-message flow key, are built
from those columns when the trace is read, so the happens-before DAG
builder in :mod:`repro.obs.causal` can reconstruct token hops and the
Chrome exporter can render them as Perfetto flow arrows, while the
messages never take ring capacity from spans.  Each row's
:class:`TraceContext` carries the sender's Lamport clock: the log keeps
one clock per site, ticked on send and advanced with
``max(local, sender)+1`` on receive, over the rows recorded while
tracing.  With tracing off none of this runs.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.tracing import EVENT, Record, Tracer, current_tracer

#: point-event names emitted for every message while tracing
SEND_EVENT = "msg.send"
RECV_EVENT = "msg.recv"


@dataclass(frozen=True)
class TraceContext:
    """Causal metadata stamped onto a message at send time.

    ``parent_span`` is the tracer span open at the send site (the DSRA
    round, the monitor collection, ...); ``clock`` is the sender's
    Lamport clock after the send tick.  Comparison is excluded so two
    otherwise-equal messages stay equal regardless of when they were
    sent.
    """

    parent_span: Optional[int] = None
    clock: int = 0


class MessageKind(enum.Enum):
    """Protocol message types of the distributed SRA."""

    STATS = "stats"  # leader -> sites: global per-object write totals
    TOKEN = "token"  # leader -> site: permission to run one greedy step
    TOKEN_RETURN = "token-return"  # site -> leader: step done / list empty
    REPLICATE = "replicate"  # site -> all: new replica announcement
    OBJECT_TRANSFER = "object-transfer"  # data: replica payload shipment
    ELECTION = "election"  # new leader -> all: leadership change notice


#: kind column codes: a kind's position in :class:`MessageKind`
_KINDS: Tuple[MessageKind, ...] = tuple(MessageKind)
_CODE: Dict[MessageKind, int] = {kind: code for code, kind in enumerate(_KINDS)}
_DATA = _CODE[MessageKind.OBJECT_TRANSFER]


@dataclass(frozen=True)
class Message:
    """One protocol message between two sites."""

    sender: int
    receiver: int
    kind: MessageKind
    size_units: float = 1.0
    payload: Optional[object] = None
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size_units < 0:
            raise ValidationError(
                f"size_units must be >= 0, got {self.size_units}"
            )


class MessageLog:
    """Accumulates protocol traffic and its cost-weighted volume.

    ``cost`` is the network's per-unit transfer cost matrix; every message
    contributes ``size_units * C(sender, receiver)`` to the transfer cost
    of its category (control vs data), added in recording order.
    """

    def __init__(self, cost: np.ndarray) -> None:
        self._cost_rows: List[List[float]] = np.asarray(
            cost, dtype=float
        ).tolist()
        # one row per message
        self._sender = array("i")
        self._receiver = array("i")
        self._kind = array("b")
        self._size = array("d")
        self._payload: List[object] = []
        self._lost = array("b")
        self._counts = [0] * len(_KINDS)
        self.control_cost = 0.0
        self.data_cost = 0.0
        # one stamp per send call made while tracing (see _stamp)
        self._stamps: List[_Stamp] = []
        self._segment: Optional[_TracedRows] = None
        # Lamport clocks of the traced rows, in stamp order; extended on
        # read up to ``_clocked`` stamps
        self._clocks: Dict[int, int] = {}
        self._clocked = 0
        self._send_clock = array("q")
        self._recv_clock = array("q")

    def send(
        self,
        sender: int,
        receiver: int,
        kind: MessageKind,
        size_units: float = 0.0,
        payload: Optional[object] = None,
        lost: bool = False,
    ) -> None:
        """Account one message; ``lost`` marks an in-flight drop.

        A lost message still costs its send (the sender paid the
        bandwidth) and still emits ``msg.send``, but never ticks the
        receiver's clock and emits no ``msg.recv`` — in the causal DAG it
        is a send with no matching receive.
        """
        self.send_many(sender, (receiver,), kind, size_units, payload, (lost,))

    def record(self, message: Message, *, lost: bool = False) -> None:
        """Account one :class:`Message` (see :meth:`send`)."""
        self.send(
            message.sender,
            message.receiver,
            message.kind,
            message.size_units,
            message.payload,
            lost,
        )

    def send_many(
        self,
        sender: int,
        receivers: Sequence[int],
        kind: MessageKind,
        size_units: float,
        payload: Optional[object],
        lost: Sequence[bool],
    ) -> None:
        """Account one message from ``sender`` to each of ``receivers``.

        Equivalent to one :meth:`send` per receiver in order, with
        ``lost[i]`` the fate of the message to ``receivers[i]``.
        """
        if size_units < 0:
            raise ValidationError(f"size_units must be >= 0, got {size_units}")
        count = len(receivers)
        code = _CODE[kind]
        first = len(self._payload)
        self._sender.extend([sender] * count)
        self._receiver.extend(receivers)
        self._kind.extend([code] * count)
        self._size.extend([size_units] * count)
        self._payload.extend([payload] * count)
        self._lost.extend(lost)
        self._counts[code] += count
        row = self._cost_rows[sender]
        if code == _DATA:
            total = self.data_cost
            for receiver in receivers:
                total += size_units * row[receiver]
            self.data_cost = total
        else:
            total = self.control_cost
            for receiver in receivers:
                total += size_units * row[receiver]
            self.control_cost = total
        tracer = current_tracer()
        if tracer.enabled:
            self._stamp(tracer, first, lost)

    def _stamp(self, tracer: Tracer, first: int, lost: Sequence[bool]) -> None:
        """Stamp rows ``first, first+1, ...`` for ``tracer``.

        The rows of one call share the parent span, time and ring
        position; their ids are consecutive in row order, two per
        delivered message (send, then receive) and one per lost one.
        """
        segment = self._segment
        if segment is None or tracer.last_source is not segment:
            segment = self._segment = _TracedRows(self, tracer)
            tracer.attach(segment)
        count = len(lost)
        delivered = count - sum(lost)
        first_id, parent, now, position = tracer.stamp(count + delivered)
        self._stamps.append(
            _Stamp(first, count, first_id, parent, now, position)
        )
        segment.stop += 1
        segment.records += count + delivered

    def _lamport(self) -> Tuple[array, array]:
        """Send and receive clocks of the traced rows (0: not received)."""
        clocks = self._clocks
        send_clock, recv_clock = self._send_clock, self._recv_clock
        sender, receiver, lost = self._sender, self._receiver, self._lost
        for stamp in self._stamps[self._clocked:]:
            for row in range(stamp.row, stamp.row + stamp.count):
                src, dst = sender[row], receiver[row]
                sent = clocks.get(src, 0) + 1
                clocks[src] = sent
                send_clock.append(sent)
                if lost[row]:
                    recv_clock.append(0)
                    continue
                received = max(clocks.get(dst, 0), sent) + 1
                clocks[dst] = received
                recv_clock.append(received)
        self._clocked = len(self._stamps)
        return send_clock, recv_clock

    def _traced_rows(self, start: int = 0, stop: Optional[int] = None):
        """``(traced index, row, record id, stamp)`` of stamps ``start..stop-1``."""
        t = sum(stamp.count for stamp in self._stamps[:start])
        for stamp in self._stamps[start:stop]:
            record_id = stamp.first_id
            for row in range(stamp.row, stamp.row + stamp.count):
                yield t, row, record_id, stamp
                t += 1
                record_id += 1 if self._lost[row] else 2

    def _trace_records(
        self, start: int, stop: int, pid: int
    ) -> Iterator[Tuple[int, Record]]:
        """The ``msg.*`` records of stamps ``start..stop-1``."""
        send_clock, recv_clock = self._lamport()
        for t, row, record_id, stamp in self._traced_rows(start, stop):
            src, dst = self._sender[row], self._receiver[row]
            kind = _KINDS[self._kind[row]].value
            lost = bool(self._lost[row])
            parent, time, position = stamp.parent, stamp.time, stamp.position
            flow = f"{src}->{dst}#{row}"
            yield position, {
                "type": EVENT,
                "id": record_id,
                "parent": parent,
                "name": SEND_EVENT,
                "time": time,
                "pid": pid,
                "attrs": {
                    "kind": kind,
                    "src": src,
                    "dst": dst,
                    "seq": row,
                    "clock": send_clock[t],
                    "size": self._size[row],
                    "lost": lost,
                    "flow": flow,
                    "flow_phase": "s",
                },
            }
            if lost:
                continue
            yield position, {
                "type": EVENT,
                "id": record_id + 1,
                "parent": parent,
                "name": RECV_EVENT,
                "time": time,
                "pid": pid,
                "attrs": {
                    "kind": kind,
                    "src": src,
                    "dst": dst,
                    "seq": row,
                    "clock": recv_clock[t],
                    "flow": flow,
                    "flow_phase": "f",
                },
            }

    @property
    def messages(self) -> List[Message]:
        """The log as :class:`Message` objects, built on every read."""
        send_clock, _recv = self._lamport()
        traced = {
            row: TraceContext(parent_span=stamp.parent, clock=send_clock[t])
            for t, row, _id, stamp in self._traced_rows()
        }
        return [
            Message(
                sender=sender,
                receiver=receiver,
                kind=_KINDS[code],
                size_units=size,
                payload=payload,
                trace=traced.get(row),
            )
            for row, (sender, receiver, code, size, payload) in enumerate(
                zip(
                    self._sender,
                    self._receiver,
                    self._kind,
                    self._size,
                    self._payload,
                )
            )
        ]

    @property
    def count_by_kind(self) -> Dict[MessageKind, int]:
        return dict(zip(_KINDS, self._counts))

    @property
    def total_messages(self) -> int:
        return len(self._payload)

    @property
    def control_messages(self) -> int:
        return self.total_messages - self._counts[_DATA]

    def summary(self) -> Dict[str, float]:
        return {
            "total_messages": float(self.total_messages),
            "control_messages": float(self.control_messages),
            "control_cost": self.control_cost,
            "data_cost": self.data_cost,
            **{
                f"count[{kind.value}]": float(count)
                for kind, count in self.count_by_kind.items()
            },
        }


class _Stamp(NamedTuple):
    """Tracing facts shared by the rows of one send call."""

    row: int  # first log row
    count: int
    first_id: int
    parent: Optional[int]
    time: float
    position: int  # the tracer's ring position


class _TracedRows:
    """A run of one log's stamps: an off-ring source of one tracer."""

    def __init__(self, log: MessageLog, tracer: Tracer) -> None:
        self._log = log
        self._pid = tracer.pid
        self.start = self.stop = len(log._stamps)
        self.records = 0

    def entries(self) -> Iterator[Tuple[int, Record]]:
        return self._log._trace_records(self.start, self.stop, self._pid)

    def __len__(self) -> int:
        return self.records


__all__ = [
    "MessageKind",
    "Message",
    "MessageLog",
    "TraceContext",
    "SEND_EVENT",
    "RECV_EVENT",
]
