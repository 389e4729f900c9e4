"""Message fabric accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import Message, MessageKind, MessageLog
from repro.errors import ValidationError


COST = np.array([[0.0, 2.0], [2.0, 0.0]])


def test_message_validation():
    with pytest.raises(ValidationError):
        Message(0, 1, MessageKind.TOKEN, size_units=-1.0)


def test_log_counts_by_kind():
    log = MessageLog(COST)
    log.record(Message(0, 1, MessageKind.TOKEN))
    log.record(Message(1, 0, MessageKind.TOKEN_RETURN))
    log.record(Message(0, 1, MessageKind.OBJECT_TRANSFER, size_units=5.0))
    assert log.total_messages == 3
    assert log.control_messages == 2
    assert log.count_by_kind[MessageKind.TOKEN] == 1
    assert log.count_by_kind[MessageKind.OBJECT_TRANSFER] == 1


def test_log_cost_weighting():
    log = MessageLog(COST)
    log.record(Message(0, 1, MessageKind.OBJECT_TRANSFER, size_units=5.0))
    assert log.data_cost == pytest.approx(10.0)  # 5 units * cost 2
    log.record(Message(0, 1, MessageKind.STATS, size_units=1.0))
    assert log.control_cost == pytest.approx(2.0)


def test_zero_size_control_messages_free():
    log = MessageLog(COST)
    log.record(Message(0, 1, MessageKind.REPLICATE, size_units=0.0))
    assert log.control_cost == 0.0
    assert log.control_messages == 1


def test_summary_keys():
    log = MessageLog(COST)
    log.record(Message(0, 1, MessageKind.TOKEN))
    summary = log.summary()
    assert summary["total_messages"] == 1.0
    assert "count[token]" in summary
    assert "control_cost" in summary


WAXMAN_COST = np.array(
    [[0.0, 0.1, 0.7], [0.1, 0.0, 0.3], [0.7, 0.3, 0.0]]
)


def test_send_many_equals_one_send_per_receiver():
    one, many = MessageLog(WAXMAN_COST), MessageLog(WAXMAN_COST)
    lost = [False, True]
    for receiver, was_lost in zip((1, 2), lost):
        one.send(0, receiver, MessageKind.REPLICATE, 0.3, (4, 0), was_lost)
    many.send_many(0, [1, 2], MessageKind.REPLICATE, 0.3, (4, 0), lost)
    for log in (one, many):
        log.send(2, 1, MessageKind.OBJECT_TRANSFER, 1.7, 4)
    assert one.messages == many.messages
    assert one.summary() == many.summary()
    # priced in recording order: 0.3*0.1 + 0.3*0.7, not a regrouped sum
    assert many.control_cost == 0.3 * 0.1 + 0.3 * 0.7
    assert many.data_cost == 1.7 * 0.3


def test_negative_size_is_rejected_before_recording():
    log = MessageLog(COST)
    with pytest.raises(ValidationError):
        log.send(0, 1, MessageKind.TOKEN, -1.0)
    with pytest.raises(ValidationError):
        log.send_many(0, [1], MessageKind.TOKEN, -0.5, None, [False])
    assert log.total_messages == 0 and log.messages == []


def test_messages_view_carries_trace_contexts():
    from repro.runtime import scoped_tracer

    untraced = MessageLog(COST)
    untraced.send(0, 1, MessageKind.TOKEN)
    with scoped_tracer() as tracer:
        log = MessageLog(COST)
        with tracer.span("round") as span:
            log.send(0, 1, MessageKind.TOKEN)
            log.send_many(1, [0, 0], MessageKind.TOKEN_RETURN, 0.0, True,
                          [True, False])
    assert untraced.messages[0].trace is None
    contexts = [(m.trace.parent_span, m.trace.clock) for m in log.messages]
    # Lamport: 0 sends (1), 1 receives (2), sends twice (3, lost; 4)
    assert contexts == [(span.id, 1), (span.id, 3), (span.id, 4)]
    records = [r for r in tracer.records() if r["type"] == "event"]
    assert [(r["name"], r["attrs"]["clock"]) for r in records] == [
        ("msg.send", 1), ("msg.recv", 2), ("msg.send", 3),
        ("msg.send", 4), ("msg.recv", 5),
    ]
    assert [r["id"] for r in records] == sorted(r["id"] for r in records)


def test_interleaved_logs_keep_recording_order():
    from repro.runtime import scoped_tracer

    with scoped_tracer() as tracer:
        first, second = MessageLog(COST), MessageLog(COST)
        first.send(0, 1, MessageKind.STATS)
        second.send(1, 0, MessageKind.ELECTION)
        tracer.event("between")
        first.send(0, 1, MessageKind.TOKEN)
        second.send(1, 0, MessageKind.TOKEN)
    kinds = [
        (r["name"], r["attrs"].get("kind"), r["attrs"].get("seq"))
        for r in tracer.records()
    ]
    assert kinds == [
        ("msg.send", "stats", 0), ("msg.recv", "stats", 0),
        ("msg.send", "election", 0), ("msg.recv", "election", 0),
        ("between", None, None),
        ("msg.send", "token", 1), ("msg.recv", "token", 1),
        ("msg.send", "token", 1), ("msg.recv", "token", 1),
    ]
