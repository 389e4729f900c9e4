"""Distributed SRA: equivalence with the centralised algorithm and
message-complexity accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.distributed import (
    DistributedSRA,
    MessageKind,
    MessageLog,
    RetryPolicy,
)
from repro.distributed.node import LeaderNode, SiteNode
from repro.errors import (
    ProtocolError,
    RetryExhaustedError,
    ValidationError,
)
from repro.obs.causal import RECV_EVENT, SEND_EVENT
from repro.runtime import scoped_ledger, scoped_tracer
from repro.sim.faults import CrashWindow, FaultPlan, MessageFaultSpec
from repro.utils.tracing import DEFAULT_CAPACITY
from repro.workload import WorkloadSpec, generate_instance

#: wall-clock fields of a trace record; everything else is deterministic
_CLOCK_FIELDS = ("start", "end", "time")


@pytest.mark.parametrize("seed", [1, 7, 23, 42])
def test_matches_centralised_sra(seed):
    inst = generate_instance(
        WorkloadSpec(num_sites=10, num_objects=18, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=seed,
    )
    central = SRA().run(inst)
    distributed = DistributedSRA().run(inst)
    assert np.array_equal(
        central.scheme.matrix, distributed.scheme.matrix
    )


def test_message_accounting(small_instance):
    report = DistributedSRA().run(small_instance)
    log = report.log
    m = small_instance.num_sites
    # one STATS per site
    assert log.count_by_kind[MessageKind.STATS] == m
    # one TOKEN and one TOKEN_RETURN per round
    assert log.count_by_kind[MessageKind.TOKEN] == report.token_rounds
    assert (
        log.count_by_kind[MessageKind.TOKEN_RETURN] == report.token_rounds
    )
    # each replication broadcasts to M-1 sites and ships one payload
    assert log.count_by_kind[MessageKind.REPLICATE] == (
        report.replications * (m - 1)
    )
    assert (
        log.count_by_kind[MessageKind.OBJECT_TRANSFER]
        == report.replications
    )


def test_replication_count_matches_scheme(small_instance):
    report = DistributedSRA().run(small_instance)
    assert report.replications == report.scheme.extra_replicas()


def test_data_cost_accounts_payload_sizes(small_instance):
    report = DistributedSRA().run(small_instance)
    assert report.log.data_cost >= 0.0
    if report.replications:
        assert report.log.data_cost > 0.0
    # control traffic is free in cost units (size 0), just counted
    assert report.log.control_cost == 0.0


def test_leader_site_configurable(small_instance):
    report = DistributedSRA(leader_site=2).run(small_instance)
    stats_msgs = [
        msg
        for msg in report.log.messages
        if msg.kind is MessageKind.STATS
    ]
    assert all(msg.sender == 2 for msg in stats_msgs)


def test_invalid_leader_rejected(small_instance):
    with pytest.raises(ValidationError):
        DistributedSRA(leader_site=99).run(small_instance)


def test_round_limit_guards_termination(small_instance):
    with pytest.raises(ProtocolError):
        DistributedSRA(max_rounds=1).run(small_instance)


def test_summary_keys(small_instance):
    report = DistributedSRA().run(small_instance)
    summary = report.summary()
    assert "token_rounds" in summary
    assert "replications" in summary
    assert "total_messages" in summary


@pytest.mark.parametrize(
    "sites, objects, seed, leader",
    [(12, 30, 0, 0), (10, 20, 3, 4), (30, 80, 5, 0), (40, 200, 7, 0)],
)
def test_fault_free_message_identity(sites, objects, seed, leader):
    """M STATS, a TOKEN and a TOKEN_RETURN per round, and per replication
    one OBJECT_TRANSFER plus M - 1 REPLICATE: nothing lost or resent."""
    instance = generate_instance(
        WorkloadSpec(num_sites=sites, num_objects=objects), rng=seed
    )
    with scoped_tracer(capacity=1_000_000) as tracer:
        report = DistributedSRA(leader_site=leader).run(instance)
        sends = [
            r for r in tracer.records()
            if r["type"] == "event" and r["name"] == SEND_EVENT
        ]
        assert tracer.dropped == 0
    assert report.log.total_messages == (
        sites + 2 * report.token_rounds + report.replications * sites
    )
    assert len(sends) == report.log.total_messages
    assert not any(r["attrs"]["lost"] for r in sends)
    assert report.retries == report.duplicates == report.elections == 0
    assert report.log.count_by_kind[MessageKind.ELECTION] == 0
    assert report.suspected_sites == []
    assert report.leader_history == [leader]


class TestHardenedProtocol:
    def test_default_run_is_the_empty_plan_run(self, small_instance):
        def observed(protocol):
            with scoped_tracer() as tracer, scoped_ledger() as ledger:
                report = protocol.run(small_instance)
                records = [
                    {k: v for k, v in r.items() if k not in _CLOCK_FIELDS}
                    for r in tracer.records()
                ]
                entries = ledger.entries()
            messages = [
                (m.sender, m.receiver, m.kind, m.size_units, m.payload)
                for m in report.log.messages
            ]
            return report, messages, records, entries

        report, messages, records, entries = observed(DistributedSRA())
        plain, plain_messages, plain_records, plain_entries = observed(
            DistributedSRA(fault_plan=FaultPlan())
        )
        assert np.array_equal(report.scheme.matrix, plain.scheme.matrix)
        assert report.summary() == plain.summary()
        assert report.leader_history == plain.leader_history
        assert report.suspected_sites == plain.suspected_sites
        assert messages == plain_messages
        assert records == plain_records
        assert entries == plain_entries
        assert records and entries

    def test_leader_crash_triggers_exactly_one_election(
        self, small_instance
    ):
        plan = FaultPlan(crashes=(CrashWindow(site=0, start=2.0),))
        report = DistributedSRA(leader_site=0, fault_plan=plan).run(
            small_instance
        )
        assert report.elections == 1
        assert report.leader_history == [0, 1]  # lowest alive site wins
        election_msgs = [
            m
            for m in report.log.messages
            if m.kind is MessageKind.ELECTION
        ]
        assert election_msgs
        assert all(m.sender == 1 for m in election_msgs)

    def test_retry_gives_up_with_typed_error(self, small_instance):
        plan = FaultPlan(messages=MessageFaultSpec(loss=1.0), seed=3)
        algo = DistributedSRA(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=4, on_exhaust="raise"),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            algo.run(small_instance)
        assert excinfo.value.attempts == 4

    def test_retry_suspects_unresponsive_sites_by_default(
        self, small_instance
    ):
        plan = FaultPlan(messages=MessageFaultSpec(loss=1.0), seed=3)
        report = DistributedSRA(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        ).run(small_instance)
        assert report.suspected_sites  # every peer drops off eventually
        assert report.retries > 0
        assert report.total_backoff > 0.0

    def test_lossy_run_is_deterministic(self, small_instance):
        plan = FaultPlan(
            messages=MessageFaultSpec(loss=0.2, duplicate=0.1), seed=7
        )
        reports = [
            DistributedSRA(fault_plan=plan).run(small_instance)
            for _ in range(2)
        ]
        assert reports[0].summary() == reports[1].summary()
        assert np.array_equal(
            reports[0].scheme.matrix, reports[1].scheme.matrix
        )

    def test_crash_and_recovery_resyncs_site(self, small_instance):
        # site 3 is down for rounds [2, 6) and then rejoins
        plan = FaultPlan(crashes=(CrashWindow(site=3, start=2.0, end=6.0),))
        report = DistributedSRA(fault_plan=plan).run(small_instance)
        central = SRA().run(small_instance)
        # the run still terminates with a capacity-feasible scheme and
        # no more replicas than the undisturbed greedy places
        assert report.scheme.extra_replicas() <= central.scheme.extra_replicas()
        resync_stats = [
            m
            for m in report.log.messages
            if m.kind is MessageKind.STATS and m.receiver == 3
        ]
        assert len(resync_stats) >= 2  # initial distribution + resync


def _stamp_onto_ring(log, tracer, first, lost):
    """Record a send call the way the log did before it kept columns:
    ``msg.send``/``msg.recv`` events appended to the tracer's ring as the
    messages go out, Lamport clocks kept on the way."""
    clocks = log.__dict__.setdefault("_reference_clocks", {})
    for row, was_lost in zip(range(first, first + len(lost)), lost):
        src, dst = log._sender[row], log._receiver[row]
        kind = list(MessageKind)[log._kind[row]].value
        sent = clocks.get(src, 0) + 1
        clocks[src] = sent
        flow = f"{src}->{dst}#{row}"
        tracer.event(
            SEND_EVENT, kind=kind, src=src, dst=dst, seq=row, clock=sent,
            size=float(log._size[row]), lost=bool(was_lost), flow=flow,
            flow_phase="s",
        )
        if was_lost:
            continue
        received = max(clocks.get(dst, 0), sent) + 1
        clocks[dst] = received
        tracer.event(
            RECV_EVENT, kind=kind, src=src, dst=dst, seq=row,
            clock=received, flow=flow, flow_phase="f",
        )


class TestTracedChaos:
    """The ``dsra-chaos`` run traced at the default ring capacity."""

    PLAN = FaultPlan(
        crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
        messages=MessageFaultSpec(loss=0.1, duplicate=0.05),
        seed=9,
    )

    @staticmethod
    def _observed(report):
        return (
            report.scheme.matrix.tobytes(),
            report.summary(),
            report.leader_history,
            [
                (m.sender, m.receiver, m.kind, m.size_units, m.payload)
                for m in report.log.messages
            ],
        )

    def test_messages_stay_off_the_ring(self, monkeypatch):
        instance = generate_instance(
            WorkloadSpec(40, 200, update_ratio=0.01, capacity_ratio=2.0),
            rng=7,
        )
        protocol = DistributedSRA(
            fault_plan=self.PLAN, retry=RetryPolicy(max_attempts=5)
        )
        untraced = protocol.run(instance)
        with scoped_tracer() as tracer:
            report = protocol.run(instance)
            records = tracer.records()
        assert tracer.capacity == DEFAULT_CAPACITY
        assert tracer.dropped == 0
        sends = [r for r in records if r["name"] == SEND_EVENT]
        assert len(sends) == report.log.total_messages > DEFAULT_CAPACITY / 2
        assert self._observed(report) == self._observed(untraced)

        # the same run with every message on a ring large enough to keep
        # them all, as the log recorded them before
        monkeypatch.setattr(MessageLog, "_stamp", _stamp_onto_ring)
        with scoped_tracer(capacity=1_000_000) as ring_tracer:
            protocol.run(instance)
            ring_records = ring_tracer.records()
        assert ring_tracer.dropped == 0
        assert len(ring_records) == len(records) > DEFAULT_CAPACITY

        def stripped(rs):
            return [
                {k: v for k, v in r.items() if k not in _CLOCK_FIELDS + ("pid",)}
                for r in rs
            ]

        assert stripped(records) == stripped(ring_records)


class TestNodes:
    def test_site_node_requires_stats(self, small_instance):
        node = SiteNode(0, small_instance)
        with pytest.raises(ProtocolError):
            node.benefit(0)

    def test_leader_round_robin(self):
        leader = LeaderNode(0, 3)
        order = []
        for _ in range(6):
            order.append(leader.next_site())
            leader.advance()
        assert order == [0, 1, 2, 0, 1, 2]

    def test_leader_retire(self):
        leader = LeaderNode(0, 3)
        leader.retire(1)
        assert leader.active == [0, 2]
        leader.retire(0)
        leader.retire(2)
        assert leader.done
        assert leader.next_site() is None
