"""The segment replay equals the per-request protocol, bit for bit.

``ReplicaSystem.replay`` prices each fault segment of a trace with array
operations under the primary-broadcast strategy.  The reference is the
per-request protocol itself: one ``FaultInjector.advance_to`` and one
``handle_request`` per request, then ``drain``.  Every accumulator, counter, histogram (bucket order
included), the freshness matrix and the failed set must match exactly.

Costs come from Waxman shortest paths, so they are non-integer and any
change in summation order would show.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReplicationScheme
from repro.errors import ValidationError
from repro.network import waxman_topology
from repro.sim import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    PartitionWindow,
    ReplicaSystem,
)
from repro.sim import protocol
from repro.workload import WorkloadSpec, generate_instance, generate_trace
from repro.workload.trace import Trace
from tests.strategies import float_instances, instances_with_schemes

SETTINGS = settings(max_examples=40, deadline=None)


def _window(draw, times):
    """A window whose ends may fall exactly on request ``times``."""
    moment = st.floats(0.0, 0.9, allow_nan=False)
    if times:
        moment = st.one_of(moment, st.sampled_from(times))
    start = draw(moment)
    if draw(st.booleans()):
        return start, None
    later = [t for t in times if t > start]
    if later and draw(st.booleans()):
        return start, draw(st.sampled_from(later))
    return start, start + draw(st.floats(0.01, 0.8, allow_nan=False))


@st.composite
def fault_plans(draw, instance, times=()):
    """Crashes (primaries favoured), partitions and degraded or severed
    links over an ``instance``-sized system.

    Window starts and ends can land exactly on one of the request
    ``times``, where a transition must apply before the requests at its
    timestamp.
    """
    times = sorted(set(times))
    m = instance.num_sites
    primaries = sorted({int(p) for p in instance.primaries})
    sites = st.one_of(st.sampled_from(primaries), st.integers(0, m - 1))
    crashes = []
    for _ in range(draw(st.integers(0, 3))):
        start, end = _window(draw, times)
        crashes.append(CrashWindow(draw(sites), start, end))
    degradations = []
    for _ in range(draw(st.integers(0, 3))):
        src = draw(sites)
        dst = draw(st.integers(0, m - 1).filter(lambda d: d != src))
        factor = draw(st.sampled_from([math.inf, 0.5, 3.0, 7.25]))
        start, end = _window(draw, times)
        degradations.append(LinkDegradation(
            src, dst, factor, start, end, symmetric=draw(st.booleans())
        ))
    partitions = []
    for _ in range(draw(st.integers(0, 2))):
        # a group that holds a primary cuts it off from its replicas
        group = draw(st.sets(sites, min_size=1, max_size=m - 1))
        start, end = _window(draw, times)
        partitions.append(PartitionWindow(tuple(sorted(group)), start, end))
    return FaultPlan(tuple(crashes), tuple(degradations), tuple(partitions))


def _state(system: ReplicaSystem):
    m = system.metrics
    return {
        "ntc_by_cause": m.ntc_by_cause,
        "ntc_by_site": m.ntc_by_site.tobytes(),
        "ntc_by_object": m.ntc_by_object.tobytes(),
        "counters": (
            m.transfers, m.local_reads, m.rejected_reads,
            m.rejected_writes, m.served_stale,
        ),
        "read_latencies": m.read_latencies.to_dict(),
        "read_buckets": list(m.read_latencies.to_dict()["buckets"]),
        "write_latencies": m.write_latencies.to_dict(),
        "write_buckets": list(m.write_latencies.to_dict()["buckets"]),
        "fault_events": m.fault_events,
        "valid": system._valid.tobytes(),
        "failed": system.failed_sites,
    }


def _reference(system: ReplicaSystem, trace, plan) -> None:
    injector = None if plan is None else FaultInjector(plan)
    for request in trace:
        if injector is not None:
            injector.advance_to(request.time, system)
        system.handle_request(request)
    if injector is not None:
        injector.drain(system)


def _assert_replays_agree(instance, scheme, trace, plan, fraction, down=()):
    systems = []
    for _ in range(2):
        system = ReplicaSystem(instance, scheme, update_fraction=fraction)
        for site in down:
            system.fail_site(site)
        systems.append(system)
    columnar, scalar = systems
    columnar.replay(trace, injector=None if plan is None else FaultInjector(plan))
    _reference(scalar, trace, plan)
    mine, theirs = _state(columnar), _state(scalar)
    for key in theirs:
        assert mine[key] == theirs[key], key


@SETTINGS
@given(float_instances(), st.data())
def test_segment_replay_equals_request_loop(triple, data):
    instance, scheme, drawn_fraction = triple
    fraction = data.draw(st.sampled_from([0.0, 0.5, 1.0, drawn_fraction]))
    trace = generate_trace(instance, rng=data.draw(st.integers(0, 2**16)))
    times = trace.time.tolist()
    plan = data.draw(st.one_of(st.none(), fault_plans(instance, times)))
    down = data.draw(st.sets(st.integers(0, instance.num_sites - 1), max_size=2))
    _assert_replays_agree(instance, scheme, trace, plan, fraction, sorted(down))


@settings(max_examples=15, deadline=None)
@given(instances_with_schemes(), st.data())
def test_chunked_replay_equals_request_loop(pair, data):
    instance, scheme = pair
    trace = generate_trace(instance, rng=data.draw(st.integers(0, 2**16)))
    plan = data.draw(fault_plans(instance, trace.time.tolist()))
    chunk = data.draw(st.integers(1, 9))
    original = protocol.REPLAY_CHUNK
    protocol.REPLAY_CHUNK = chunk
    try:
        _assert_replays_agree(instance, scheme, trace, plan, 1.0)
    finally:
        protocol.REPLAY_CHUNK = original


def _float_instance(num_sites, num_objects, seed, scale=1):
    """A Waxman-cost instance (non-integer costs) with ``scale`` x traffic,
    and a scheme of its primaries plus a few replicas."""
    rng = np.random.default_rng(seed)
    cost = waxman_topology(num_sites, alpha=0.9, beta=0.9, rng=rng).cost_matrix()
    instance = generate_instance(
        WorkloadSpec(num_sites=num_sites, num_objects=num_objects,
                     update_ratio=0.3, capacity_ratio=0.4),
        rng=rng, cost=cost,
    )
    instance = instance.with_patterns(
        instance.reads * scale, instance.writes * scale
    )
    scheme = ReplicationScheme.primary_only(instance)
    for _ in range(3 * num_objects):
        site = int(rng.integers(num_sites))
        obj = int(rng.integers(num_objects))
        if not scheme.holds(site, obj) and (
            scheme.remaining_capacity()[site] >= instance.sizes[obj]
        ):
            scheme.add_replica(site, obj)
    return instance, scheme


@pytest.fixture(scope="module")
def float_pair():
    return _float_instance(8, 10, seed=3)


def test_empty_trace(float_pair):
    instance, scheme = float_pair
    plan = FaultPlan(crashes=(CrashWindow(0, 0.1, 0.2),))
    empty = Trace((), (), (), ())
    _assert_replays_agree(instance, scheme, empty, plan, 1.0)
    _assert_replays_agree(instance, scheme, [], None, 1.0)


def test_list_of_requests_input(float_pair):
    instance, scheme = float_pair
    requests = list(generate_trace(instance, rng=5))
    # reversed: out of time order, so segments follow the running maximum
    for trace in (requests, requests[::-1]):
        plan = FaultPlan(
            crashes=(CrashWindow(int(instance.primaries[0]), 0.3, 0.6),),
            partitions=(PartitionWindow((1, 2), 0.2, 0.5),),
        )
        _assert_replays_agree(instance, scheme, trace, plan, 1.0)


@pytest.mark.parametrize(
    "window, rejected",
    [((0.5, None), (1, 1)), ((0.25, 0.5), (1, 0)), ((0.3, 0.5), (0, 0))],
)
def test_transition_applies_before_requests_at_its_time(
    float_pair, window, rejected
):
    """A crash starting at t rejects the requests at t; one ending at t
    lets them through."""
    instance, scheme = float_pair
    site, obj = 0, 0
    trace = Trace([0.25, 0.5, 0.5], [site] * 3, [obj] * 3, [False, False, True])
    plan = FaultPlan(crashes=(CrashWindow(site, *window),))
    _assert_replays_agree(instance, scheme, trace, plan, 1.0)
    system = ReplicaSystem(instance, scheme)
    system.replay(trace, injector=FaultInjector(plan))
    metrics = system.metrics
    assert (metrics.rejected_reads, metrics.rejected_writes) == rejected


def test_trace_longer_than_one_chunk():
    instance, scheme = _float_instance(10, 40, seed=12, scale=3)
    trace = generate_trace(instance, rng=13)
    assert len(trace) > protocol.REPLAY_CHUNK
    plan = FaultPlan(
        crashes=(CrashWindow(2, 0.25, 0.75),),
        degradations=(LinkDegradation(0, 3, math.inf, 0.1, 0.4),),
        partitions=(PartitionWindow((int(instance.primaries[5]),), 0.5, 0.9),),
    )
    _assert_replays_agree(instance, scheme, trace, plan, 0.5)


def test_out_of_range_request_rejected(float_pair):
    instance, scheme = float_pair
    system = ReplicaSystem(instance, scheme)
    bad = Trace([0.1], [instance.num_sites], [0], [False])
    with pytest.raises(ValidationError):
        system.replay(bad)
    assert system.metrics.transfers == 0
    assert np.array_equal(system._valid, np.ones_like(system._valid))
