"""Trace expansion: counts round-trip exactly, and the columnar trace
equals the sorted per-cell ``Request`` list it replaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.workload import (
    Request,
    WorkloadSpec,
    generate_instance,
    generate_trace,
)
from repro.workload.trace import READ, WRITE, Trace


@pytest.fixture(scope="module")
def instance():
    return generate_instance(
        WorkloadSpec(num_sites=6, num_objects=8, update_ratio=0.1,
                     capacity_ratio=0.2),
        rng=60,
    )


def test_trace_counts_roundtrip(instance):
    trace = generate_trace(instance, rng=1)
    shape = (instance.num_sites, instance.num_objects)
    reads = np.zeros(shape, dtype=np.int64)
    writes = np.zeros(shape, dtype=np.int64)
    np.add.at(reads, (trace.site[~trace.write], trace.obj[~trace.write]), 1)
    np.add.at(writes, (trace.site[trace.write], trace.obj[trace.write]), 1)
    assert np.array_equal(reads, np.rint(instance.reads).astype(np.int64))
    assert np.array_equal(writes, np.rint(instance.writes).astype(np.int64))


def test_trace_sorted_by_time(instance):
    trace = generate_trace(instance, rng=2)
    times = [r.time for r in trace]
    assert times == sorted(times)


def test_trace_times_within_duration(instance):
    trace = generate_trace(instance, duration=5.0, rng=3)
    assert all(0.0 <= r.time < 5.0 for r in trace)


def test_trace_deterministic(instance):
    assert generate_trace(instance, rng=4) == generate_trace(instance, rng=4)


def test_trace_length(instance):
    trace = generate_trace(instance, rng=5)
    expected = int(instance.reads.sum() + instance.writes.sum())
    assert len(trace) == expected


def test_invalid_duration(instance):
    with pytest.raises(ValidationError):
        generate_trace(instance, duration=0.0)


@pytest.mark.parametrize(
    "duration", [-1.0, float("nan"), float("inf"), float("-inf")]
)
def test_non_finite_or_negative_duration_rejected(instance, duration):
    with pytest.raises(ValidationError, match="finite and > 0"):
        generate_trace(instance, duration=duration)


def _reference_trace(instance, gen, duration=1.0):
    """One ``uniform`` draw per read cell, then per write cell, sorted."""
    requests = []
    for kind, counts in ((READ, instance.reads), (WRITE, instance.writes)):
        counts = np.rint(counts).astype(np.int64)
        for site, obj in zip(*np.nonzero(counts)):
            for t in gen.uniform(0.0, duration, size=int(counts[site, obj])):
                requests.append(Request(float(t), int(site), int(obj), kind))
    requests.sort()
    return requests


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("duration", [1.0, 7.5])
def test_trace_equals_per_cell_reference(seed, duration):
    instance = generate_instance(
        WorkloadSpec(num_sites=5 + seed, num_objects=7 + 2 * seed,
                     update_ratio=0.25),
        rng=seed,
    )
    columnar = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    trace = generate_trace(instance, duration=duration, rng=columnar)
    assert isinstance(trace, Trace)
    assert list(trace) == _reference_trace(instance, scalar, duration)
    # the generator is left where the per-cell draws leave it
    assert columnar.random() == scalar.random()


class TestTrace:
    def test_len_and_index(self, instance):
        trace = generate_trace(instance, rng=6)
        requests = list(trace)
        assert len(trace) == len(requests)
        assert trace[0] == requests[0]
        assert trace[-1] == requests[-1]

    def test_from_requests_round_trip(self, instance):
        trace = generate_trace(instance, rng=7)
        assert Trace.from_requests(list(trace)) == trace
        assert Trace.from_requests(trace) is trace
        assert len(Trace.from_requests([])) == 0

    def test_columns_are_read_only(self, instance):
        trace = generate_trace(instance, rng=8)
        with pytest.raises(ValueError):
            trace.time[0] = 0.0

    def test_unequal_traces(self, instance):
        assert generate_trace(instance, rng=1) != generate_trace(instance, rng=2)
        assert generate_trace(instance, rng=1) != list(
            generate_trace(instance, rng=1)
        )

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValidationError):
            Trace([0.0, 1.0], [0], [0], [False])

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_negative_or_nan_time_rejected(self, bad):
        # a NaN time would never reach a fault transition in replay
        with pytest.raises(ValidationError):
            Trace([0.5, bad], [0, 0], [0, 0], [False, True])
        with pytest.raises(ValidationError):
            Request(bad, 0, 3, READ)


class TestRequest:
    def test_valid(self):
        req = Request(1.0, 0, 3, READ)
        assert req.kind == READ

    def test_invalid_kind(self):
        with pytest.raises(ValidationError):
            Request(1.0, 0, 3, "update")

    def test_negative_time(self):
        with pytest.raises(ValidationError):
            Request(-1.0, 0, 3, WRITE)

    def test_ordering_by_time(self):
        early = Request(0.5, 1, 1, READ)
        late = Request(1.5, 0, 0, READ)
        assert early < late
