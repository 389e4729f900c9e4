"""Deterministic profiler: decimation, formats, bit-reproducibility."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.utils.profiler import (
    IDLE_FRAME,
    PROFILER,
    DeterministicProfiler,
    current_profiler,
)
from repro.runtime import RunContext
from repro.utils.tracing import TRACER, Tracer


def test_tick_captures_open_span_stack():
    tracer = Tracer()
    profiler = DeterministicProfiler(tracer=tracer)
    with tracer.span("outer"):
        with tracer.span("inner"):
            profiler.tick()
        profiler.tick()
    assert profiler.stacks() == {
        ("outer", "inner"): 1,
        ("outer",): 1,
    }
    assert profiler.collapsed() == "outer 1\nouter;inner 1"


def test_idle_frame_when_no_span_open():
    profiler = DeterministicProfiler(tracer=Tracer())
    profiler.tick()
    assert profiler.stacks() == {(IDLE_FRAME,): 1}


def test_sample_every_decimates_exactly():
    tracer = Tracer()
    profiler = DeterministicProfiler(sample_every=10, tracer=tracer)
    with tracer.span("work"):
        for _ in range(25):
            profiler.tick()
    assert profiler.ticks == 25
    assert profiler.samples == 2  # crossings at 10 and 20
    # A coarse site reporting many ticks at once contributes
    # proportionally many samples.
    with tracer.span("bulk"):
        profiler.tick(count=40)
    assert profiler.samples == 6
    assert profiler.stacks()[("bulk",)] == 4


def test_tick_validation_and_disabled_noop():
    profiler = DeterministicProfiler(tracer=Tracer())
    with pytest.raises(ValidationError):
        profiler.tick(count=0)
    with pytest.raises(ValidationError):
        DeterministicProfiler(sample_every=0)
    disabled = DeterministicProfiler(enabled=False)
    disabled.tick(1000)
    assert disabled.samples == 0 and disabled.ticks == 0


def test_self_weights_and_render():
    tracer = Tracer()
    profiler = DeterministicProfiler(tracer=tracer)
    with tracer.span("a"):
        profiler.tick(3)
        with tracer.span("b"):
            profiler.tick(5)
    assert profiler.self_weights() == {"a": 3, "b": 5}
    block = profiler.render(top=1)
    assert "8 samples" in block
    assert "b: 5" in block


def test_write_formats(tmp_path):
    tracer = Tracer()
    profiler = DeterministicProfiler(tracer=tracer)
    with tracer.span("phase"):
        profiler.tick(4)
    collapsed = tmp_path / "p.collapsed"
    profiler.write(str(collapsed))
    assert collapsed.read_text() == "phase 4\n"

    speedscope = tmp_path / "p.speedscope.json"
    profiler.write(str(speedscope), format="speedscope")
    doc = json.loads(speedscope.read_text())
    assert doc["profiles"][0]["type"] == "sampled"
    assert doc["profiles"][0]["weights"] == [4]
    assert doc["shared"]["frames"] == [{"name": "phase"}]
    assert sum(doc["profiles"][0]["weights"]) == doc["profiles"][0][
        "endValue"
    ]

    with pytest.raises(ValidationError):
        profiler.write(str(collapsed), format="pprof")


def test_run_context_couples_profiler_and_tracer():
    with RunContext(profile=True, profile_every=2).activate() as ctx:
        assert current_profiler() is ctx.profiler
        assert ctx.profiler.sample_every == 2
        assert TRACER.recorder is not None, "profiling needs the span stack"
    assert TRACER.recorder is None
    assert PROFILER.recorder is None


def _profiled_run() -> str:
    """One fixed seeded GRA solve + sim replay under a fresh profiler."""
    from repro.algorithms import GAParams, GRA
    from repro.sim import ReplicaSystem
    from repro.workload import WorkloadSpec, generate_instance
    from repro.workload.trace import generate_trace

    # a profiling context also installs the tracer whose stack it samples
    with RunContext(profile=True).activate() as ctx:
        instance = generate_instance(
            WorkloadSpec(num_sites=8, num_objects=12), rng=21
        )
        result = GRA(
            GAParams(generations=6, population_size=12), rng=4
        ).run(instance)
        trace = generate_trace(instance, duration=0.5, rng=13)
        system = ReplicaSystem(instance, result.scheme)
        with ctx.tracer.span("sim.run"):
            system.replay(trace)
            ctx.profiler.tick(len(trace))
        return ctx.profiler.collapsed()


def test_identical_seeded_runs_produce_identical_profiles():
    """The headline determinism contract: byte-identical collapsed
    stacks from two identical seeded runs."""
    first = _profiled_run()
    second = _profiled_run()
    assert first == second
    assert first.strip(), "profile must not be empty"
    assert "sim.run" in first
    assert "gra.generation" in first
