"""RunContext lifecycle, contextvar scoping, and fork determinism.

The headline contract: a sweep run serially and the same sweep fanned
out over N worker processes produce bit-identical solver results,
bit-identical (normalised) traces, and identical telemetry families —
because every worker task derives its RNG and tracer from a
deterministic ``RunContext.fork`` child.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import (
    RunContext,
    ambient_context,
    configure_parallelism,
    current_context,
    default_registry,
    resolve_max_workers,
)
from repro.runtime.context import RECORDERS
from repro.utils.metrics import METRICS, MetricsRegistry
from repro.utils.telemetry import TELEMETRY, current_sink
from repro.utils.tracing import TRACER, current_tracer


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
def test_install_teardown_owns_everything():
    ctx = RunContext(
        trace=True, profile=True, telemetry=True, metrics=True, ledger=True
    )
    assert current_context() is None
    with ctx.activate():
        assert current_context() is ctx
        assert all(slot.recorder is not None for slot in RECORDERS)
        assert ctx.tracer.enabled
        assert ctx.sink.enabled
        assert ctx.ledger.enabled
        assert ctx.profiler.enabled
        assert ctx.metrics is METRICS.recorder
    assert current_context() is None
    assert all(slot.recorder is None for slot in RECORDERS)


def test_teardown_is_idempotent_and_adopts_preinstalled():
    with RunContext(trace=True).activate() as outer:
        pre = outer.tracer
        ctx = RunContext(trace=True)
        ctx.install()
        assert ctx.tracer is pre, "existing tracer is adopted, not replaced"
        ctx.teardown()
        ctx.teardown()  # second teardown is a no-op
        assert TRACER.recorder is pre, "adopted components are left in place"
    assert TRACER.recorder is None


def test_adopted_sink_gets_the_context_registry():
    with RunContext(telemetry=True).activate() as outer:
        assert outer.sink.registry is None
        with RunContext(telemetry=True, metrics=True).activate() as ctx:
            assert ctx.sink is outer.sink, "the installed sink is adopted"
            assert ctx.sink.registry is ctx.metrics is METRICS.recorder
        assert TELEMETRY.recorder is outer.sink
        assert METRICS.recorder is None, "the registry was the inner's own"
    # a sink that already reports a registry keeps it
    registry = MetricsRegistry()
    with RunContext(telemetry=True, registry=registry).activate() as outer:
        with RunContext(telemetry=True, metrics=True).activate() as ctx:
            assert ctx.sink is outer.sink
            assert ctx.sink.registry is registry


def test_double_install_rejected_and_installed_not_picklable():
    ctx = RunContext()
    with ctx.activate():
        with pytest.raises(ValidationError):
            ctx.install()
        with pytest.raises(ValidationError):
            pickle.dumps(ctx)
    # uninstalled contexts (fork children) must round-trip
    clone = pickle.loads(pickle.dumps(RunContext(seed=7).fork(0)))
    assert clone.worker_id == 0


def test_explicit_registry_is_not_installed_globally():
    registry = MetricsRegistry()
    with RunContext(telemetry=True, registry=registry).activate() as ctx:
        assert ctx.metrics is registry
        assert METRICS.recorder is None
        assert current_sink().registry is registry
    assert TELEMETRY.recorder is None


def test_parallelism_policy_installed_and_restored(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    configure_parallelism(None)
    assert resolve_max_workers() == 1
    with RunContext(max_workers=3).activate():
        assert resolve_max_workers() == 3
    assert resolve_max_workers() == 1
    with pytest.raises(ValidationError):
        configure_parallelism(0)
    monkeypatch.setenv("REPRO_PARALLEL", "4")
    assert resolve_max_workers() == 4
    monkeypatch.setenv("REPRO_PARALLEL", "zero")
    with pytest.raises(ValidationError):
        resolve_max_workers()


def test_ambient_context_reflects_live_tracer():
    assert ambient_context().trace_requested is False
    with RunContext(trace=True).activate() as ctx:
        assert ambient_context() is ctx


# --------------------------------------------------------------------- #
# RNG tree
# --------------------------------------------------------------------- #
def test_spawn_seeds_reset_counter():
    ctx = RunContext(seed=42)
    first = ctx.spawn_seeds(3)
    second = ctx.spawn_seeds(3)
    assert [s.spawn_key for s in first] == [s.spawn_key for s in second]


def test_fork_seed_extends_spawn_key_deterministically():
    ctx = RunContext(seed=42)
    a, b = ctx.fork(0), ctx.fork(1)
    assert ctx.fork(0).seed.spawn_key == a.seed.spawn_key
    assert a.seed.spawn_key != b.seed.spawn_key
    assert a.seed.entropy == ctx.seed.entropy
    with pytest.raises(ValidationError):
        ctx.fork(-1)


def test_fork_in_process_records_into_live_tracer():
    with RunContext(trace=True).activate() as ctx:
        fork = ctx.fork(0)
        with fork.activate():
            with fork.tracer.span("task"):
                pass
            assert fork.trace_snapshot() is None, (
                "in-process forks record straight into the live tracer"
            )
        names = [r.get("name") for r in current_tracer().records()]
    assert "task" in names


# --------------------------------------------------------------------- #
# serial vs parallel bit-identity across all registered solvers
# --------------------------------------------------------------------- #
def _normalize_trace(records):
    """Structure-only view: drop ids and wall-clock attrs."""
    out = []
    for r in records:
        attrs = {
            k: v
            for k, v in (r.get("attrs") or {}).items()
            if not (k.endswith("seconds") or k.endswith("_time")
                    or k == "workers")
        }
        out.append((r.get("type"), r.get("name"), tuple(sorted(attrs))))
    return out


def _sweep(workers: int):
    """One traced, metered harness sweep over registry-built factories."""
    from repro.experiments.parallel import (
        GRAFactory,
        ParallelRunner,
        SRAFactory,
    )
    from repro.algorithms.gra.params import GAParams
    from repro.workload import WorkloadSpec

    spec = WorkloadSpec(num_sites=6, num_objects=8)
    factories = {
        "sra": SRAFactory(),
        "gra": GRAFactory(GAParams(population_size=8, generations=3)),
    }
    with RunContext(trace=True, telemetry=True, metrics=True).activate() as c:
        runner = ParallelRunner(max_workers=workers, task_timeout=120.0)
        averages = runner.average_static_runs(
            spec, factories, instances=3, seed=11, metrics=c.metrics
        )
        trace = _normalize_trace(c.tracer.records())
        from repro.utils.telemetry import snapshot_families

        families = {
            name: fam
            for name, fam in snapshot_families(c.sink.snapshot()).items()
            if not name.endswith("_seconds")
        }
        results = {
            label: (avg.total_cost, avg.savings_percent, avg.extra_replicas)
            for label, avg in averages.items()
        }
    return results, trace, families


def test_serial_vs_parallel_bit_identity():
    serial = _sweep(1)
    fanned = _sweep(2)
    assert serial[0] == fanned[0], "solver results must be bit-identical"
    assert serial[1] == fanned[1], "normalised traces must be identical"
    assert serial[2] == fanned[2]


def test_fork_solver_determinism_across_registry():
    """Every standalone solver gives identical results from equal forks."""
    from repro.workload import WorkloadSpec, generate_instance

    registry = default_registry()
    instance = generate_instance(
        WorkloadSpec(num_sites=6, num_objects=8), rng=5
    )
    ctx = RunContext(seed=99)
    for name in registry.names(standalone=True):
        if name == "optimal":
            continue  # exponential; covered by the conformance corpus
        seed_a = ctx.fork(3).spawn_seeds(1)[0]
        seed_b = ctx.fork(3).spawn_seeds(1)[0]
        result_a = registry.create(name, seed=seed_a).run(instance)
        result_b = registry.create(name, seed=seed_b).run(instance)
        assert np.array_equal(
            result_a.scheme.matrix, result_b.scheme.matrix
        ), f"{name} diverged across identical forks"
        assert result_a.total_cost == result_b.total_cost
