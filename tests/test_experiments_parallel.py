"""The process-pool harness: determinism, fallbacks, crash recovery."""

from __future__ import annotations

import os
import time

import pytest

from repro.algorithms import SRA
from repro.algorithms.gra.params import GAParams
from repro.errors import ValidationError
from repro.experiments.harness import average_static_runs
from repro.experiments.parallel import (
    PARALLEL_ENV_VAR,
    GRAFactory,
    ParallelRunner,
    SRAFactory,
    configure,
    resolve_max_workers,
)
from repro.runtime import RunContext
from repro.utils.metrics import MetricsRegistry
from repro.workload import WorkloadSpec

SPEC = WorkloadSpec(
    num_sites=8, num_objects=10, update_ratio=0.05, capacity_ratio=0.15
)

FACTORIES = {
    "SRA": SRAFactory(),
    "GRA": GRAFactory(GAParams(population_size=6, generations=4)),
}


def _deterministic_fields(averages):
    return {
        label: (avg.savings_percent, avg.total_cost, avg.extra_replicas,
                avg.runs)
        for label, avg in averages.items()
    }


def test_parallel_bit_identical_to_serial():
    serial = average_static_runs(SPEC, FACTORIES, instances=3, seed=11)
    parallel = ParallelRunner(max_workers=2).average_static_runs(
        SPEC, FACTORIES, instances=3, seed=11
    )
    # exact equality, not approx: same SeedSequence children per task
    assert _deterministic_fields(serial) == _deterministic_fields(parallel)


def test_worker_counts_agree_with_each_other():
    two = ParallelRunner(max_workers=2).average_static_runs(
        SPEC, FACTORIES, instances=3, seed=13
    )
    three = ParallelRunner(max_workers=3).average_static_runs(
        SPEC, FACTORIES, instances=3, seed=13
    )
    assert _deterministic_fields(two) == _deterministic_fields(three)


def test_harness_max_workers_parameter_routes_to_pool():
    serial = average_static_runs(SPEC, FACTORIES, instances=2, seed=17)
    pooled = average_static_runs(
        SPEC, FACTORIES, instances=2, seed=17, max_workers=2
    )
    assert _deterministic_fields(serial) == _deterministic_fields(pooled)


def test_unpicklable_factories_fall_back_to_serial_with_warning():
    factories = {"SRA": lambda seed: SRA()}
    runner = ParallelRunner(max_workers=2)
    with pytest.warns(RuntimeWarning, match="not picklable"):
        averages = runner.average_static_runs(
            SPEC, factories, instances=2, seed=23
        )
    reference = average_static_runs(SPEC, factories, instances=2, seed=23)
    assert _deterministic_fields(averages) == _deterministic_fields(reference)


class _CrashInWorkerFactory:
    """Kills the hosting process — but only when it is NOT the parent.

    The parallel attempt therefore dies with BrokenProcessPool, and the
    in-process retry (same seeds) succeeds, exercising the recovery path
    deterministically.
    """

    def __init__(self, parent_pid: int) -> None:
        self.parent_pid = parent_pid

    def __call__(self, seed):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return SRA()


def test_worker_crash_is_retried_in_process():
    factories = {"SRA": _CrashInWorkerFactory(os.getpid())}
    crashed = ParallelRunner(max_workers=2).average_static_runs(
        SPEC, factories, instances=2, seed=29
    )
    reference = average_static_runs(
        SPEC, {"SRA": SRAFactory()}, instances=2, seed=29
    )
    assert _deterministic_fields(crashed) == _deterministic_fields(reference)


class _SleepInWorkerFactory:
    """Stalls only inside worker processes, to trip the task timeout."""

    def __init__(self, parent_pid: int, seconds: float) -> None:
        self.parent_pid = parent_pid
        self.seconds = seconds

    def __call__(self, seed):
        if os.getpid() != self.parent_pid:
            time.sleep(self.seconds)
        return SRA()


def test_task_timeout_falls_back_to_in_process_run():
    factories = {"SRA": _SleepInWorkerFactory(os.getpid(), seconds=30.0)}
    runner = ParallelRunner(max_workers=2, task_timeout=0.25)
    averages = runner.average_static_runs(
        SPEC, factories, instances=2, seed=31
    )
    reference = average_static_runs(
        SPEC, {"SRA": SRAFactory()}, instances=2, seed=31
    )
    assert _deterministic_fields(averages) == _deterministic_fields(reference)


def test_task_exceptions_propagate():
    class Boom(RuntimeError):
        pass

    class _RaisingFactory:
        def __call__(self, seed):
            raise Boom("factory failure")

    with pytest.raises(Exception):
        ParallelRunner(max_workers=1).average_static_runs(
            SPEC, {"SRA": _RaisingFactory()}, instances=1, seed=37
        )


def test_metrics_merged_from_workers():
    registry = MetricsRegistry()
    ParallelRunner(max_workers=2).average_static_runs(
        SPEC, FACTORIES, instances=2, seed=41, metrics=registry
    )
    counters = registry.counters
    assert counters["harness.instances"] == 2
    assert counters["harness.tasks"] == 4
    assert counters.get("cost.cache_misses", 0) > 0
    assert "solve.SRA" in registry.timers
    assert "solve.GRA" in registry.timers


def test_validation_errors():
    with pytest.raises(ValidationError):
        ParallelRunner(max_workers=0)
    with pytest.raises(ValidationError):
        ParallelRunner(task_timeout=0.0)
    with pytest.raises(ValidationError):
        ParallelRunner(max_workers=1).average_static_runs(
            SPEC, FACTORIES, instances=0
        )
    with pytest.raises(ValidationError):
        ParallelRunner(max_workers=1).average_static_runs(
            SPEC, {}, instances=1
        )


def test_resolve_max_workers_precedence(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV_VAR, raising=False)
    assert resolve_max_workers() == 1
    assert resolve_max_workers(3) == 3
    monkeypatch.setenv(PARALLEL_ENV_VAR, "4")
    assert resolve_max_workers() == 4
    configure(2)
    try:
        assert resolve_max_workers() == 2  # configure beats the env var
        assert resolve_max_workers(5) == 5  # explicit beats configure
    finally:
        configure(None)
    assert resolve_max_workers() == 4
    monkeypatch.setenv(PARALLEL_ENV_VAR, "zero")
    with pytest.raises(ValidationError):
        resolve_max_workers()
    monkeypatch.setenv(PARALLEL_ENV_VAR, "0")
    with pytest.raises(ValidationError):
        resolve_max_workers()
    with pytest.raises(ValidationError):
        configure(0)


def test_serial_runner_needs_no_executor():
    runner = ParallelRunner(max_workers=1)
    assert runner.serial
    averages = runner.average_static_runs(
        SPEC, FACTORIES, instances=2, seed=43
    )
    reference = average_static_runs(SPEC, FACTORIES, instances=2, seed=43)
    assert _deterministic_fields(averages) == _deterministic_fields(reference)


# --------------------------------------------------------------------- #
# tracing across workers
# --------------------------------------------------------------------- #
def _trace_shape(tracer):
    return [
        (r["id"], r["parent"], r["name"]) for r in tracer.records()
    ]


def test_worker_traces_reparented_under_sweep_root():
    with RunContext(trace=True).activate() as ctx:
        ParallelRunner(max_workers=2).average_static_runs(
            SPEC, FACTORIES, instances=2, seed=7
        )
        records = ctx.tracer.records()
        roots = [
            r for r in records if r["name"] == "harness.average_static_runs"
        ]
        tasks = [r for r in records if r["name"] == "harness.task"]
        assert len(roots) == 1
        # one task span per (instance x algorithm) cell, all under the root
        assert len(tasks) == len(FACTORIES) * 2
        assert all(t["parent"] == roots[0]["id"] for t in tasks)
        # worker pids differ from the parent's
        assert len({r["pid"] for r in records}) >= 2
        # inner algorithm spans survived the merge and nest under tasks
        task_ids = {t["id"] for t in tasks}
        solves = [
            r
            for r in records
            if r["name"] in ("sra.solve", "gra.evolve")
            and r["parent"] in task_ids
        ]
        assert len(solves) >= len(tasks)
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids))


def test_worker_trace_merge_is_deterministic():
    shapes = []
    for _ in range(2):
        with RunContext(trace=True).activate() as ctx:
            ParallelRunner(max_workers=2).average_static_runs(
                SPEC, FACTORIES, instances=2, seed=7
            )
            shapes.append(_trace_shape(ctx.tracer))
    assert shapes[0] == shapes[1]


def test_serial_run_traces_inline_without_duplication():
    with RunContext(trace=True).activate() as ctx:
        ParallelRunner(max_workers=1).average_static_runs(
            SPEC, FACTORIES, instances=2, seed=7
        )
        tasks = [
            r for r in ctx.tracer.records() if r["name"] == "harness.task"
        ]
        assert len(tasks) == len(FACTORIES) * 2


def test_no_tracing_no_task_spans():
    from repro.utils.tracing import TRACER

    assert TRACER.recorder is None
    averages = ParallelRunner(max_workers=1).average_static_runs(
        SPEC, FACTORIES, instances=1, seed=7
    )
    assert set(averages) == set(FACTORIES)


# --------------------------------------------------------------------- #
# chaos replay runs (fault-injected traces across workers)
# --------------------------------------------------------------------- #
def _chaos_plan():
    from repro.sim import CrashWindow, FaultPlan, LinkDegradation

    return FaultPlan(
        crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
        degradations=(
            LinkDegradation(src=0, dst=2, factor=4.0, start=0.1, end=0.9),
        ),
        seed=9,
    )


def test_chaos_replay_identical_across_reruns():
    runs = [
        ParallelRunner(max_workers=1).chaos_replay_runs(
            SPEC, _chaos_plan(), instances=3, seed=47
        )
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == 3
    # the plan actually fired in every instance's replay
    assert all(s["faults[site_crash]"] == 1.0 for s in runs[0])


def test_chaos_replay_serial_matches_parallel():
    from repro.experiments.harness import chaos_replay_runs

    serial = ParallelRunner(max_workers=1).chaos_replay_runs(
        SPEC, _chaos_plan(), instances=3, seed=47
    )
    pooled = ParallelRunner(max_workers=2).chaos_replay_runs(
        SPEC, _chaos_plan(), instances=3, seed=47
    )
    assert serial == pooled  # bit-identical summaries, same order
    dispatched = chaos_replay_runs(
        SPEC, _chaos_plan(), instances=3, seed=47, max_workers=2
    )
    assert dispatched == serial


def test_chaos_replay_empty_plan_has_no_fault_keys():
    from repro.sim import FaultPlan

    summaries = ParallelRunner(max_workers=2).chaos_replay_runs(
        SPEC, FaultPlan.empty(), instances=2, seed=47
    )
    for summary in summaries:
        assert not any(key.startswith("faults[") for key in summary)


def _span_name_tree(tracer):
    """The span forest as (name, parent-name) pairs, id-free.

    Worker snapshot merges remap span ids in record order, so raw ids
    are only comparable between runs of the *same* worker layout; the
    name tree is the layout-independent shape.
    """
    records = tracer.records()
    by_id = {r["id"]: r for r in records}
    shape = sorted(
        (
            r["name"],
            by_id[r["parent"]]["name"] if r["parent"] in by_id else None,
        )
        for r in records
    )
    return shape


def test_chaos_replay_trace_shape_matches_across_modes():
    shapes = []
    for workers in (1, 2):
        with RunContext(trace=True).activate() as ctx:
            ParallelRunner(max_workers=workers).chaos_replay_runs(
                SPEC, _chaos_plan(), instances=2, seed=47
            )
            shapes.append(_span_name_tree(ctx.tracer))
    assert shapes[0] == shapes[1]
    names = [name for name, _ in shapes[0]]
    assert names.count("harness.chaos_task") == 2
