"""The ``repro trace`` analysis layer: aggregation and rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams
from repro.core.cost import CostModel
from repro.utils.trace_summary import (
    agra_decisions,
    build_tree,
    gra_convergence,
    phase_breakdown,
    render_summary,
    self_time_by_name,
    summarize,
)
from repro.runtime import RunContext
from repro.utils.tracing import Tracer
from repro.workload.generator import generate_instance
from repro.workload.spec import WorkloadSpec


def _gra_trace(tmp_path, generations=5):
    """Run a small GRA solve under tracing; returns (path, result)."""
    with RunContext(trace=True).activate() as ctx:
        instance = generate_instance(
            WorkloadSpec(num_sites=8, num_objects=12), rng=11
        )
        model = CostModel(instance)
        result = GRA(
            GAParams(population_size=10, generations=generations), rng=3
        ).run(instance, model)
    path = str(tmp_path / "gra.jsonl")
    ctx.tracer.write(path)
    return path, result


def test_gra_convergence_matches_history(tmp_path):
    path, result = _gra_trace(tmp_path, generations=5)
    summary = summarize(path)
    rows = gra_convergence(summary)
    history = result.stats.history("best_fitness")
    # one gra.generation span per history entry (index 0 = seeding)
    assert len(rows) == len(history) == 6
    assert [row["generation"] for row in rows] == list(range(6))
    for row, best in zip(rows, history):
        assert row["best_fitness"] == pytest.approx(best)
        assert row["seconds"] >= 0.0
    means = result.stats.history("mean_fitness")
    for row, mean in zip(rows, means):
        assert row["mean_fitness"] == pytest.approx(mean)


def test_render_summary_shows_convergence_table(tmp_path):
    path, _ = _gra_trace(tmp_path)
    text = render_summary(summarize(path))
    assert "GRA convergence" in text
    assert "top spans by self time" in text
    assert "gra.generation" in text
    assert "DROPPED" not in text


def test_render_summary_warns_on_truncation():
    tracer = Tracer(capacity=2)
    for i in range(6):
        tracer.event("e", i=i)
    summary = build_tree(tracer.records())
    summary.dropped = tracer.dropped
    text = render_summary(summary)
    assert "DROPPED" in text
    assert "4" in text


def test_render_summary_empty_trace():
    summary = build_tree([])
    text = render_summary(summary)
    assert "no spans recorded" in text
    assert "--trace" in text  # tells the user how to get a real trace


def test_cli_trace_on_empty_file_prints_summary(tmp_path, capsys):
    """`repro trace` on an empty/tracing-disabled file must not raise."""
    from repro.cli import main

    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no spans recorded" in out


def test_self_time_by_name_ranks_leaves_above_containers():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            x = 0
            for i in range(20_000):
                x += i
    rows = self_time_by_name(build_tree(tracer.records()))
    assert rows[0]["name"] == "inner"
    by_name = {row["name"]: row for row in rows}
    assert by_name["outer"]["self"] <= by_name["outer"]["total"]
    assert by_name["inner"]["calls"] == 1


def test_phase_breakdown_counts_roots_only():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("phase.a"):
            with tracer.span("nested"):
                pass
    with tracer.span("phase.b"):
        pass
    rows = phase_breakdown(build_tree(tracer.records()))
    assert {row["name"]: row["calls"] for row in rows} == {
        "phase.a": 3,
        "phase.b": 1,
    }


def test_agra_decisions_collected_in_time_order():
    tracer = Tracer()
    with tracer.span("agra.adapt"):
        tracer.event("agra.allocate", obj=3, replicas_after=2)
        tracer.event("agra.deallocate", site=1, obj=0, estimate=4.5)
        tracer.event("sim.progress", processed=10)  # not a decision
    decisions = agra_decisions(build_tree(tracer.records()))
    assert [d["name"] for d in decisions] == [
        "agra.allocate",
        "agra.deallocate",
    ]
    times = [d["time"] for d in decisions]
    assert times == sorted(times)


def test_agra_engine_emits_decision_events():
    from repro.algorithms.agra.engine import AGRA
    from repro.algorithms.agra.params import AGRAParams
    from repro.core.scheme import ReplicationScheme

    with RunContext(trace=True).activate() as ctx:
        instance = generate_instance(
            WorkloadSpec(num_sites=6, num_objects=10), rng=5
        )
        current = ReplicationScheme.primary_only(instance)
        agra = AGRA(
            params=AGRAParams(population_size=6, generations=10), rng=2
        )
        agra.adapt(instance, current, changed_objects=[1, 4])
    summary = build_tree(ctx.tracer.records())
    decisions = agra_decisions(summary)
    allocations = [d for d in decisions if d["name"] == "agra.allocate"]
    assert {d["attrs"]["obj"] for d in allocations} == {1, 4}
    assert any(node.name == "agra.adapt" for node in summary.roots)


# --------------------------------------------------------------------- #
# edge cases: degenerate and truncated traces
# --------------------------------------------------------------------- #
def test_single_span_trace():
    tracer = Tracer()
    with tracer.span("solo", phase="demo"):
        pass
    summary = build_tree(tracer.records())
    assert len(summary.spans) == 1
    assert summary.roots == summary.spans
    assert summary.events == []
    node = summary.spans[0]
    assert node.self_time == pytest.approx(node.duration)
    text = render_summary(summary)
    assert "1 spans, 0 events, 1 roots" in text
    assert "solo" in text


def test_only_point_events_trace():
    tracer = Tracer()
    tracer.event("agra.allocate", obj=2, replicas_after=1)
    tracer.event("sim.progress", processed=5)
    summary = build_tree(tracer.records())
    assert summary.spans == [] and summary.roots == []
    assert len(summary.events) == 2
    assert self_time_by_name(summary) == []
    assert phase_breakdown(summary) == []
    text = render_summary(summary)
    # events alone are a real trace: no "no spans recorded" hint, and
    # the AGRA decision log still renders
    assert "0 spans, 2 events" in text
    assert "no spans recorded" not in text
    assert "agra.allocate" in text


def test_truncated_buffer_summary_leads_with_dropped(tmp_path):
    tracer = Tracer(capacity=3)
    with tracer.span("outer"):
        for i in range(5):
            tracer.event("msg.send", i=i)
        tracer.event("gra.tick")
    path = str(tmp_path / "trunc.jsonl")
    tracer.write(path)
    summary = summarize(path)
    assert summary.dropped == tracer.dropped
    assert summary.dropped_by_kind == tracer.dropped_by_kind
    text = render_summary(summary)
    # the warning is the first line — every count below is a lower bound
    assert text.splitlines()[0].startswith("DROPPED:")
    assert "dropped by kind:" in text.splitlines()[1]
    assert "msg=" in text


def test_truncation_can_orphan_children():
    # the parent span got evicted: its surviving child must become a root
    tracer = Tracer(capacity=2)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    tracer.event("late")  # evicts the oldest surviving record
    summary = build_tree(tracer.records())
    # whatever survived resolves without KeyError and roots make sense
    assert all(
        node in summary.roots or node.record.get("parent") is not None
        for node in summary.spans
    )


def test_merged_multi_worker_trace_with_remapped_ids(tmp_path):
    def _worker(tag):
        worker = Tracer()
        with worker.span(f"{tag}.root", worker=tag):
            with worker.span("gra.generation", index=0, best=0.5, mean=0.6):
                pass
            worker.event("agra.allocate", obj=1)
        return worker.snapshot()

    parent = Tracer()
    with parent.span("sweep") as root:
        for tag in ("a", "b"):
            parent.merge_snapshot(_worker(tag), parent_id=root.id)
    path = str(tmp_path / "merged.jsonl")
    parent.write(path)
    summary = summarize(path)
    # the remapped forest resolves into one tree under the sweep root
    assert [n.name for n in summary.roots] == ["sweep"]
    assert {n.name for c in summary.roots[0].children for n in (c,)} == {
        "a.root", "b.root"
    }
    # aggregations see both workers' spans and events
    by_name = {r["name"]: r for r in self_time_by_name(summary)}
    assert by_name["gra.generation"]["calls"] == 2
    assert len(agra_decisions(summary)) == 2
    rows = gra_convergence(summary)
    assert [r["generation"] for r in rows] == [0, 0]
