"""Telemetry sink, exporters, and the OpenMetrics round-trip contract."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ValidationError
from repro.runtime.context import RunContext
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry import (
    InMemoryExporter,
    JsonlExporter,
    OpenMetricsExporter,
    TelemetrySink,
    current_sink,
    parse_openmetrics,
    render_families,
    render_openmetrics_snapshot,
    sanitize_metric_name,
    snapshot_families,
    validate_openmetrics,
)


def test_sanitize_metric_name():
    assert sanitize_metric_name("cost.cache_hits") == "repro_cost_cache_hits"
    assert sanitize_metric_name("repro_sim_transfers") == (
        "repro_sim_transfers"
    )
    assert sanitize_metric_name("solve.SRA(random-order)") == (
        "repro_solve_SRA_random_order_"
    )


def test_gauges_and_snapshot_structure():
    sink = TelemetrySink()
    sink.set_gauge("repro_depth", 17)
    sink.set_gauge("repro_ntc", 1.5, site=0)
    sink.set_gauge("repro_ntc", 2.5, site=1)
    sink.add_to_gauge("repro_ntc", 0.5, site=1)
    snap = sink.snapshot(tick=3)
    assert snap["tick"] == 3
    assert snap["sequence"] == 0
    assert snap["gauges"]["repro_depth"][0]["value"] == 17.0
    by_site = {
        point["labels"]["site"]: point["value"]
        for point in snap["gauges"]["repro_ntc"]
    }
    assert by_site == {"0": 1.5, "1": 3.0}
    assert sink.snapshot()["sequence"] == 1  # sequence increments


def test_disabled_sink_is_inert():
    sink = TelemetrySink(enabled=False)
    sink.set_gauge("repro_x", 1)
    sink.add_to_gauge("repro_x", 1)
    assert sink.snapshot()["gauges"] == {}
    assert current_sink() is not None
    assert current_sink().enabled is False  # no global installed


def test_exporters_receive_snapshots(tmp_path):
    sink = TelemetrySink()
    memory = sink.attach_exporter(InMemoryExporter())
    jsonl_path = tmp_path / "telemetry.jsonl"
    om_path = tmp_path / "metrics.om"
    sink.attach_exporter(JsonlExporter(str(jsonl_path)))
    sink.attach_exporter(OpenMetricsExporter(str(om_path)))
    sink.set_gauge("repro_a", 1)
    sink.snapshot(tick=0)
    sink.set_gauge("repro_a", 2)
    sink.snapshot(tick=1)
    sink.close()

    assert [s["tick"] for s in memory.snapshots] == [0, 1]
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["gauges"]["repro_a"][0]["value"] == 2.0
    # The OpenMetrics file holds the *latest* state only.
    text = om_path.read_text()
    assert "repro_a 2.0" in text
    assert text.endswith("# EOF\n")


def test_closed_jsonl_exporter_raises(tmp_path):
    exporter = JsonlExporter(str(tmp_path / "t.jsonl"))
    exporter.close()
    with pytest.raises(ValidationError):
        exporter.export({"gauges": {}})


def _populated_sink() -> TelemetrySink:
    registry = MetricsRegistry()
    registry.increment("cost.cache_hits", 41)
    with registry.timer("solve.SRA"):
        pass
    registry.observe_value("sim.read_latency", 0.25)
    registry.observe_value("sim.read_latency", 4.0, count=3)
    registry.observe_value("sim.read_latency", 0.0)  # zero bucket
    sink = TelemetrySink(registry=registry)
    sink.set_gauge("repro_sim_transfers", 42)
    sink.set_gauge("repro_sim_ntc_by_site", 1.25, site=3)
    sink.set_gauge("repro_sim_ntc_by_site", 0.5, site=11)
    sink.set_gauge("repro_weird", math.inf)
    sink.set_gauge("repro_missing", math.nan)
    sink.set_gauge(
        "repro_labelled", 1.0, note='quo"te\\slash', multi="a\nb"
    )
    return sink


def test_openmetrics_round_trip_is_exact():
    """render(parse(text)) == text for everything the sink emits."""
    text = _populated_sink().render_openmetrics()
    families = parse_openmetrics(text)
    assert render_families(families) == text
    # And the family structure itself survives a second round.
    assert parse_openmetrics(render_families(families)) == families


def test_openmetrics_families_cover_all_metric_kinds():
    sink = _populated_sink()
    families = snapshot_families(sink._peek())
    assert families["repro_sim_transfers"]["type"] == "gauge"
    assert families["repro_cost_cache_hits"]["type"] == "counter"
    assert families["repro_solve_SRA_seconds"]["type"] == "summary"
    hist = families["repro_sim_read_latency"]
    assert hist["type"] == "histogram"
    samples = hist["samples"]
    assert samples[("_count", ())] == 5.0
    # Cumulative buckets end at +Inf == count.
    assert samples[("_bucket", (("le", "+Inf"),))] == 5.0
    buckets = [
        (float(dict(labels)["le"]), value)
        for (suffix, labels), value in samples.items()
        if suffix == "_bucket"
    ]
    counts = [value for _, value in sorted(buckets)]
    assert counts == sorted(counts), "bucket counts must be cumulative"
    # The rendered text must also list buckets in increasing le order
    # (the OpenMetrics spec requires it; a plain string sort would put
    # +Inf first).
    text = render_families(families)
    rendered_les = [
        float(line.split('le="')[1].split('"')[0])
        for line in text.splitlines()
        if "_bucket{" in line and "repro_sim_read_latency" in line
    ]
    assert rendered_les == sorted(rendered_les)


def test_openmetrics_text_validates(tmp_path):
    sink = _populated_sink()
    path = tmp_path / "metrics.om"
    sink.attach_exporter(OpenMetricsExporter(str(path)))
    sink.snapshot()
    assert validate_openmetrics(path.read_text()) > 0


def test_parse_rejects_malformed_input():
    with pytest.raises(ValidationError, match="EOF"):
        parse_openmetrics("# TYPE repro_a gauge\nrepro_a 1.0\n")
    with pytest.raises(ValidationError, match="precedes"):
        parse_openmetrics("repro_a 1.0\n# EOF\n")
    with pytest.raises(ValidationError, match="unparsable"):
        parse_openmetrics("# TYPE repro_a gauge\n}} nonsense\n# EOF\n")
    with pytest.raises(ValidationError, match="after the # EOF"):
        parse_openmetrics(
            "# TYPE repro_a gauge\nrepro_a 1.0\n# EOF\nrepro_a 2.0\n"
        )


def test_json_round_tripped_snapshot_renders_identically():
    """Histogram bucket keys become strings through JSON; the renderer
    must not let that perturb cumulative bucket ordering."""
    sink = _populated_sink()
    snap = sink._peek()
    rendered = render_openmetrics_snapshot(snap)
    rehydrated = json.loads(json.dumps(snap, sort_keys=True))
    assert render_openmetrics_snapshot(rehydrated) == rendered


def test_simulation_metrics_publish_into_sink():
    from repro.sim.metrics import READ_FETCH, SimulationMetrics

    metrics = SimulationMetrics(num_sites=2, num_objects=1)
    metrics.record_transfer(READ_FETCH, 1, 0, 2.0, 3.0)
    metrics.record_served_stale()
    sink = TelemetrySink()
    metrics.publish(sink)
    snap = sink.snapshot()
    gauges = snap["gauges"]
    assert gauges["repro_sim_total_ntc"][0]["value"] == 6.0
    assert gauges["repro_sim_served_stale"][0]["value"] == 1.0
    by_cause = {
        point["labels"]["cause"]: point["value"]
        for point in gauges["repro_sim_ntc_by_cause"]
    }
    assert by_cause[READ_FETCH] == 6.0
    stats = {
        (point["labels"]["kind"], point["labels"]["stat"])
        for point in gauges["repro_sim_latency"]
    }
    assert ("read", "count") in stats and ("write", "p99") in stats


def test_adaptive_loop_snapshots_per_epoch(tmp_path):
    """One JSONL snapshot per epoch, carrying the epoch gauges."""
    from repro.algorithms.sra import SRA
    from repro.sim.adaptive import AdaptiveReplicationLoop
    from repro.workload import WorkloadSpec, generate_instance
    from repro.workload.mutation import apply_pattern_change

    instance = generate_instance(
        WorkloadSpec(num_sites=6, num_objects=8), rng=5
    )
    result = SRA().run(instance)
    drifted, _ = apply_pattern_change(instance, 6.0, 0.5, 1.0, rng=9)
    epochs = [instance, drifted]
    exporter = InMemoryExporter()
    with RunContext(telemetry=True, exporters=[exporter]).activate():
        loop = AdaptiveReplicationLoop(instance, result.scheme, rng=3)
        loop.run(epochs)
        snapshots = list(exporter.snapshots)  # teardown adds a final one
    assert len(snapshots) == len(epochs)
    last = snapshots[-1]
    assert last["tick"] == len(epochs) - 1
    assert "repro_adaptive_epoch_ntc" in last["gauges"]
    assert "repro_sim_total_ntc" in last["gauges"]


def test_distributed_sra_publishes_message_counts():
    from repro.distributed.messages import MessageKind
    from repro.distributed.sra_protocol import DistributedSRA
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(
        WorkloadSpec(num_sites=5, num_objects=6), rng=2
    )
    with RunContext(telemetry=True).activate() as ctx:
        report = DistributedSRA().run(instance)
        gauges = ctx.sink.snapshot()["gauges"]
    assert gauges["repro_dsra_token_rounds"][0]["value"] == float(
        report.token_rounds
    )
    kinds = {
        point["labels"]["kind"]: point["value"]
        for point in gauges["repro_dsra_messages"]
    }
    assert kinds["token"] == float(
        report.log.count_by_kind[MessageKind.TOKEN]
    )
