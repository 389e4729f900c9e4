"""Self-tests of the benchmark: ``python -m pytest bench -q`` (well under 30 s)."""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench.compare import compare  # noqa: E402
from bench.layers import SPAN_NAMES, Layers, layer_metrics  # noqa: E402
from bench.measure import Gate  # noqa: E402
from bench.workloads import WORKLOADS, Workload, result_digest, result_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc, lines = _run("dsra-chaos", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC[section]:
        printed = result["metrics"][metric["name"]]
        assert set(printed) == {"value", "unit"}
        assert printed["unit"] == metric["unit"]
        assert any(
            line.startswith(f"dsra-chaos {metric['name']} ")
            and f" {metric['unit']} n=" in line
            for line in lines
        ), metric["name"]
    assert len(result["metrics"]) == len(SPEC[section])


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in (*SPEC["end_to_end"], *SPEC["per_layer"]):
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        assert set(workload.spans) <= set(SPAN_NAMES), workload.name


def _values(scale: float):
    return {("w", "op_s_p50"): [scale * v for v in (1.0, 1.01, 0.99, 1.02, 1.0)]}


def test_compare_flags_a_slowdown_and_passes_identical_sets():
    (same,) = compare(_values(1.0), _values(1.0), SPEC)
    assert same["verdict"] == "ok"
    (slow,) = compare(_values(1.0), _values(1.5), SPEC)
    assert slow["verdict"] == "WORSE"
    assert slow["worse_by"] == pytest.approx(0.5)
    noisy = {("w", "op_s_p50"): [0.5, 1.0, 1.5, 2.0, 1.0]}
    (unclear,) = compare(noisy, noisy, SPEC)
    assert unclear["verdict"] == "unresolved"


def _tiny_sra():
    from repro.algorithms.sra import SRA
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(WorkloadSpec(6, 10, capacity_ratio=0.3), rng=3)
    return SRA().run(instance)


def test_a_flipped_scheme_bit_trips_the_gate(tmp_path):
    from repro.core.scheme import ReplicationScheme

    result = _tiny_sra()
    probe = Workload("probe", None, None, result_problems, result_digest, ())
    gate = Gate()
    gate.output(probe, None, result)
    gate.output(probe, None, result)
    assert gate.correct and gate.attempted == 2

    # drop one extra replica: the scheme stays valid, only its bits differ
    matrix = result.scheme.matrix.copy()
    primaries = result.scheme.instance.primaries
    site, obj = next(
        (int(s), int(o)) for s, o in np.argwhere(matrix) if primaries[o] != s
    )
    matrix[site, obj] = False
    flipped = dataclasses.replace(
        result, scheme=ReplicationScheme.from_matrix(result.scheme.instance, matrix)
    )
    gate.output(probe, None, flipped)
    assert gate.failed == 1
    assert any("differs from the first repetition" in p for p in gate.problems)

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"seed": 7, "digests": {"probe": "0" * 64}}))
    gate.golden("probe", 7, golden)
    assert gate.failed == 2


def test_wrappers_record_spans_and_never_leak():
    from repro.algorithms.sra import SRA
    from repro.utils.tracing import Tracer

    layers = Layers()
    tracer = Tracer()
    with layers.recording(tracer, "setup"):
        pass
    with layers.recording(tracer, "op"):
        assert "run" in vars(SRA)  # wrapped on the subclass, inherited before
        _tiny_sra()
    assert "run" not in vars(SRA)
    assert layers.leaks() == []

    with pytest.raises(RuntimeError):
        with layers.recording(tracer, "op"):
            raise RuntimeError("boom")
    assert layers.leaks() == []

    metrics = layer_metrics(tracer.records(), layers, ops=2)
    assert metrics["network.apsp_s"] > 0.0
    assert metrics["algorithms.sra.scan_s"] > 0.0
    assert metrics["algorithms.sra.benefit_evals"] > 0.0
    assert metrics["distributed.messages"] == 0.0
