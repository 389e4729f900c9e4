"""File exports are atomic: a write that fails keeps the previous file."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.cli as cli
import repro.conformance.shrink as shrink
import repro.experiments.export as export
import repro.io.persistence as persistence
import repro.obs.ledger as ledger_mod
import repro.sim.faults as faults
import repro.utils.profiler as profiler_mod
import repro.utils.telemetry as telemetry
import repro.utils.tracing as tracing
from repro.utils.files import atomic_write
from tests.conftest import make_manual_instance


def _trace(path):
    tracer = tracing.Tracer()
    with tracer.span("outer", n=1):
        tracer.event("tick")
    tracer.write(str(path))


def _profile(path):
    tracer = tracing.Tracer()
    profiler = profiler_mod.DeterministicProfiler(tracer=tracer)
    with tracer.span("outer"):
        profiler.tick(3)
    profiler.write(str(path))


def _ledger(path):
    ledger = ledger_mod.PlacementLedger()
    ledger.record("add", obj=0, site=1, benefit=2.5)
    ledger.record("drop", obj=0, site=1)
    ledger.write(str(path))


def _openmetrics(path):
    sink = telemetry.TelemetrySink()
    sink.set_gauge("repro_depth", 3.0)
    telemetry.OpenMetricsExporter(str(path)).export(sink.snapshot())


def _artifact(path):
    result = shrink.ShrinkResult(
        instance=make_manual_instance(),
        failures=["oracle"],
        original_sites=3,
        original_objects=2,
    )
    shrink.write_artifact(result, str(path))


def _fault_plan(path):
    plan = faults.FaultPlan(
        crashes=(faults.CrashWindow(site=1, start=0.2, end=0.7),), seed=9
    )
    plan.save(str(path))


def _conform_report(path):
    assert cli.main(
        ["conform", "run", "--invariant", "scheme-feasibility", "--json", str(path)]
    ) == 0


def _export_manifest(path):
    export.export_results(
        path.parent, figures=[], ablations=[], include_claims=False
    )


#: writer name -> (module whose atomic_write it uses, write a file at path)
WRITERS = {
    "instance": (
        persistence,
        lambda path: persistence.save_instance(make_manual_instance(), path),
    ),
    "trace": (tracing, _trace),
    "profile": (profiler_mod, _profile),
    "ledger": (ledger_mod, _ledger),
    "openmetrics": (telemetry, _openmetrics),
    "shrink-artifact": (shrink, _artifact),
    "fault-plan": (faults, _fault_plan),
    "conform-report": (cli, _conform_report),
    "export-manifest": (export, _export_manifest),
}

#: writers whose output file name is fixed; the rest write "export.out"
FILE_NAMES = {"export-manifest": "manifest.json"}


class _HalfWrite:
    """A handle whose first write lands half its text, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError("No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


@contextmanager
def _failing_atomic_write(path):
    with atomic_write(path) as handle:
        yield _HalfWrite(handle)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(writer, tmp_path, monkeypatch):
    module, write = WRITERS[writer]
    path = tmp_path / FILE_NAMES.get(writer, "export.out")
    write(path)
    before = path.read_bytes()
    assert before, "the first write must produce content"

    # raising=True: a writer that bypasses atomic_write fails here
    monkeypatch.setattr(module, "atomic_write", _failing_atomic_write)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
