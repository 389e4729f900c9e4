"""Process-wide recorder slots: stand-in, install, uninstall, scoping."""

from __future__ import annotations

import pytest

from repro.obs.ledger import PlacementLedger, current_ledger
from repro.runtime.context import RECORDERS
from repro.utils.metrics import MetricsRegistry, current_metrics
from repro.utils.profiler import DeterministicProfiler, current_profiler
from repro.utils.recorders import (
    install_recorder,
    scoped_recorder,
    uninstall_recorder,
)
from repro.utils.telemetry import TelemetrySink, current_sink
from repro.utils.tracing import Tracer, current_tracer

#: slot name -> (factory, module accessor, record one item, items recorded)
KINDS = {
    "metrics": (
        MetricsRegistry,
        current_metrics,
        lambda r: r.increment("probe"),
        lambda r: sum(r.counters.values()),
    ),
    "telemetry": (
        TelemetrySink,
        current_sink,
        lambda r: r.set_gauge("repro_probe", 1.0),
        lambda r: len(r.snapshot()["gauges"]),
    ),
    "ledger": (
        PlacementLedger,
        current_ledger,
        lambda r: r.record("add", obj=0, site=0),
        len,
    ),
    "tracer": (Tracer, current_tracer, lambda r: r.event("probe"), len),
    "profiler": (
        DeterministicProfiler,
        current_profiler,
        lambda r: r.tick(),
        lambda r: r.ticks,
    ),
}


def test_every_slot_is_covered():
    assert [slot.name for slot in RECORDERS] == [
        "metrics", "telemetry", "ledger", "tracer", "profiler",
    ]
    assert set(KINDS) == {slot.name for slot in RECORDERS}


@pytest.mark.parametrize("slot", RECORDERS, ids=lambda slot: slot.name)
def test_recorder_slot_lifecycle(slot):
    make, accessor, record, recorded = KINDS[slot.name]

    # empty: one shared stand-in that never accumulates state
    assert slot.recorder is None
    stand_in = accessor()
    assert accessor() is stand_in and slot.current() is stand_in
    if slot.name == "metrics":
        assert stand_in is None  # the registry's Optional contract
    else:
        assert stand_in.enabled is False
        record(stand_in)
        assert recorded(stand_in) == 0

    # install is idempotent and the accessor hands back the recorder
    outer = install_recorder(slot, make)
    try:
        assert slot.recorder is outer and accessor() is outer
        assert install_recorder(slot, make) is outer
        record(outer)

        # a scoped recorder shadows the installed one, then restores it
        with scoped_recorder(slot, make()) as inner:
            assert accessor() is inner
            record(inner)
        assert accessor() is outer
        assert recorded(outer) == 1, "the scoped recorder leaked into outer"

        # ... also when the block raises
        with pytest.raises(RuntimeError):
            with scoped_recorder(slot, make()):
                raise RuntimeError("boom")
        assert accessor() is outer
    finally:
        uninstall_recorder(slot)
    assert slot.recorder is None and accessor() is stand_in

    # scoping over an empty slot leaves it empty, on error too
    with pytest.raises(RuntimeError):
        with scoped_recorder(slot, make()):
            raise RuntimeError("boom")
    assert slot.recorder is None and accessor() is stand_in
