"""The placement ledger: recording, scopes, replay, explain, the slot."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.obs.ledger import (
    LEDGER,
    PlacementLedger,
    current_ledger,
    explain_entries,
    read_ledger,
    render_explanation,
)
from repro.runtime import RunContext
from repro.runtime.context import scoped_ledger
from repro.utils.recorders import install_recorder, uninstall_recorder


# --------------------------------------------------------------------- #
# recording and scopes
# --------------------------------------------------------------------- #
def test_record_returns_sequenced_entry():
    ledger = PlacementLedger()
    first = ledger.record("add", obj=3, site=1, benefit=12.5)
    second = ledger.record("drop", obj=3, site=0)
    assert first == {"seq": 0, "action": "add", "obj": 3, "site": 1,
                     "benefit": 12.5}
    assert second["seq"] == 1
    assert len(ledger) == 2


def test_scope_attribution_attaches_and_nests():
    ledger = PlacementLedger()
    with ledger.scope(algorithm="agra", epoch=3):
        ledger.record("add", obj=1, site=2)
        with ledger.scope(epoch=4, trigger="fault-recovery"):
            ledger.record("add", obj=1, site=3)
        ledger.record("drop", obj=1, site=2)
    ledger.record("decide", obj=1)
    outer, inner, after, bare = ledger.entries()
    assert outer["algorithm"] == "agra" and outer["epoch"] == 3
    # inner scopes shadow outer keys and add their own
    assert inner["epoch"] == 4 and inner["trigger"] == "fault-recovery"
    assert inner["algorithm"] == "agra"
    # popping the inner scope restores the outer attribution
    assert after["epoch"] == 3 and "trigger" not in after
    # leaving all scopes leaves entries unattributed
    assert "algorithm" not in bare


def test_call_site_detail_shadows_scope():
    ledger = PlacementLedger()
    with ledger.scope(algorithm="agra"):
        entry = ledger.record("add", obj=0, site=0, algorithm="sra")
    assert entry["algorithm"] == "sra"


def test_unknown_action_rejected():
    with pytest.raises(ValidationError):
        PlacementLedger().record("merge", obj=0, site=0)


def test_entries_filters_by_obj_site_action():
    ledger = PlacementLedger()
    ledger.record("add", obj=1, site=0)
    ledger.record("add", obj=2, site=0)
    ledger.record("drop", obj=1, site=1)
    ledger.record("fault", site=0, fault="site_crash")
    assert [e["seq"] for e in ledger.entries(obj=1)] == [0, 2]
    assert [e["seq"] for e in ledger.entries(site=0)] == [0, 1, 3]
    assert [e["seq"] for e in ledger.entries(action="drop")] == [2]
    assert [e["seq"] for e in ledger.entries(obj=1, site=0)] == [0]


def test_replay_ops_yields_only_scheme_mutations():
    ledger = PlacementLedger()
    with ledger.scope(algorithm="sra"):
        ledger.record("add", obj=5, site=2, benefit=9.0)
    ledger.record("decide", obj=5, replicas_after=2)
    ledger.record("defer", obj=5, site=3, reason="add-at-failed-site")
    ledger.record("drop", obj=5, site=2)
    ledger.record("fault", site=2, fault="site_crash")
    ledger.record("resume", epoch=1, migrations=1)
    assert list(ledger.replay_ops()) == [("add", 2, 5), ("drop", 2, 5)]


def test_reset_clears_entries_and_sequence():
    ledger = PlacementLedger()
    ledger.record("add", obj=0, site=0)
    ledger.reset()
    assert len(ledger) == 0
    assert ledger.record("add", obj=1, site=1)["seq"] == 0


# --------------------------------------------------------------------- #
# the disabled path
# --------------------------------------------------------------------- #
def test_disabled_ledger_is_a_noop():
    ledger = PlacementLedger(enabled=False)
    with ledger.scope(algorithm="sra"):
        assert ledger.record("add", obj=0, site=0) is None
    assert len(ledger) == 0
    assert list(ledger.replay_ops()) == []


def test_current_ledger_is_disabled_when_feature_off():
    assert LEDGER.recorder is None
    assert not current_ledger().enabled
    # the shared disabled ledger never accumulates state
    current_ledger().record("add", obj=0, site=0)
    assert len(current_ledger()) == 0


# --------------------------------------------------------------------- #
# causal parent stamping
# --------------------------------------------------------------------- #
def test_causal_parent_is_open_span_when_tracing():
    with RunContext(trace=True).activate() as ctx:
        ledger = PlacementLedger()
        with ctx.tracer.span("sra.solve") as span:
            inside = ledger.record("add", obj=1, site=2)
        outside = ledger.record("drop", obj=1, site=2)
    assert inside["causal_parent"] == span.id
    assert "causal_parent" not in outside


def test_no_causal_parent_without_tracer():
    entry = PlacementLedger().record("add", obj=1, site=2)
    assert "causal_parent" not in entry


# --------------------------------------------------------------------- #
# export round-trip
# --------------------------------------------------------------------- #
def test_write_read_round_trip(tmp_path):
    ledger = PlacementLedger()
    with ledger.scope(algorithm="agra", epoch=2):
        ledger.record("add", obj=4, site=1, benefit=3.25)
        ledger.record("fault", site=1, fault="site_crash", time=0.4)
    path = str(tmp_path / "ledger.jsonl")
    assert ledger.write(path) == path
    assert read_ledger(path) == ledger.entries()


def test_read_ledger_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError):
        read_ledger(str(tmp_path / "nope.jsonl"))


def test_read_ledger_invalid_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0, "action": "add"}\nnot json\n')
    with pytest.raises(ValidationError):
        read_ledger(str(path))


# --------------------------------------------------------------------- #
# the decision chain (`repro explain`)
# --------------------------------------------------------------------- #
def _sample_entries():
    ledger = PlacementLedger()
    with ledger.scope(algorithm="sra"):
        ledger.record("add", obj=7, site=2, benefit=40.0)
    ledger.record("fault", site=2, fault="site_crash", time=0.2)
    with ledger.scope(algorithm="agra", epoch=1):
        ledger.record("defer", obj=7, site=2, reason="add-at-failed-site")
    ledger.record("fault", site=5, fault="site_crash", time=0.3)
    with ledger.scope(algorithm="agra", epoch=3):
        ledger.record("add", obj=7, site=4)
        ledger.record("add", obj=9, site=2)
    return ledger.entries()


def test_explain_collects_chain_and_fault_windows():
    chain = explain_entries(_sample_entries(), obj=7)
    actions = [(e["action"], e.get("site")) for e in chain]
    # the object's own entries plus the fault window at a chain site;
    # the site-5 fault and the obj-9 add stay out
    assert actions == [
        ("add", 2), ("fault", 2), ("defer", 2), ("add", 4),
    ]


def test_explain_site_filter_narrows_chain():
    chain = explain_entries(_sample_entries(), obj=7, site=4)
    assert [(e["action"], e["site"]) for e in chain] == [("add", 4)]


def test_explain_at_cuts_on_epoch_and_time():
    chain = explain_entries(_sample_entries(), obj=7, at=1.0)
    # the epoch-3 add exceeds the cut; the un-stamped SRA add, the
    # t=0.2 fault and the epoch-1 deferral survive
    assert [e["action"] for e in chain] == ["add", "fault", "defer"]


def test_render_explanation_formats_chain():
    text = render_explanation(_sample_entries(), obj=7)
    assert text.startswith("decision chain for object 7: 4 entries")
    assert "add" in text and "defer" in text
    assert "reason=add-at-failed-site" in text


def test_render_explanation_empty_chain_hint():
    text = render_explanation([], obj=1, site=2, at=5.0)
    assert "object 1 at site 2 up to t=5" in text
    assert "--ledger" in text


# --------------------------------------------------------------------- #
# the process-wide ledger slot
# --------------------------------------------------------------------- #
def test_global_ledger_lifecycle():
    assert LEDGER.recorder is None
    ledger = install_recorder(LEDGER, PlacementLedger)
    try:
        assert LEDGER.recorder is ledger
        assert current_ledger() is ledger
        # idempotent: a second install returns the installed ledger
        assert install_recorder(LEDGER, PlacementLedger) is ledger
    finally:
        uninstall_recorder(LEDGER)
    assert LEDGER.recorder is None


def test_temporary_ledger_restores_previous():
    outer = install_recorder(LEDGER, PlacementLedger)
    try:
        outer.record("add", obj=0, site=0)
        with scoped_ledger() as inner:
            assert current_ledger() is inner
            inner.record("drop", obj=0, site=0)
        assert current_ledger() is outer
        # the scratch ledger never leaked entries into the outer one
        assert [e["action"] for e in outer.entries()] == ["add"]
    finally:
        uninstall_recorder(LEDGER)


def test_temporary_ledger_restores_on_error():
    with pytest.raises(RuntimeError):
        with scoped_ledger():
            raise RuntimeError("boom")
    assert LEDGER.recorder is None
