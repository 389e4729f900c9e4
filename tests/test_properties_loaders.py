"""Loader fuzzing: a corrupted input file is a typed error.

Each example saves a small instance (or a scheme with its instance, a
fault plan, a placement ledger, a shrink artifact), overwrites one field of the file —
whole, or one element of it — with a huge int, +-inf, NaN, a fraction, a
ragged list, a value of the wrong type or null, and loads it back.  The
load must either raise a :class:`~repro.errors.ReproError` or return
exactly the values the file holds: any other exception, or a value
silently altered on the way in (a fractional primary truncated to an
int), fails.  A ledger that loads must also render under ``repro
explain``.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.conformance import default_corpus
from repro.conformance.shrink import ShrinkResult, load_artifact, write_artifact
from repro.core import ReplicationScheme
from repro.errors import ReproError
from repro.io import load_instance, load_scheme, save_instance, save_scheme
from repro.obs.ledger import PlacementLedger, read_ledger, render_explanation
from repro.sim.faults import (
    CrashWindow,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
    PartitionWindow,
    load_fault_plan,
)
from repro.workload import WorkloadSpec, generate_instance

_INSTANCE_FIELDS = ("cost", "sizes", "capacities", "reads", "writes", "primaries")

#: (file kind, section of the document, field) for every numeric field
TARGETS = [("instance", "data", f) for f in _INSTANCE_FIELDS] + [
    ("scheme", "instance", f) for f in _INSTANCE_FIELDS
] + [("scheme", "scheme", "matrix")]

MUTATIONS = (
    "huge-int", "inf", "-inf", "nan", "fraction", "ragged", "wrong-type", "null",
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The text of a saved instance file and of a saved scheme file."""
    instance = generate_instance(WorkloadSpec(num_sites=4, num_objects=5), rng=3)
    tmp = tmp_path_factory.mktemp("saved")
    save_instance(instance, tmp / "instance.json")
    save_scheme(ReplicationScheme(instance), tmp / "scheme.json")
    return {
        kind: (tmp / f"{kind}.json").read_text() for kind in ("instance", "scheme")
    }


def _bad_value(draw, mutation: str, old):
    if mutation == "huge-int":
        # past int64, past uint64, past the float range, below int64
        return draw(st.sampled_from([2**63, 2**64, 10**400, -(2**63) - 1]))
    if mutation == "fraction":
        return (old if isinstance(old, (int, float)) else 0) + 0.5
    if mutation == "ragged":
        return [old, [old, old]]
    if mutation == "wrong-type":
        return draw(st.sampled_from(["x", {"a": 1}]))
    return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan, "null": None}[
        mutation
    ]


@st.composite
def mutated_documents(draw, text: str, section: str, field: str):
    """The saved document ``text`` with ``section[field]`` corrupted."""
    document = json.loads(text)
    mutation = draw(st.sampled_from(MUTATIONS))
    holder, key = document[section], field
    # Descend into the (possibly nested) list to corrupt one element.
    while isinstance(holder[key], list) and draw(st.booleans()):
        holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
    holder[key] = _bad_value(draw, mutation, holder[key])
    return document


def _load_faithfully(kind: str, path: Path, document: dict) -> None:
    if kind == "instance":
        assert load_instance(path).to_dict() == document["data"]
    else:
        scheme = load_scheme(path)
        assert scheme.instance.to_dict() == document["instance"]
        assert scheme.to_dict() == document["scheme"]


@pytest.mark.parametrize(
    "kind, section, field", TARGETS, ids=[f"{k}-{f}" for k, _, f in TARGETS]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_field_is_rejected_or_loaded_exactly(
    saved, kind, section, field, data
):
    document = data.draw(mutated_documents(saved[kind], section, field))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        # allow_nan (the default) writes the bare Infinity/NaN tokens the
        # stdlib JSON reader accepts
        path.write_text(json.dumps(document))
        try:
            _load_faithfully(kind, path, document)
        except ReproError:
            pass


# --------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------- #
SAMPLE_PLAN = FaultPlan(
    crashes=(CrashWindow(1, 0.2, 0.7), CrashWindow(0, 0.1)),
    degradations=(
        LinkDegradation(0, 2, 4.0, 0.1, 0.9),
        LinkDegradation(1, 3, math.inf, 0.3, 0.5, symmetric=False),
    ),
    partitions=(PartitionWindow((3, 4), 0.4, 0.6),),
    messages=MessageFaultSpec(loss=0.1, duplicate=0.05, delay_mean=0.5),
    seed=9,
)

#: (section, field): a field of one window, of ``messages``, or top-level
PLAN_TARGETS = (
    [("crashes", f) for f in ("site", "start", "end")]
    + [("degradations", f) for f in (
        "src", "dst", "factor", "start", "end", "symmetric"
    )]
    + [("partitions", f) for f in ("group", "start", "end")]
    + [("messages", f) for f in ("loss", "duplicate", "delay_mean")]
    + [(None, f) for f in (
        "seed", "crashes", "degradations", "partitions", "messages"
    )]
)


@st.composite
def mutated_plans(draw, section, field):
    """``SAMPLE_PLAN``'s document with one field corrupted."""
    document = SAMPLE_PLAN.to_dict()
    mutation = draw(st.sampled_from(MUTATIONS))
    holder = document if section is None else document[section]
    if isinstance(holder, list):
        holder = holder[draw(st.integers(0, len(holder) - 1))]
    key = field
    while isinstance(holder[key], list) and draw(st.booleans()):
        holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
    holder[key] = _bad_value(draw, mutation, holder[key])
    return document


def _plan_values(document):
    """A plan document with the severed-link sentinel read as ``inf``."""
    document = json.loads(json.dumps(document))
    for link in document.get("degradations", []):
        if link.get("factor") == "inf":
            link["factor"] = math.inf
    return document


@pytest.mark.parametrize(
    "section, field", PLAN_TARGETS, ids=[f"{s}-{f}" for s, f in PLAN_TARGETS]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_fault_plan_is_rejected_or_loaded_exactly(section, field, data):
    document = data.draw(mutated_plans(section, field))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        path.write_text(json.dumps(document))
        try:
            plan = load_fault_plan(str(path))
        except ReproError:
            return
    assert _plan_values(plan.to_dict()) == _plan_values(document)


def test_bad_fault_plan_on_the_cli_is_a_clean_error(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    scheme = tmp_path / "scheme.json"
    save_instance(
        generate_instance(WorkloadSpec(num_sites=4, num_objects=5), rng=3),
        instance,
    )
    assert main([
        "solve", str(instance), "--algorithm", "sra",
        "--save-scheme", str(scheme),
    ]) == 0
    document = SAMPLE_PLAN.to_dict()
    document["messages"] = ["not", "an", "object"]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["simulate", str(scheme), "--faults", str(plan)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# --------------------------------------------------------------------- #
# ledgers
# --------------------------------------------------------------------- #
def _sample_ledger_entries():
    """The entries of a small ledger, as its JSONL file holds them."""
    ledger = PlacementLedger()
    with ledger.scope(algorithm="agra", epoch=2, trigger="pattern-drift"):
        ledger.record("add", obj=0, site=1, source=3, benefit=12.5)
        ledger.record("defer", obj=0, site=2, reason="add-at-failed-site")
    ledger.record("fault", site=1, fault="site_crash", time=0.25)
    ledger.record("drop", obj=0, site=1)
    buffer = io.StringIO()
    ledger.write_jsonl(buffer)
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_ledger_is_rejected_or_loaded_exactly(data):
    entries = _sample_ledger_entries()
    entry = entries[data.draw(st.integers(0, len(entries) - 1))]
    key = data.draw(st.sampled_from(sorted(entry)))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    entry[key] = _bad_value(data.draw, mutation, entry[key])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        try:
            loaded = read_ledger(str(path))
        except ReproError:
            return
    assert json.dumps(loaded) == json.dumps(entries)
    # what loads, `repro explain` can render
    for obj in (0, 1):
        render_explanation(loaded, obj)
        render_explanation(loaded, obj, site=1, at=5.0)


# --------------------------------------------------------------------- #
# shrink artifacts
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def artifact_text(tmp_path_factory):
    """The text of a shrink artifact for the corpus scenario with faults."""
    scenario = next(sc for sc in default_corpus() if sc.fault_plan is not None)
    instance = scenario.build()
    result = ShrinkResult(
        instance=instance,
        failures=["sparse-tiled: total cost differs"],
        original_sites=instance.num_sites,
        original_objects=instance.num_objects,
        steps=["drop-site-3"],
        evaluations=4,
        scenario=scenario,
    )
    path = tmp_path_factory.mktemp("artifact") / "repro.json"
    write_artifact(result, str(path))
    return path.read_text()


#: what ``Scenario.from_dict`` fills in for an absent optional field
_SCENARIO_DEFAULTS = {
    "update_ratio": 0.05, "capacity_ratio": 0.15, "topology": "paper",
    "tags": [], "fault_plan": None,
}

#: (section, field): a top-level field, or one of the scenario or instance
ARTIFACT_TARGETS = (
    [(None, f) for f in ("summary", "instance", "scenario")]
    + [("scenario", f) for f in (
        "name", "seed", "num_sites", "num_objects", "update_ratio",
        "capacity_ratio", "topology", "tags", "fault_plan",
    )]
    + [("instance", f) for f in _INSTANCE_FIELDS]
)


def _scenario_values(scenario) -> dict:
    values = scenario.to_dict()
    plan = scenario.fault_plan
    values["fault_plan"] = None if plan is None else _plan_values(plan.to_dict())
    return values


@pytest.mark.parametrize(
    "section, field",
    ARTIFACT_TARGETS,
    ids=[f"{s or 'top'}-{f}" for s, f in ARTIFACT_TARGETS],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_corrupted_shrink_artifact_is_rejected_or_loaded_exactly(
    artifact_text, section, field, data
):
    document = json.loads(artifact_text)
    holder = document if section is None else document[section]
    if data.draw(st.booleans()):
        del holder[field]  # a field missing altogether
    else:
        mutation = data.draw(st.sampled_from(MUTATIONS))
        key = field
        while isinstance(holder[key], list) and data.draw(st.booleans()):
            holder, key = holder[key], data.draw(
                st.integers(0, len(holder[key]) - 1)
            )
        holder[key] = _bad_value(data.draw, mutation, holder[key])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.json"
        path.write_text(json.dumps(document))
        try:
            loaded = load_artifact(str(path))
        except ReproError:
            return
    assert loaded["summary"] == document["summary"]
    assert loaded["instance"].to_dict() == document["instance"]
    if "scenario" in document:
        expected = {**_SCENARIO_DEFAULTS, **document["scenario"]}
        if expected["fault_plan"] is not None:
            expected["fault_plan"] = _plan_values(expected["fault_plan"])
        assert _scenario_values(loaded["scenario"]) == expected


@pytest.mark.parametrize("damage", ["summary", "scenario-name"])
def test_damaged_artifact_replay_is_a_clean_error(
    artifact_text, tmp_path, capsys, damage
):
    document = json.loads(artifact_text)
    if damage == "summary":
        del document["summary"]
    else:
        del document["scenario"]["name"]
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(document))
    assert main(["conform", "shrink", "--artifact", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
