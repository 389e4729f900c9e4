"""Loader fuzzing: a corrupted input file is a typed error.

Each example saves a small instance (or a scheme with its instance, a
fault plan, a placement ledger, a shrink artifact, a JSONL or Chrome
trace), overwrites one field of the file —
whole, or one element of it — with a huge int, +-inf, NaN, a fraction, a
ragged list, a value of the wrong type or null, and loads it back.  The
load must either raise a :class:`~repro.errors.ReproError` or return
exactly the values the file holds: any other exception, or a value
silently altered on the way in (a fractional primary truncated to an
int), fails.  A ledger that loads must also render under ``repro
explain``, and a trace under ``repro trace``.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.conformance import default_corpus
from repro.conformance.shrink import ShrinkResult, load_artifact, write_artifact
from repro.core import ReplicationScheme
from repro.distributed import DistributedSRA
from repro.errors import ReproError, ValidationError
from repro.io import load_instance, load_scheme, save_instance, save_scheme
from repro.obs.ledger import PlacementLedger, read_ledger, render_explanation
from repro.runtime import scoped_tracer
from repro.sim.faults import (
    CrashWindow,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
    PartitionWindow,
    load_fault_plan,
)
from repro.utils.tracing import FORMAT_CHROME, read_trace
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


# --------------------------------------------------------------------- #
# trace files
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trace_texts(tmp_path_factory):
    """The JSONL and Chrome text of one small traced run.

    A lossy DSRA run supplies spans, protocol events and message
    records; the hand-made records are the ones ``repro trace`` renders
    tables from.
    """
    instance = generate_instance(WorkloadSpec(num_sites=4, num_objects=5), rng=3)
    plan = FaultPlan(messages=MessageFaultSpec(loss=0.2), seed=1)
    tmp = tmp_path_factory.mktemp("trace")
    with scoped_tracer() as tracer:
        DistributedSRA(fault_plan=plan).run(instance)
        with tracer.span("gra.generation", index=0, best=1.5, mean=2.25):
            with tracer.span("cost.batch", rows=4):
                tracer.event("cost.delta", priced=10, applied=2)
        tracer.event("agra.allocate", obj=1, site=2, benefit=3.5)
        tracer.write(str(tmp / "trace.jsonl"))
        tracer.write(str(tmp / "trace.json"), format=FORMAT_CHROME)
    return {
        fmt: (tmp / name).read_text()
        for fmt, name in (("jsonl", "trace.jsonl"), ("chrome", "trace.json"))
    }


def _corrupt(draw, holder) -> None:
    """Delete or overwrite one field of ``holder``, maybe one level down."""
    key = draw(st.sampled_from(sorted(holder)))
    if isinstance(holder[key], dict) and holder[key] and draw(st.booleans()):
        holder, key = holder[key], draw(st.sampled_from(sorted(holder[key])))
    if draw(st.booleans()):
        del holder[key]
    else:
        mutation = draw(st.sampled_from(MUTATIONS))
        holder[key] = _bad_value(draw, mutation, holder[key])


@st.composite
def mutated_jsonl(draw, text):
    lines = [json.loads(line) for line in text.splitlines()]
    target = draw(st.integers(0, 9))
    if target < 3:  # the meta line and its drop counts
        _corrupt(draw, lines[0])
        return lines
    index = draw(st.integers(0, len(lines) - 1))
    if target == 3:  # the whole line is not a record
        lines[index] = _bad_value(draw, draw(st.sampled_from(MUTATIONS)), 1)
    else:
        _corrupt(draw, lines[index])
    return lines


@st.composite
def mutated_chrome(draw, text):
    document = json.loads(text)
    entries = document["traceEvents"]
    if draw(st.integers(0, 9)) < 3:  # the drop counts
        _corrupt(draw, document["otherData"])
    else:
        _corrupt(draw, entries[draw(st.integers(0, len(entries) - 1))])
    return document


def _expected_jsonl(lines):
    """What a JSONL trace holds: its records as written, and the counts."""
    meta = next((r for r in lines if r.get("type") == "meta"), {})
    return {
        "records": [r for r in lines if r.get("type") != "meta"],
        "dropped": meta.get("dropped", 0),
        "dropped_by_kind": meta.get("dropped_by_kind") or {},
    }


def _number(value):
    assert isinstance(value, (int, float)) and not isinstance(value, bool)
    return value


def _expected_chrome(document):
    """What a Chrome trace holds: each ``X``/``i`` entry as a record."""
    records = []
    for entry in document["traceEvents"]:
        if entry.get("ph") not in ("X", "i"):
            continue
        args = dict(entry.get("args") or {})
        if isinstance(args.get("attrs"), dict):
            ids = {"id": args.get("id"), "parent": args.get("parent")}
            attrs = args["attrs"]
        else:  # the pre-namespacing layout: attributes flat in args
            ids = {"id": args.pop("id", None), "parent": args.pop("parent", None)}
            attrs = args
        record = {
            **ids, "name": entry.get("name"), "pid": entry.get("pid", 0),
            "attrs": attrs,
        }
        start = _number(entry.get("ts")) / 1e6
        if entry["ph"] == "X":
            end = start + _number(entry.get("dur")) / 1e6
            record.update(type="span", start=start, end=end)
        else:
            record.update(type="event", time=start)
        records.append(record)
    meta = document.get("otherData") or {}
    return {
        "records": records,
        "dropped": meta.get("dropped", 0),
        "dropped_by_kind": meta.get("dropped_by_kind") or {},
    }


def _dumped(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_trace_is_rejected_or_loaded_exactly(trace_texts, fmt, data):
    if fmt == "jsonl":
        lines = data.draw(mutated_jsonl(trace_texts[fmt]))
        text = "".join(json.dumps(line) + "\n" for line in lines)
    else:
        document = data.draw(mutated_chrome(trace_texts[fmt]))
        text = json.dumps(document)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace"
        path.write_text(text)
        try:
            loaded = read_trace(str(path))
        except ValidationError:
            loaded = None
        # what loads, `repro trace` renders; what does not is a clean error
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["trace", str(path)])
    if loaded is None:
        assert status == 1
        assert err.getvalue().startswith("error: ")
        return
    assert status == 0, err.getvalue()
    expected = _expected_jsonl(lines) if fmt == "jsonl" else _expected_chrome(document)
    assert _dumped(loaded) == _dumped(expected)
