"""The ``repro`` command-line interface, exercised through main()."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io import load_instance, load_scheme


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main([
        "generate", "--sites", "8", "--objects", "14",
        "--seed", "5", "-o", str(path),
    ]) == 0
    return path


@pytest.fixture()
def scheme_file(instance_file, tmp_path):
    path = tmp_path / "scheme.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(path),
    ]) == 0
    return path


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "repro" in capsys.readouterr().out


def test_generate_writes_instance(instance_file):
    instance = load_instance(instance_file)
    assert instance.num_sites == 8
    assert instance.num_objects == 14


def test_solve_and_save_scheme(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "SRA" in out
    scheme = load_scheme(scheme_path)
    assert scheme.is_valid()


def test_solve_gra_with_generations(instance_file, capsys):
    assert main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "4", "--seed", "1",
    ]) == 0
    assert "GRA" in capsys.readouterr().out


def test_solve_optimal_rejects_large(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["generate", "--sites", "12", "--objects", "20", "-o", str(big)])
    assert main(["solve", str(big), "--algorithm", "optimal"]) == 1
    assert "error" in capsys.readouterr().err


def test_evaluate(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    assert main(["evaluate", str(scheme_path)]) == 0
    out = capsys.readouterr().out
    assert "savings" in out


def test_simulate_matches_analytic(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    assert main(["simulate", str(scheme_path), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "exact match:       True" in out


@pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "0"])
def test_simulate_rejects_bad_duration(scheme_file, capsys, duration):
    assert main(["simulate", str(scheme_file), f"--duration={duration}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duration must be finite and > 0")


@pytest.mark.parametrize("command", ["generate", "solve", "simulate", "compare"])
def test_negative_seed_is_clean_error(instance_file, scheme_file, tmp_path,
                                      capsys, command):
    argv = {
        "generate": ["generate", "--sites", "5", "--objects", "6",
                     "-o", str(tmp_path / "out.json")],
        # SRA draws nothing; GRA seeds its generator from --seed
        "solve": ["solve", str(instance_file), "--algorithm", "gra",
                  "--generations", "1"],
        "simulate": ["simulate", str(scheme_file)],
        "compare": ["compare", "--sites", "5", "--objects", "6",
                    "--instances", "1"],
    }[command]
    assert main(argv + ["--seed=-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["solve-sra", "solve-none", "conform"])
def test_negative_seed_rejected_before_any_file(instance_file, tmp_path,
                                                capsys, command):
    """A negative seed fails even where nothing draws from it."""
    outputs = [tmp_path / name for name in ("scheme.json", "t.jsonl",
                                            "m.om", "report.json")]
    scheme, trace, om, report = (str(path) for path in outputs)
    argv = {
        "solve-sra": ["solve", str(instance_file), "--algorithm", "sra",
                      "--save-scheme", scheme],
        "solve-none": ["solve", str(instance_file), "--algorithm", "none",
                       "--save-scheme", scheme],
        # without --budget the sweep seed is never used
        "conform": ["conform", "run", "--json", report],
    }[command]
    argv += ["--trace", trace, "--openmetrics", om, "--seed", "-3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -3\n"
    assert captured.out == ""
    assert not any(path.exists() for path in outputs)


def test_simulate_faults_counts_requests_as_events(scheme_file, tmp_path,
                                                   capsys):
    """Under ``--faults`` the processed count is the requests replayed;
    fault transitions are not counted as events."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "seed": 9,
        "crashes": [{"site": 1, "start": 0.2, "end": 0.7}],
        "partitions": [{"group": [3], "start": 0.4, "end": 0.6}],
    }))
    om = tmp_path / "sim.om"
    assert main([
        "simulate", str(scheme_file), "--seed", "2", "--faults", str(plan),
        "--openmetrics", str(om),
    ]) == 0
    out = capsys.readouterr().out
    assert "(4 fault events applied)" in out
    requests = next(
        line.split(":")[1] for line in out.splitlines()
        if line.startswith("requests replayed:")
    )
    gauge = next(
        line.split()[1] for line in om.read_text().splitlines()
        if line.startswith("repro_sim_events_processed ")
    )
    assert float(gauge) == int(requests.strip().replace(",", ""))


def test_compare(capsys):
    assert main([
        "compare", "--sites", "6", "--objects", "10",
        "--instances", "2", "--algorithm", "sra", "--algorithm", "none",
    ]) == 0
    out = capsys.readouterr().out
    assert "best by mean savings" in out


def test_missing_file_is_clean_error(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_binary_instance_file_is_clean_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "not UTF-8 text" in captured.err


def test_directory_as_instance_is_clean_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "cannot read" in captured.err


#: one bad ``primaries`` entry of an instance file: (value, message)
_BAD_PRIMARIES = {
    "infinite": (float("inf"), "'primaries' is not a numeric array"),
    "fractional": (0.9, "'primaries' holds a non-integral site index"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PRIMARIES))
def test_bad_primary_is_clean_error(case, tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["generate", "--sites", "4", "--objects", "4",
                 "--seed", "1", "-o", str(path)]) == 0
    value, message = _BAD_PRIMARIES[case]
    document = json.loads(path.read_text())
    document["data"]["primaries"][0] += value
    path.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err


#: every other reader of a user-named file: argv for a path ``P``
_FILE_READERS = {
    "trace": lambda p, tmp: ["trace", p],
    "explain": lambda p, tmp: ["explain", p, "--object", "0"],
    "faults": lambda p, tmp: [
        "generate", "--sites", "4", "--objects", "4",
        "-o", str(tmp / "out.json"), "--faults", p,
    ],
    "shrink-artifact": lambda p, tmp: ["conform", "shrink", "--artifact", p],
}


@pytest.mark.parametrize("reader", sorted(_FILE_READERS))
def test_binary_file_to_reader_is_clean_error(reader, tmp_path, capsys):
    path = tmp_path / "bin.dat"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    assert main(_FILE_READERS[reader](str(path), tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "not UTF-8 text" in captured.err


@pytest.mark.parametrize("reader", sorted(_FILE_READERS))
def test_directory_to_reader_is_clean_error(reader, tmp_path, capsys):
    target = tmp_path / "adir"
    target.mkdir()
    assert main(_FILE_READERS[reader](str(target), tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "cannot read" in captured.err


#: valid JSON of the wrong shape for ``repro trace``: (text, message)
_MALFORMED_TRACES = {
    "line-is-list": ("[1,2]\n", ":1: expected a JSON object, got list"),
    "line-is-number": ("3\n", ":1: expected a JSON object, got int"),
    "span-without-times": (
        '{"type":"span","name":"x"}\n', ":1: a span needs a name"
    ),
    "chrome-event-not-object": (
        '{"traceEvents":[1]}', "traceEvents[0]: expected a JSON object"
    ),
    "chrome-events-not-list": (
        '{"traceEvents":5}', "traceEvents must be a list"
    ),
    "meta-dropped-not-number": (
        '{"type":"meta","dropped":"x"}\n', ":1: malformed dropped count"
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TRACES))
def test_wrong_shape_trace_is_clean_error(case, tmp_path, capsys):
    text, message = _MALFORMED_TRACES[case]
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err


#: 5,000 digits: past Python's int-string conversion limit of 4,300
_HUGE_INT = "9" * 5000

#: a file holding one over-long int literal, per reader: (argv, content)
_HUGE_INT_FILES = {
    "simulate-faults": (
        lambda p, scheme: ["simulate", scheme, "--faults", p],
        '{"seed": %s}' % _HUGE_INT,
    ),
    "explain": (
        lambda p, scheme: ["explain", p, "--object", "0"],
        '{"seq": %s, "action": "add", "obj": 0, "site": 0}\n' % _HUGE_INT,
    ),
    "trace-jsonl": (
        lambda p, scheme: ["trace", p],
        '{"type": "meta", "dropped": %s}\n' % _HUGE_INT,
    ),
    "trace-chrome": (
        lambda p, scheme: ["trace", p],
        '{"traceEvents": [], "otherData": {"dropped": %s}}' % _HUGE_INT,
    ),
    "shrink-artifact": (
        lambda p, scheme: ["conform", "shrink", "--artifact", p],
        '{"kind": %s}' % _HUGE_INT,
    ),
}


@pytest.mark.parametrize("case", sorted(_HUGE_INT_FILES))
def test_int_past_digit_limit_is_clean_error(case, instance_file, tmp_path, capsys):
    argv, content = _HUGE_INT_FILES[case]
    scheme = tmp_path / "scheme.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme),
    ]) == 0
    path = tmp_path / "huge.json"
    path.write_text(content)
    capsys.readouterr()
    assert main(argv(str(path), str(scheme))) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "digits" in captured.err


def test_wrong_shape_ledger_is_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.ledger.jsonl"
    path.write_text('{"seq": 0, "action": "add", "obj": 0, "site": 0}\n[1,2]\n')
    assert main(["explain", str(path), "--object", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert ":2: expected a JSON object, got list" in captured.err


def _sizes_not_numeric(document):
    document["data"]["sizes"] = "x"


#: right ``kind``, wrong shape: (command, edit, message)
_MALFORMED_DOCUMENTS = {
    "instance-without-data": (
        "solve", lambda d: d.pop("data"), "has no 'data' field"
    ),
    "instance-data-is-list": (
        "solve", lambda d: d.update(data=[]), "must be a JSON object, got list"
    ),
    "instance-sizes-not-numeric": (
        "solve", _sizes_not_numeric, "field 'sizes' is not a numeric array"
    ),
    "scheme-without-scheme": (
        "simulate", lambda d: d.pop("scheme"), "has no 'scheme' field"
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCUMENTS))
def test_wrong_shape_document_is_clean_error(
    case, instance_file, tmp_path, capsys
):
    command, edit, message = _MALFORMED_DOCUMENTS[case]
    source = instance_file
    if command == "simulate":
        source = tmp_path / "scheme.json"
        assert main([
            "solve", str(instance_file), "--algorithm", "sra",
            "--save-scheme", str(source),
        ]) == 0
    document = json.loads(source.read_text())
    edit(document)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_wrong_shape_shrink_artifact_is_clean_error(tmp_path, capsys):
    from repro.conformance.shrink import ARTIFACT_KIND, ARTIFACT_VERSION

    path = tmp_path / "CONFORM_repro.json"
    path.write_text(json.dumps(
        {"kind": ARTIFACT_KIND, "version": ARTIFACT_VERSION, "instance": {}}
    ))
    assert main(["conform", "shrink", "--artifact", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "has no 'cost' field" in captured.err


def test_figures_delegates(capsys):
    assert main(["figures"]) == 2  # no figure selected: help + exit 2
    assert "repro-experiments" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# --trace / repro trace
# --------------------------------------------------------------------- #
def test_solve_trace_gra_spans_match_history(instance_file, tmp_path, capsys):
    from repro.utils.tracing import TRACER, read_trace

    trace_path = tmp_path / "gra.trace.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "5", "--seed", "1",
        "--trace", str(trace_path), "--trace-format", "chrome",
    ]) == 0
    assert "trace written" in capsys.readouterr().out
    assert TRACER.recorder is None  # the CLI cleans up after itself
    records = read_trace(str(trace_path))["records"]
    generations = [r for r in records if r["name"] == "gra.generation"]
    # 5 generations + the seeded population = 6 spans, one per
    # convergence record
    assert len(generations) == 6
    assert sorted(r["attrs"]["index"] for r in generations) == list(range(6))
    assert all("best" in r["attrs"] for r in generations)


def test_trace_subcommand_renders_convergence(instance_file, tmp_path, capsys):
    trace_path = tmp_path / "gra.trace.jsonl"
    main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "4", "--seed", "1", "--trace", str(trace_path),
    ])
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "GRA convergence" in out
    assert "top spans by self time" in out
    assert "gra.generation" in out


def test_simulate_trace_and_latency_summary(instance_file, tmp_path, capsys):
    from repro.utils.tracing import read_trace

    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    trace_path = tmp_path / "sim.trace.jsonl"
    assert main([
        "simulate", str(scheme_path), "--duration", "0.5", "--seed", "2",
        "--trace", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "read_p95" in out
    assert "write_p99" in out
    records = read_trace(str(trace_path))["records"]
    assert any(r["name"] == "sim.run" for r in records)


def test_compare_trace(tmp_path, capsys):
    from repro.utils.tracing import read_trace

    trace_path = tmp_path / "cmp.trace.jsonl"
    assert main([
        "compare", "--sites", "8", "--objects", "10", "--instances", "2",
        "--algorithm", "sra", "--trace", str(trace_path),
    ]) == 0
    assert "best by mean savings" in capsys.readouterr().out
    records = read_trace(str(trace_path))["records"]
    assert any(r["name"] == "sra.solve" for r in records)


def test_trace_subcommand_missing_file_is_clean_error(capsys):
    assert main(["trace", "no-such-trace.jsonl"]) != 0
