"""The CLI entry point and report rendering."""

from __future__ import annotations

import pytest

from repro.experiments.report import render_figure, render_figures
from repro.experiments.runner import build_parser, main
from tests.test_experiments_figures import MICRO


def test_parser_accepts_known_figures():
    args = build_parser().parse_args(["--figure", "fig1a"])
    assert args.figure == ["fig1a"]


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--figure", "fig99"])


def test_main_without_args_prints_help(capsys):
    assert main([]) == 2
    out = capsys.readouterr().out
    assert "repro-experiments" in out


def test_render_figures_micro(capsys):
    text = render_figures(["fig3a"], MICRO, seed=2)
    assert "fig3a" in text
    assert "GRA" in text


def test_render_figure_precision():
    from repro.experiments.figures import fig3a, clear_cache

    clear_cache()
    result = fig3a(MICRO, seed=3)
    text = render_figure(result, precision=1)
    assert "fig3a" in text


def test_parser_accepts_parallel_and_metrics():
    args = build_parser().parse_args(
        ["--figure", "fig1a", "--parallel", "4", "--metrics"]
    )
    assert args.parallel == 4
    assert args.metrics is True
    defaults = build_parser().parse_args(["--figure", "fig1a"])
    assert defaults.parallel is None
    assert defaults.metrics is False


def test_main_metrics_flag_prints_registry(capsys, monkeypatch):
    from repro.experiments import runner as runner_mod
    from repro.experiments.figures import clear_cache
    from repro.utils.metrics import METRICS

    clear_cache()
    monkeypatch.setattr(runner_mod, "get_profile", lambda name="": MICRO)
    assert main(["--figure", "fig3a", "--metrics", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "fig3a" in out
    assert "metrics:" in out
    assert "solve.SRA" in out
    assert "cost.cache_" in out
    # the flag must not leak a process-wide registry past main()
    assert METRICS.recorder is None
    clear_cache()


def test_main_parallel_flag_resets_default(monkeypatch, capsys):
    from repro.experiments import runner as runner_mod
    from repro.experiments.figures import clear_cache
    from repro.experiments.parallel import resolve_max_workers

    clear_cache()
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    monkeypatch.setattr(runner_mod, "get_profile", lambda name="": MICRO)
    assert main(["--figure", "fig3a", "--parallel", "2", "--seed", "8"]) == 0
    assert "fig3a" in capsys.readouterr().out
    # configure(None) restored on exit
    assert resolve_max_workers() == 1
    clear_cache()


def test_main_trace_flag_writes_trace(monkeypatch, capsys, tmp_path):
    import repro.experiments.runner as runner_mod
    from repro.utils.tracing import TRACER, read_trace

    monkeypatch.setattr(runner_mod, "get_profile", lambda name="": MICRO)
    trace_path = tmp_path / "sweep.trace.jsonl"
    assert main([
        "--figure", "fig3a", "--seed", "9", "--trace", str(trace_path),
    ]) == 0
    assert "trace written" in capsys.readouterr().out
    # the flag must not leak a process-wide tracer past main()
    assert TRACER.recorder is None
    records = read_trace(str(trace_path))["records"]
    names = {r["name"] for r in records}
    assert "harness.average_static_runs" in names
    assert "harness.task" in names
