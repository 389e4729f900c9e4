"""Shared command-line option layer for the cross-cutting flags.

``--trace``, ``--profile``, ``--openmetrics``/``--telemetry``,
``--metrics``, ``--ledger``, ``--faults`` and ``--parallel`` used to be
re-declared
(with drifting help text and teardown order) by every subcommand that
wanted them.  This module defines each flag group **once**;
:func:`add_runtime_options` installs any subset on a parser, and
:func:`runtime_session` turns the parsed namespace into an installed
:class:`~repro.runtime.context.RunContext`, writing the requested
output files on the way out in the CLI's documented order:

1. the execution trace (written even when the command body raises, so a
   failed run still leaves its trace behind for diagnosis),
2. the deterministic profile (file + rendered hot-stack table),
3. the final telemetry snapshot (exporters flushed by the context's
   teardown) and its confirmation lines.

Parsers record which groups they installed in a ``_runtime_options``
default, so :func:`context_from_args` never misreads an unrelated
destination (``repro-experiments`` keeps its ``--profile quick|paper``
*scale* flag, which is exactly why probing ``args.profile`` blindly
would be wrong).
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.errors import ValidationError
from repro.runtime.context import RunContext
from repro.utils.profiler import FORMAT_COLLAPSED, PROFILE_FORMATS
from repro.utils.telemetry import JsonlExporter, OpenMetricsExporter
from repro.utils.tracing import FORMAT_JSONL, FORMATS

GROUP_TRACE = "trace"
GROUP_PROFILE = "profile"
GROUP_TELEMETRY = "telemetry"
GROUP_METRICS = "metrics"
GROUP_LEDGER = "ledger"
GROUP_FAULTS = "faults"
GROUP_PARALLEL = "parallel"

#: every group, in installation order
ALL_GROUPS = (
    GROUP_TRACE,
    GROUP_PROFILE,
    GROUP_TELEMETRY,
    GROUP_METRICS,
    GROUP_LEDGER,
    GROUP_FAULTS,
    GROUP_PARALLEL,
)


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record an execution trace to FILE (inspect with "
        "`repro trace FILE`)",
    )
    parser.add_argument(
        "--trace-format",
        choices=sorted(FORMATS),
        default=FORMAT_JSONL,
        help="trace file format: jsonl (default) or chrome "
        "(Perfetto / chrome://tracing)",
    )


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help="write a deterministic progress-count profile to FILE "
        "(see docs/telemetry.md)",
    )
    parser.add_argument(
        "--profile-format",
        choices=sorted(PROFILE_FORMATS),
        default=FORMAT_COLLAPSED,
        help="profile file format: collapsed (flamegraph.pl) or "
        "speedscope (speedscope.app)",
    )
    parser.add_argument(
        "--profile-every",
        type=int,
        default=1,
        metavar="N",
        help="sample one stack per N progress ticks (default 1)",
    )


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--openmetrics",
        default=None,
        metavar="FILE",
        help="export final metric state to FILE in OpenMetrics v1 "
        "text format",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="append JSONL telemetry snapshots to FILE (one line per "
        "snapshot; per-epoch for adaptive runs)",
    )


def _add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect cost-kernel cache counters and per-phase timers "
        "for the run (commands that report them print the table)",
    )


def _add_ledger(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="record every replica add/drop/deferral with full "
        "attribution to FILE as JSONL (inspect with `repro explain`)",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="load a JSON fault plan into the run context; commands "
        "that replay traces inject it (see docs/fault_injection.md)",
    )


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="fan parallelisable work out over N worker processes "
        "(default: serial, or $REPRO_PARALLEL); results are "
        "bit-identical to serial for the same seed",
    )


_ADDERS = {
    GROUP_TRACE: _add_trace,
    GROUP_PROFILE: _add_profile,
    GROUP_TELEMETRY: _add_telemetry,
    GROUP_METRICS: _add_metrics,
    GROUP_LEDGER: _add_ledger,
    GROUP_FAULTS: _add_faults,
    GROUP_PARALLEL: _add_parallel,
}


def add_runtime_options(
    parser: argparse.ArgumentParser,
    include: Sequence[str] = ALL_GROUPS,
    exclude: Sequence[str] = (),
) -> argparse.ArgumentParser:
    """Install the shared flag groups on ``parser`` (the one place).

    ``exclude`` skips groups whose option strings a command already owns
    for a domain meaning (``repro-experiments --profile`` selects the
    scale profile, so it excludes :data:`GROUP_PROFILE`).
    """
    groups = []
    for group in include:
        if group in exclude:
            continue
        adder = _ADDERS.get(group)
        if adder is None:
            raise ValueError(f"unknown runtime option group {group!r}")
        adder(parser)
        groups.append(group)
    parser.set_defaults(_runtime_options=tuple(groups))
    return parser


def context_from_args(
    args: argparse.Namespace,
    registry=None,
) -> RunContext:
    """Build an (uninstalled) :class:`RunContext` from parsed flags.

    Only destinations belonging to groups the parser installed are
    consulted.  ``registry`` rides along as the context's explicit
    metrics registry (the conformance runner always collects one).
    A negative ``--seed`` raises :class:`ValidationError` here, before
    any subcommand writes a file.
    """
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    groups = frozenset(getattr(args, "_runtime_options", ()))
    trace = GROUP_TRACE in groups and bool(args.trace)
    profile = GROUP_PROFILE in groups and bool(args.profile)
    openmetrics = (
        args.openmetrics if GROUP_TELEMETRY in groups else None
    )
    jsonl = args.telemetry if GROUP_TELEMETRY in groups else None
    exporters = []
    if openmetrics:
        exporters.append(OpenMetricsExporter(openmetrics))
    if jsonl:
        exporters.append(JsonlExporter(jsonl))
    fault_plan = None
    if GROUP_FAULTS in groups and args.faults:
        from repro.sim.faults import load_fault_plan

        fault_plan = load_fault_plan(args.faults)
    return RunContext(
        seed=seed,
        trace=trace,
        profile=profile,
        profile_every=(
            args.profile_every if GROUP_PROFILE in groups else 1
        ),
        telemetry=bool(openmetrics or jsonl),
        exporters=exporters,
        metrics=GROUP_METRICS in groups and bool(args.metrics),
        registry=registry,
        ledger=GROUP_LEDGER in groups and bool(args.ledger),
        fault_plan=fault_plan,
        max_workers=(
            args.parallel if GROUP_PARALLEL in groups else None
        ),
    )


@contextmanager
def runtime_session(
    args: argparse.Namespace,
    registry=None,
    ctx: Optional[RunContext] = None,
) -> Iterator[RunContext]:
    """One installed context around a subcommand body.

    Yields the context; on exit (error or not) writes the trace and
    profile files, tears the context down (flushing telemetry), and
    prints the confirmation lines in the established order.
    """
    if ctx is None:
        ctx = context_from_args(args, registry=registry)
    groups = frozenset(getattr(args, "_runtime_options", ()))
    ctx.install()
    try:
        yield ctx
    finally:
        if GROUP_TRACE in groups and args.trace:
            ctx.tracer.write(args.trace, format=args.trace_format)
            print(f"trace written to {args.trace} ({args.trace_format})")
        if GROUP_PROFILE in groups and args.profile:
            ctx.profiler.write(args.profile, format=args.profile_format)
            print(
                f"profile written to {args.profile} "
                f"({args.profile_format})"
            )
            print(ctx.profiler.render())
        if GROUP_LEDGER in groups and args.ledger:
            ctx.ledger.write(args.ledger)
            print(f"ledger written to {args.ledger} (jsonl)")
        ctx.teardown()
        if GROUP_TELEMETRY in groups:
            if args.openmetrics:
                print(f"openmetrics written to {args.openmetrics}")
            if args.telemetry:
                print(f"telemetry snapshots appended to {args.telemetry}")


__all__ = [
    "ALL_GROUPS",
    "GROUP_FAULTS",
    "GROUP_LEDGER",
    "GROUP_METRICS",
    "GROUP_PARALLEL",
    "GROUP_PROFILE",
    "GROUP_TELEMETRY",
    "GROUP_TRACE",
    "add_runtime_options",
    "context_from_args",
    "runtime_session",
]
