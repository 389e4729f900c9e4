"""The ``repro`` command-line interface.

Subcommands:

* ``generate`` — synthesise a Section 6.1 instance and save it as JSON;
* ``solve``    — run an algorithm on a saved instance, report quality,
  optionally save the scheme;
* ``evaluate`` — re-evaluate a saved scheme (e.g. under a different
  instance file with drifted patterns);
* ``simulate`` — replay a request trace through the Section 2.1
  protocol and cross-check the analytic cost;
* ``compare``  — run several algorithms over freshly generated
  instances and print mean savings with confidence intervals;
* ``figures``  — alias of ``repro-experiments`` (reproduce the paper's
  figures);
* ``trace``    — summarise a trace file written by ``--trace`` (top
  spans by self time, per-phase breakdown, GRA convergence, AGRA
  decisions; ``--causal`` adds happens-before analysis);
* ``explain``  — print the decision chain for one object from a
  ``--ledger`` file (see ``docs/causality.md``);
* ``conform``  — run the differential conformance oracle over the
  scenario corpus (``run``), list scenarios and invariants
  (``corpus``), and minimise a failing scenario to a JSON repro
  artifact (``shrink``).  See ``docs/conformance.md``.

Algorithms are resolved through the capability-declaring
:class:`~repro.runtime.registry.SolverRegistry`; the cross-cutting
flags — ``--trace``/``--trace-format``, ``--profile`` family,
``--openmetrics``/``--telemetry``, ``--metrics``, ``--ledger``,
``--faults`` and ``--parallel`` — are defined once in
:mod:`repro.runtime.cli_options` and accepted by every subcommand,
wired through one :class:`~repro.runtime.context.RunContext` per
invocation.  See ``docs/architecture.md``, ``docs/observability.md``
and ``docs/telemetry.md``.

Examples
--------
::

    repro generate --sites 20 --objects 50 --update-ratio 0.05 -o inst.json
    repro solve inst.json --algorithm gra --save-scheme scheme.json
    repro evaluate scheme.json
    repro simulate scheme.json --duration 60
    repro compare --sites 15 --objects 30 --instances 5 \
        --algorithm sra --algorithm gra --algorithm hill-climbing
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core import CostModel
from repro.errors import ReproError
from repro.io import (
    load_instance,
    load_scheme,
    save_instance,
    save_scheme,
)
from repro.runtime import (
    add_runtime_options,
    context_from_args,
    default_registry,
    runtime_session,
)
from repro.utils.files import atomic_write
from repro.utils.telemetry import current_sink
from repro.version import __version__
from repro.workload import WorkloadSpec, generate_instance, generate_instances


def _solve_choices() -> List[str]:
    """Algorithms runnable on a bare instance (the registry decides)."""
    return sorted(default_registry().names(standalone=True))


def _compare_choices() -> List[str]:
    # branch-and-bound is exponential in the number of sites; keep it
    # out of the multi-instance comparison grid
    return [name for name in _solve_choices() if name != "optimal"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Data replication algorithms (SRA / GRA / AGRA) from "
            "Loukopoulos & Ahmad, ICDCS 2000."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="synthesise a DRP instance")
    gen.add_argument("--sites", type=int, required=True)
    gen.add_argument("--objects", type=int, required=True)
    gen.add_argument("--update-ratio", type=float, default=0.05)
    gen.add_argument("--capacity-ratio", type=float, default=0.15)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    add_runtime_options(gen)

    solve = sub.add_parser("solve", help="solve a saved instance")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        choices=_solve_choices(),
        default="sra",
    )
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--generations", type=int, default=0,
                       help="override GRA generations")
    solve.add_argument("--save-scheme", default=None)
    add_runtime_options(solve)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved scheme")
    evaluate.add_argument("scheme")
    evaluate.add_argument(
        "--instance",
        default=None,
        help="evaluate under this instance instead of the embedded one "
        "(same network/storage, e.g. drifted patterns)",
    )
    add_runtime_options(evaluate)

    simulate = sub.add_parser(
        "simulate", help="replay a trace through the simulator"
    )
    simulate.add_argument("scheme")
    simulate.add_argument("--duration", type=float, default=1.0)
    simulate.add_argument("--seed", type=int, default=None)
    add_runtime_options(simulate)

    compare = sub.add_parser(
        "compare", help="compare algorithms over fresh instances"
    )
    compare.add_argument("--sites", type=int, default=15)
    compare.add_argument("--objects", type=int, default=30)
    compare.add_argument("--update-ratio", type=float, default=0.05)
    compare.add_argument("--capacity-ratio", type=float, default=0.15)
    compare.add_argument("--instances", type=int, default=5)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--algorithm",
        action="append",
        choices=_compare_choices(),
        help="repeatable; default: sra and gra",
    )
    add_runtime_options(compare)

    figures = sub.add_parser(
        "figures", help="reproduce the paper's figures (see repro-experiments)"
    )
    figures.add_argument("rest", nargs=argparse.REMAINDER)

    trace = sub.add_parser(
        "trace", help="summarise a trace file written by --trace"
    )
    trace.add_argument("file", help="trace file (jsonl or chrome format)")
    trace.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the top-spans-by-self-time table (default 15)",
    )
    trace.add_argument(
        "--causal",
        action="store_true",
        help="append happens-before analysis: message flow, per-round "
        "latency attribution and the critical path (docs/causality.md)",
    )
    add_runtime_options(trace)

    explain = sub.add_parser(
        "explain",
        help="print the decision chain for one object from a "
        "--ledger file",
    )
    explain.add_argument("ledger_file", help="JSONL ledger (--ledger FILE)")
    explain.add_argument(
        "--object",
        type=int,
        required=True,
        metavar="K",
        help="object index whose placement history to explain",
    )
    explain.add_argument(
        "--site",
        type=int,
        default=None,
        metavar="I",
        help="restrict the chain to decisions at site I",
    )
    explain.add_argument(
        "--at",
        type=float,
        default=None,
        metavar="T",
        help="cut the chain at logical time T (epoch / round number)",
    )
    add_runtime_options(explain)

    conform = sub.add_parser(
        "conform",
        help="differential conformance oracle: run / corpus / shrink",
    )
    conform_sub = conform.add_subparsers(dest="conform_command")

    conform_run = conform_sub.add_parser(
        "run", help="run the oracle + invariants over the corpus"
    )
    conform_run.add_argument(
        "--corpus",
        choices=["default"],
        default="default",
        help="fixed corpus to run (default: default)",
    )
    conform_run.add_argument(
        "--budget",
        type=int,
        default=0,
        metavar="N",
        help="additionally run N seeded sweep scenarios (default 0)",
    )
    conform_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the --budget sweep (default 0)",
    )
    conform_run.add_argument(
        "--invariant",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this invariant (repeatable; default: all)",
    )
    conform_run.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the full per-path report as JSON to FILE",
    )
    add_runtime_options(conform_run)

    conform_corpus = conform_sub.add_parser(
        "corpus", help="list corpus scenarios and registered invariants"
    )
    conform_corpus.add_argument(
        "--budget",
        type=int,
        default=0,
        metavar="N",
        help="also preview N seeded sweep scenarios",
    )
    conform_corpus.add_argument(
        "--seed", type=int, default=0, help="seed for the sweep preview"
    )
    add_runtime_options(conform_corpus)

    conform_shrink = conform_sub.add_parser(
        "shrink",
        help="minimise a failing scenario (or replay a repro artifact)",
    )
    conform_shrink.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="corpus scenario to shrink (must currently fail the oracle)",
    )
    conform_shrink.add_argument(
        "--artifact",
        default=None,
        metavar="FILE",
        help="replay a shrunken repro artifact instead of shrinking",
    )
    conform_shrink.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="write the shrunken repro artifact to FILE "
        "(default CONFORM_repro.json)",
    )
    conform_shrink.add_argument(
        "--invariant",
        action="append",
        default=None,
        metavar="NAME",
        help="shrink against only this invariant (repeatable)",
    )
    add_runtime_options(conform_shrink)

    return parser


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    with runtime_session(args):
        spec = WorkloadSpec(
            num_sites=args.sites,
            num_objects=args.objects,
            update_ratio=args.update_ratio,
            capacity_ratio=args.capacity_ratio,
        )
        instance = generate_instance(spec, rng=args.seed)
        path = save_instance(instance, args.output)
        print(f"wrote {instance} to {path}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.utils.metrics import MetricsRegistry

    instance = load_instance(args.instance)
    registry = MetricsRegistry() if args.metrics else None
    model = CostModel(instance, metrics=registry)
    solvers = default_registry()
    with runtime_session(args, registry=registry):
        if args.algorithm == "gra":
            algorithm = solvers.create(
                "gra", seed=args.seed, generations=args.generations
            )
        else:
            algorithm = solvers.create(args.algorithm, seed=args.seed)
        result = algorithm.run(instance, model)
        sink = current_sink()
        if sink.enabled:
            sink.set_gauge("repro_solve_total_cost", result.total_cost)
            sink.set_gauge("repro_solve_d_prime", result.d_prime)
            sink.set_gauge(
                "repro_solve_savings_percent", result.savings_percent
            )
            info = model.cache_info()
            sink.set_gauge("repro_cost_cache_hit_rate", info["hit_rate"])
    print(result.summary())
    print(f"D' = {result.d_prime:,.2f}   D = {result.total_cost:,.2f}")
    if registry is not None:
        info = model.cache_info()
        print(
            f"cache: {info['hits']:,} hits / {info['misses']:,} misses "
            f"(hit rate {info['hit_rate']:.1%}, "
            f"{info['evictions']:,} evictions)"
        )
        print(registry.render())
    if args.save_scheme:
        path = save_scheme(result.scheme, args.save_scheme)
        print(f"scheme saved to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    with runtime_session(args):
        scheme = load_scheme(args.scheme)
        instance = (
            load_instance(args.instance) if args.instance else scheme.instance
        )
        model = CostModel(instance)
        cost = model.total_cost(scheme.matrix)
        print(f"scheme: {scheme}")
        print(f"D = {cost:,.2f}   D' = {model.d_prime():,.2f}")
        print(f"savings = {model.savings_percent(scheme.matrix):.2f}%")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import FaultInjector, ReplicaSystem
    from repro.utils.profiler import current_profiler
    from repro.utils.tracing import current_tracer
    from repro.workload.trace import generate_trace

    ctx = context_from_args(args)
    scheme = load_scheme(args.scheme)
    instance = scheme.instance
    trace = generate_trace(instance, duration=args.duration, rng=args.seed)
    system = ReplicaSystem(instance, scheme)
    plan = ctx.fault_plan
    injector = FaultInjector(plan) if plan is not None else None
    requests = len(trace)
    with runtime_session(args, ctx=ctx):
        tracer = current_tracer()
        sink = current_sink()
        with tracer.span("sim.run") as span:
            system.replay(trace, injector)
            if requests:
                current_profiler().tick(requests)
            span.set(
                processed=requests,
                sim_time=float(trace.time[-1]) if requests else 0.0,
            )
        sink.set_gauge("repro_sim_events_processed", requests)
        system.metrics.publish(sink)
    analytic = CostModel(instance).total_cost(scheme.matrix)
    measured = system.metrics.request_ntc
    faults_active = plan is not None and not plan.is_empty
    print(f"requests replayed: {len(trace):,}")
    print(f"measured NTC:      {measured:,.2f}")
    print(f"analytic D(X):     {analytic:,.2f}")
    if faults_active:
        # The analytic model assumes a healthy network; under injected
        # faults a mismatch is expected, not a bug.
        print(f"exact match:       n/a ({injector.events_applied} fault "
              "events applied)")
    else:
        print(f"exact match:       {abs(measured - analytic) < 1e-6}")
    for key, value in sorted(system.metrics.summary().items()):
        print(f"  {key} = {value:,.3f}")
    print("latency percentiles:")
    for key, value in sorted(system.metrics.latency_summary().items()):
        print(f"  {key} = {value:,.3f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_algorithms

    labels = args.algorithm or ["sra", "gra"]
    spec = WorkloadSpec(
        num_sites=args.sites,
        num_objects=args.objects,
        update_ratio=args.update_ratio,
        capacity_ratio=args.capacity_ratio,
    )
    instances = generate_instances(spec, args.instances, rng=args.seed)
    solvers = default_registry()
    factories = {
        label: (lambda seed, _label=label: solvers.create(_label, seed=seed))
        for label in labels
    }
    with runtime_session(args) as ctx:
        report = compare_algorithms(
            instances, factories, seed=args.seed + 1
        )
        print(report.render())
        print(f"\nbest by mean savings: {report.best_algorithm()}")
        if ctx.fault_plan is not None:
            _fault_replay_section(
                instances, factories, ctx.fault_plan, args.faults,
                args.seed,
            )
    if ctx.metrics is not None:
        print()
        print(ctx.metrics.render())
    return 0


def _fault_replay_section(
    instances, factories, plan, faults_path: str, seed: int
) -> None:
    """Replay every algorithm's schemes under a fault plan; print means.

    Each (algorithm, instance) cell re-solves with its own derived seed,
    generates the instance's request trace and replays it through a
    fresh :class:`FaultInjector` — so the table shows how each
    algorithm's placements hold up when the network degrades.
    """
    from repro.sim import FaultInjector, ReplicaSystem
    from repro.utils.rng import spawn_seeds
    from repro.utils.tables import format_table
    from repro.workload.trace import generate_trace

    rows = []
    labels = list(factories)
    run_seeds = spawn_seeds(seed + 2, len(instances) * len(labels) * 2)
    idx = 0
    for label in labels:
        ntcs, rejected, fault_events = [], [], 0
        for instance in instances:
            algorithm = factories[label](run_seeds[idx])
            trace_seed = run_seeds[idx + 1]
            idx += 2
            result = algorithm.run(instance)
            trace = generate_trace(instance, rng=trace_seed)
            system = ReplicaSystem(instance, result.scheme)
            injector = FaultInjector(plan)
            system.replay(trace, injector=injector)
            metrics = system.metrics
            ntcs.append(metrics.request_ntc)
            rejected.append(
                float(metrics.rejected_reads + metrics.rejected_writes)
            )
            fault_events += injector.events_applied
        rows.append(
            [
                label,
                float(np.mean(ntcs)),
                float(np.mean(rejected)),
                float(fault_events) / len(instances),
            ]
        )
    print()
    print(
        format_table(
            ["algorithm", "faulty NTC", "rejected req", "fault events"],
            rows,
            precision=2,
            title=f"Degraded-mode replay under {faults_path}",
        )
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as figures_main

    return figures_main(args.rest)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.utils.trace_summary import render_summary, summarize

    with runtime_session(args):
        summary = summarize(args.file)
        print(render_summary(summary, top=args.top))
        if args.causal:
            from repro.obs.causal import causal_sections

            print()
            print(causal_sections(args.file))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.ledger import read_ledger, render_explanation

    with runtime_session(args):
        entries = read_ledger(args.ledger_file)
        print(
            render_explanation(
                entries, args.object, site=args.site, at=args.at
            )
        )
    return 0


def _conform_corpus_for(args: argparse.Namespace):
    from repro.conformance import default_corpus, seeded_corpus

    scenarios = list(default_corpus())
    if getattr(args, "budget", 0):
        scenarios.extend(seeded_corpus(args.seed, args.budget))
    return scenarios


def _cmd_conform_run(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.conformance import run_corpus
    from repro.utils.metrics import MetricsRegistry

    scenarios = _conform_corpus_for(args)
    registry = MetricsRegistry()
    with runtime_session(args, registry=registry):
        def progress(report) -> None:
            status = "ok" if report.passed else "FAIL"
            print(
                f"  {report.name:<24} {report.num_sites:>3} x "
                f"{report.num_objects:<3} {status}"
            )

        print(f"conformance: {len(scenarios)} scenarios")
        corpus = run_corpus(
            scenarios,
            invariant_names=args.invariant,
            registry=registry,
            progress=progress,
        )
        sink = current_sink()
        if sink.enabled:
            sink.set_gauge(
                "repro_conform_scenarios", len(corpus.reports)
            )
            sink.set_gauge(
                "repro_conform_failing", len(corpus.failing)
            )
    if args.json:
        with atomic_write(args.json) as fp:
            json_module.dump(corpus.to_dict(), fp, indent=2)
            fp.write("\n")
        print(f"report written to {args.json}")
    if corpus.passed:
        print(f"all {len(corpus.reports)} scenarios conform")
        return 0
    print(
        f"{len(corpus.failing)} of {len(corpus.reports)} scenarios "
        f"failed:",
        file=sys.stderr,
    )
    for report in corpus.failing:
        for message in report.all_failures():
            print(f"  {report.name}: {message}", file=sys.stderr)
        print(
            f"  shrink it: repro conform shrink --scenario "
            f"{report.name}",
            file=sys.stderr,
        )
    return 1


def _cmd_conform_corpus(args: argparse.Namespace) -> int:
    from repro.conformance import all_invariants

    with runtime_session(args):
        scenarios = _conform_corpus_for(args)
        print(f"{len(scenarios)} scenarios:")
        for sc in scenarios:
            plan = " +faults" if sc.fault_plan is not None else ""
            print(
                f"  {sc.name:<24} seed={sc.seed:<11} "
                f"{sc.num_sites:>3} x {sc.num_objects:<3} "
                f"U={sc.update_ratio:<4} {sc.topology}{plan}"
            )
        invariants = all_invariants()
        print(f"\n{len(invariants)} invariants:")
        for inv in invariants:
            print(f"  {inv.name:<30} {inv.description}")
    return 0


def _cmd_conform_shrink(args: argparse.Namespace) -> int:
    import os

    from repro.conformance import (
        default_corpus,
        load_artifact,
        oracle_predicate,
        run_instance,
        shrink_instance,
        write_artifact,
    )

    with runtime_session(args):
        if args.artifact is not None:
            if not os.path.exists(args.artifact):
                print(
                    f"no shrink artifact at {args.artifact}.\n"
                    f"Produce one with:  repro conform shrink --scenario "
                    f"NAME -o {args.artifact}\n"
                    f"or download the CI conformance job's shrunken-repro "
                    f"artifact.",
                    file=sys.stderr,
                )
                return 2
            data = load_artifact(args.artifact)
            print(data["summary"])
            report = run_instance(
                data["instance"],
                name="artifact",
                invariant_names=args.invariant,
            )
            if report.passed:
                print(
                    "the repro no longer fails on this build — bug fixed "
                    "(or environment-dependent)"
                )
                return 0
            print("the repro still fails:", file=sys.stderr)
            for message in report.all_failures():
                print(f"  {message}", file=sys.stderr)
            return 1

        if args.scenario is None:
            print(
                "nothing to shrink: pass --scenario NAME (see `repro "
                "conform corpus`) or --artifact FILE.",
                file=sys.stderr,
            )
            return 2
        matches = [
            sc for sc in default_corpus() if sc.name == args.scenario
        ]
        if not matches:
            names = ", ".join(sc.name for sc in default_corpus())
            print(
                f"unknown scenario {args.scenario!r}; corpus scenarios: "
                f"{names}",
                file=sys.stderr,
            )
            return 2
        scenario = matches[0]
        instance = scenario.build()
        predicate = oracle_predicate(args.invariant)
        if not predicate(instance):
            print(
                f"scenario {scenario.name} passes the oracle on this "
                f"build; nothing to shrink"
            )
            return 0
        result = shrink_instance(
            instance, predicate=predicate, scenario=scenario
        )
        print(result.summary())
        for message in result.failures:
            print(f"  {message}")
        out = args.out or "CONFORM_repro.json"
        path = write_artifact(result, out)
        print(f"repro artifact written to {path}")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    command = getattr(args, "conform_command", None)
    handlers = {
        "run": _cmd_conform_run,
        "corpus": _cmd_conform_corpus,
        "shrink": _cmd_conform_shrink,
    }
    handler = handlers.get(command)
    if handler is None:
        print(
            "usage: repro conform {run,corpus,shrink} ...",
            file=sys.stderr,
        )
        return 2
    return handler(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "evaluate": _cmd_evaluate,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "figures": _cmd_figures,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "conform": _cmd_conform,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
