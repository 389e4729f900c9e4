"""Per-layer spans timed from outside the program.

A traced run installs a coarse timing wrapper on each public entry point
named in :data:`SPANS`, at the module or class binding its callers look
it up through, so that no file under ``src/`` changes.  Spans land in a
private :class:`repro.utils.tracing.Tracer` (the process-wide tracer stays
off) and are written as JSONL that ``repro trace FILE`` reads.  There is
deliberately no per-request or per-message wrapping: each wrapped call
does enough work that one span costs well under its runtime.

Every wrapper is removed again when the recording block exits, and
:meth:`Layers.leaks` proves it: each patched attribute must be the very
object it was before.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: trace root spans that separate set-up from the timed operations
SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"


def _sra_counts(result) -> Dict[str, float]:
    return {
        "algorithms.sra.benefit_evals": result.stats["benefit_evaluations"],
        "algorithms.sra.placements": result.stats["replicas_created"],
    }


def _dsra_counts(report) -> Dict[str, float]:
    return {
        "distributed.messages": report.log.total_messages,
        "distributed.control_messages": report.log.control_messages,
        "distributed.retries": report.retries,
    }


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    ``targets`` are ``"module:attr"`` or ``"module:Class.attr"`` paths;
    ``observe`` turns the call's return value into work counters.
    """

    name: str
    targets: Tuple[str, ...]
    observe: Optional[Callable[[object], Dict[str, float]]] = None


SPANS: Tuple[Span, ...] = (
    Span("cli.main", ("repro.cli:main",)),
    Span("io.load_instance", ("repro.cli:load_instance",)),
    Span("io.save_scheme", ("repro.cli:save_scheme",)),
    Span("network.topology", ("repro.network.generators:random_mesh_topology",)),
    Span("network.apsp", ("repro.network.generators:floyd_warshall",)),
    Span(
        "workload.generate",
        (
            "repro.workload.generator:generate_instance",
            "repro.experiments.scale:generate_scale_problem",
        ),
    ),
    Span(
        "workload.trace",
        ("repro.workload.trace:generate_trace", "repro.sim.adaptive:generate_trace"),
        lambda trace: {"workload.requests": len(trace)},
    ),
    Span("workload.mutate", ("repro.workload.mutation:apply_pattern_change",)),
    Span("core.kernel", ("repro.core.cost:CostModel.object_cost_kernel",)),
    Span("core.population_costs", ("repro.core.cost:CostModel.population_costs",)),
    Span("core.total_cost", ("repro.core.cost:CostModel.total_cost",)),
    Span("core.d_prime", ("repro.core.cost:CostModel.d_prime",)),
    Span("algorithms.sra", ("repro.algorithms.sra:SRA.run",), _sra_counts),
    Span(
        "algorithms.gra",
        (
            "repro.algorithms.gra.engine:GRA.run",
            "repro.algorithms.gra.engine:GRA.run_with_population",
        ),
    ),
    Span("algorithms.agra.adapt", ("repro.algorithms.agra.engine:AGRA.adapt",)),
    Span("sim.replay", ("repro.sim.protocol:ReplicaSystem.replay",)),
    Span(
        "sim.realize",
        ("repro.sim.protocol:ReplicaSystem.realize_scheme",),
        lambda migrations: {"sim.migrations": migrations},
    ),
    Span(
        "distributed.run",
        ("repro.distributed.sra_protocol:DistributedSRA.run",),
        _dsra_counts,
    ),
)

SPAN_NAMES = tuple(span.name for span in SPANS)

#: where cost models are born; the cache counters are read off them
_MODEL_INIT = "repro.core.cost:CostModel.__init__"


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _targets() -> Tuple[str, ...]:
    return (*(t for span in SPANS for t in span.targets), _MODEL_INIT)


class Layers:
    """Installs the span wrappers, records into a tracer, restores."""

    def __init__(self) -> None:
        self.counters: Dict[Tuple[str, str], float] = {}
        self.models: Dict[str, List[object]] = {}
        self._phase = ""
        # (owner, attr, raw attribute or None when inherited)
        self._patched: List[Tuple[object, str, object]] = []
        self._originals: Dict[str, object] = {}
        for target in _targets():
            owner, attr = _resolve(target)
            self._originals[target] = vars(owner).get(attr)

    def _count(self, name: str, value: float) -> None:
        key = (self._phase, name)
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(target)
        raw = vars(owner).get(attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._patched.append((owner, attr, raw))

    def _span_wrapper(self, tracer, span: Span) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with tracer.span(span.name):
                    result = fn(*args, **kwargs)
                if span.observe is not None:
                    for name, value in span.observe(result).items():
                        self._count(name, value)
                return result

            return wrapped

        return make

    def _model_probe(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def init(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            self.models.setdefault(self._phase, []).append(model)

        return init

    @contextmanager
    def recording(self, tracer, phase: str) -> Iterator[None]:
        """Wrap every entry point for the block, under a ``phase`` root span."""
        self._phase = phase
        try:
            for span in SPANS:
                for target in span.targets:
                    self._patch(target, self._span_wrapper(tracer, span))
            self._patch(_MODEL_INIT, self._model_probe)
            root = SETUP_ROOT if phase == "setup" else OP_ROOT
            with tracer.span(root):
                yield
        finally:
            self._restore()

    def _restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def leaks(self) -> List[str]:
        """Entry points that are not the object they were before recording."""
        found = []
        for target, original in self._originals.items():
            owner, attr = _resolve(target)
            if vars(owner).get(attr) is not original:
                found.append(target)
        return found

    def cache_totals(self, phase: str) -> Dict[str, float]:
        """Summed hit/miss/eviction counters of the models born in ``phase``."""
        totals = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
        for model in self.models.get(phase, []):
            info = model.cache_info()
            for key in totals:
                totals[key] += info[key]
        return totals


#: per-layer metric -> (span, field of its ``self_time_by_name`` row)
_SPAN_METRICS = {
    "cli.main_s": ("cli.main", "self"),
    "io.load_instance_s": ("io.load_instance", "self"),
    "io.save_scheme_s": ("io.save_scheme", "self"),
    "network.topology_s": ("network.topology", "self"),
    "network.apsp_s": ("network.apsp", "self"),
    "workload.generate_s": ("workload.generate", "self"),
    "workload.trace_s": ("workload.trace", "self"),
    "workload.mutate_s": ("workload.mutate", "self"),
    "core.kernel_s": ("core.kernel", "self"),
    "core.kernel_calls": ("core.kernel", "calls"),
    "core.population_costs_s": ("core.population_costs", "self"),
    "core.total_cost_s": ("core.total_cost", "self"),
    "core.d_prime_s": ("core.d_prime", "self"),
    "algorithms.sra.scan_s": ("algorithms.sra", "self"),
    "algorithms.gra.ops_s": ("algorithms.gra", "self"),
    "algorithms.agra.adapt_s": ("algorithms.agra.adapt", "self"),
    "algorithms.agra.adaptations": ("algorithms.agra.adapt", "calls"),
    "sim.replay_s": ("sim.replay", "self"),
    "sim.realize_s": ("sim.realize", "self"),
    "distributed.run_s": ("distributed.run", "self"),
}

#: per-layer metrics read straight off the ``observe`` counters
_COUNTER_METRICS = (
    "workload.requests",
    "algorithms.sra.benefit_evals",
    "sim.migrations",
    "distributed.messages",
    "distributed.retries",
)


def _rows_by_phase(records) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``self_time_by_name`` rows of the set-up subtree and the op subtrees."""
    from repro.utils.trace_summary import TraceSummary, build_tree, self_time_by_name

    nodes: Dict[str, list] = {"setup": [], "op": []}
    for root in build_tree(records).roots:
        phase = "setup" if root.name == SETUP_ROOT else "op"
        stack = list(root.children)
        while stack:
            node = stack.pop()
            nodes[phase].append(node)
            stack.extend(node.children)
    return {
        phase: {
            row["name"]: row
            for row in self_time_by_name(
                TraceSummary(spans=found, roots=[], events=[], dropped=0)
            )
        }
        for phase, found in nodes.items()
    }


def layer_metrics(records, layers: Layers, ops: int) -> Dict[str, float]:
    """Per-layer numbers for one cycle: the set-up plus one timed operation.

    Set-up is recorded once and the operation ``ops`` times, so op-phase
    sums are divided by ``ops``.  Times are self times (a span's duration
    minus its wrapped children); layers the workload never enters read 0.
    """
    rows = _rows_by_phase(records)

    def cycle(phase_value: Callable[[str], float]) -> float:
        return phase_value("setup") + phase_value("op") / ops

    def span_field(span: str, field: str) -> float:
        return cycle(lambda phase: float(rows[phase].get(span, {}).get(field, 0.0)))

    def counter(name: str) -> float:
        return cycle(lambda phase: layers.counters.get((phase, name), 0.0))

    def cache(key: str) -> float:
        return cycle(lambda phase: layers.cache_totals(phase)[key])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: span_field(*spec) for name, spec in _SPAN_METRICS.items()}
    out.update({name: counter(name) for name in _COUNTER_METRICS})
    hits, misses = cache("hits"), cache("misses")
    out["core.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["core.cache_evictions"] = cache("evictions")
    out["algorithms.sra.placements_per_eval"] = ratio(
        counter("algorithms.sra.placements"), out["algorithms.sra.benefit_evals"]
    )
    out["distributed.msgs_per_s"] = ratio(
        out["distributed.messages"], span_field("distributed.run", "total")
    )
    out["distributed.control_ratio"] = ratio(
        counter("distributed.control_messages"), out["distributed.messages"]
    )
    return out


__all__ = [
    "Layers",
    "OP_ROOT",
    "SETUP_ROOT",
    "SPANS",
    "SPAN_NAMES",
    "Span",
    "layer_metrics",
]
