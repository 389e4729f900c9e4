"""The unified run context: one owner for every cross-cutting concern.

Every entry point used to wire the tracer, telemetry sink, profiler,
metrics registry, fault plan, RNG tree and parallelism policy by hand
(``had_tracer`` save/restore dances in the CLI, pid checks in the
process-pool workers, ``configure``/``finally`` pairs in the experiment
runner).  :class:`RunContext` centralises all of it:

* ``install()`` fills the requested process-wide recorder slots, in
  the order of the one :data:`RECORDERS` table, through the
  :mod:`repro.utils.recorders` mutators — this package is the **only**
  legitimate caller of those mutators (``tests/test_layering.py``
  enforces the contract) — and registers itself in a
  :mod:`contextvars` variable so nested code can find the active
  context with :func:`current_context`;
* recorders that were already installed before ``install()`` are
  *adopted*: the context uses them but does not tear them down, exactly
  like the CLI's old ``had_tracer``-style bookkeeping;
* ``teardown()`` flushes the telemetry sink (final snapshot + exporter
  close), restores the previous global state, and is idempotent — so no
  global tracer/sink/profiler singleton can leak between runs or tests;
* ``fork(worker_id)`` derives a deterministic, **picklable** child
  context for :class:`~repro.experiments.parallel.ParallelRunner`
  workers, replacing the hand-rolled snapshot/re-parent tracer dance:
  the child's ``install()`` decides *by pid* whether it runs in a pool
  worker (fresh per-task tracer whose snapshot ships back to the
  parent) or in-process (records straight into the live tracer).

The context manager :meth:`RunContext.activate` composes ``install`` +
``teardown``; :func:`ambient_context` returns the active context or an
uninstalled stand-in reflecting the live globals, so library code works
identically inside and outside a managed run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs.ledger import LEDGER, PlacementLedger
from repro.utils.metrics import METRICS, MetricsRegistry
from repro.utils.profiler import PROFILER, DeterministicProfiler
from repro.utils.recorders import (
    Slot,
    install_recorder,
    scoped_recorder,
    uninstall_recorder,
)
from repro.utils.telemetry import TELEMETRY, TelemetrySink
from repro.utils.tracing import DEFAULT_CAPACITY, TRACER, Tracer, current_tracer

#: every process-wide recorder slot, in install order: the sink is
#: built after the registry it reports, the profiler after the tracer
#: whose span stack it samples
RECORDERS: Tuple[Slot, ...] = (METRICS, TELEMETRY, LEDGER, TRACER, PROFILER)

#: the active context, scoped with :mod:`contextvars` so async/threaded
#: callers each see their own installation
_ACTIVE: ContextVar[Optional["RunContext"]] = ContextVar(
    "repro_run_context", default=None
)

# --------------------------------------------------------------------- #
# parallelism policy (moved here from experiments.parallel: the worker
# count is a cross-cutting concern, owned by the run context)
# --------------------------------------------------------------------- #
#: environment variable supplying the default worker count
PARALLEL_ENV_VAR = "REPRO_PARALLEL"

_configured_workers: Optional[int] = None


def configure_parallelism(max_workers: Optional[int]) -> None:
    """Install a process-wide default worker count (``None`` resets).

    ``average_static_runs`` and the figure sweeps consult this default
    whenever no explicit ``max_workers`` is passed; a
    :class:`RunContext` built with ``max_workers`` calls this on
    install and restores the previous value on teardown.
    """
    global _configured_workers
    if max_workers is not None and max_workers < 1:
        raise ValidationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    _configured_workers = max_workers


def resolve_max_workers(max_workers: Optional[int] = None) -> int:
    """Effective worker count: explicit > configured > env > 1."""
    if max_workers is not None:
        if max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        return max_workers
    if _configured_workers is not None:
        return _configured_workers
    env = os.environ.get(PARALLEL_ENV_VAR, "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"${PARALLEL_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValidationError(
                f"${PARALLEL_ENV_VAR} must be >= 1, got {workers}"
            )
        return workers
    return 1


def _default_cost_model_factory():
    from repro.core.cost import cost_model_for

    return cost_model_for


# --------------------------------------------------------------------- #
# the context
# --------------------------------------------------------------------- #
class RunContext:
    """Owns the cross-cutting state of one run.

    Parameters
    ----------
    seed:
        Root of the run's RNG tree (anything
        :class:`numpy.random.SeedSequence` accepts).  ``fork(i)``
        derives child ``i``'s sequence from it deterministically.
    trace / trace_capacity:
        Enable the process-wide tracer (ring buffer of ``trace_capacity``
        records).
    profile / profile_every:
        Enable the deterministic profiler, sampling one stack per
        ``profile_every`` progress ticks.  Profiling samples the
        tracer's open-span stack, so the context enables tracing
        alongside it.
    telemetry / exporters:
        Install a :class:`~repro.utils.telemetry.TelemetrySink`;
        ``exporters`` are attached to it on install.
    metrics / registry:
        ``registry`` supplies an explicit
        :class:`~repro.utils.metrics.MetricsRegistry` (attached to the
        sink, *not* installed globally).  ``metrics=True`` without a
        registry enables the process-wide registry instead.
    ledger:
        Enable the process-wide
        :class:`~repro.obs.ledger.PlacementLedger`, so every replica
        add/drop/deferral records its attribution (``repro explain``).
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` for commands that replay
        traces; carried, not interpreted.
    max_workers:
        Default worker count installed via
        :func:`configure_parallelism` for the context's lifetime.
    cost_model_factory:
        ``instance -> CostModel`` dispatch; defaults to
        :func:`repro.core.cost.cost_model_for`.
    """

    def __init__(
        self,
        *,
        seed=None,
        trace: bool = False,
        trace_capacity: int = DEFAULT_CAPACITY,
        profile: bool = False,
        profile_every: int = 1,
        telemetry: bool = False,
        exporters: Sequence[object] = (),
        metrics: bool = False,
        registry: Optional[MetricsRegistry] = None,
        ledger: bool = False,
        fault_plan=None,
        max_workers: Optional[int] = None,
        cost_model_factory=None,
        _fork_parent_pid: Optional[int] = None,
        _worker_id: Optional[int] = None,
    ) -> None:
        self._seed_spec = seed
        self._seed: Optional[np.random.SeedSequence] = (
            seed if isinstance(seed, np.random.SeedSequence) else None
        )
        self.trace_requested = bool(trace)
        self.trace_capacity = trace_capacity
        self.profile_requested = bool(profile)
        self.profile_every = profile_every
        self.telemetry_requested = bool(telemetry)
        self._exporters: List[object] = list(exporters)
        self.metrics_requested = bool(metrics)
        self._registry = registry
        self.ledger_requested = bool(ledger)
        self.fault_plan = fault_plan
        self.max_workers = max_workers
        self._cost_model_factory = cost_model_factory
        self.worker_id = _worker_id
        self._fork_parent_pid = _fork_parent_pid
        # live recorders by slot name (populated by install) and the
        # slots this context filled itself (torn down again)
        self._recorders: Dict[str, object] = (
            {METRICS.name: registry} if registry is not None else {}
        )
        self._owned: List[Slot] = []
        self._installed = False
        self._previous_workers: Optional[int] = None
        self._restore_workers = False
        self._token = None

    # ------------------------------------------------------------------ #
    # deterministic RNG tree
    # ------------------------------------------------------------------ #
    @property
    def seed(self) -> np.random.SeedSequence:
        """Root seed sequence (materialised lazily from the spec)."""
        if self._seed is None:
            self._seed = np.random.SeedSequence(self._seed_spec)
        return self._seed

    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """``n`` child sequences with the root's spawn counter reset.

        Re-deriving from entropy/spawn-key state (instead of calling
        ``spawn`` on the shared object) keeps the children identical no
        matter how many times or in which process this is called — the
        property the parallel harness's bit-identity rests on.
        """
        seq = self.seed
        seq = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=seq.spawn_key,
            pool_size=seq.pool_size,
        )
        return list(seq.spawn(n))

    def fork(self, worker_id: int) -> "RunContext":
        """A deterministic, picklable child context for worker ``id``.

        The child's seed extends this context's spawn key with
        ``worker_id``, so any two forks with the same id are identical
        and forks with different ids are statistically independent.  The
        child carries the parent pid: its ``install()`` performs the
        per-task tracer setup only when it actually runs in another
        process (see :meth:`_install_forked`).
        """
        if worker_id < 0:
            raise ValidationError(
                f"worker_id must be >= 0, got {worker_id}"
            )
        seq = self.seed
        child_seed = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=(*seq.spawn_key, worker_id),
            pool_size=seq.pool_size,
        )
        return RunContext(
            seed=child_seed,
            trace=self.trace_requested or self.tracer.enabled,
            trace_capacity=self.trace_capacity,
            fault_plan=self.fault_plan,
            cost_model_factory=self._cost_model_factory,
            _fork_parent_pid=os.getpid(),
            _worker_id=worker_id,
        )

    # ------------------------------------------------------------------ #
    # component access
    # ------------------------------------------------------------------ #
    def _recorder(self, slot: Slot):
        recorder = self._recorders.get(slot.name)
        return slot.current() if recorder is None else recorder

    @property
    def tracer(self) -> Tracer:
        """This context's tracer, else the process-wide/disabled one."""
        return self._recorder(TRACER)

    @property
    def profiler(self) -> DeterministicProfiler:
        return self._recorder(PROFILER)

    @property
    def sink(self) -> TelemetrySink:
        return self._recorder(TELEMETRY)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The run's metrics registry, or ``None`` when none was asked."""
        return self._recorders.get(METRICS.name)

    @property
    def ledger(self) -> PlacementLedger:
        """This context's ledger, else the process-wide/disabled one."""
        return self._recorder(LEDGER)

    @property
    def installed(self) -> bool:
        return self._installed

    def cost_model(self, instance, **kwargs):
        """Build a cost model via the context's factory dispatch."""
        factory = self._cost_model_factory or _default_cost_model_factory()
        return factory(instance, **kwargs)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def install(self) -> "RunContext":
        """Enable the requested components and become the active context.

        Components already enabled process-wide are adopted and left in
        place on teardown; everything this call brings up is owned by
        the context and torn down again.
        """
        if self._installed:
            raise ValidationError("RunContext is already installed")
        self._token = _ACTIVE.set(self)
        self._installed = True
        if self._fork_parent_pid is not None:
            self._install_forked()
            return self
        requested = self._requested_recorders()
        for slot in RECORDERS:
            if slot in requested:
                self._install(slot, requested[slot])
        sink = self._recorders.get(TELEMETRY.name)
        if sink is not None:
            if sink.registry is None:  # an adopted sink reports our registry
                sink.registry = self.metrics
            for exporter in self._exporters:
                sink.attach_exporter(exporter)
        if self.max_workers is not None:
            self._previous_workers = _configured_workers
            self._restore_workers = True
            configure_parallelism(self.max_workers)
        return self

    def _requested_recorders(self) -> Dict[Slot, Callable[[], object]]:
        """Slot -> factory for each recorder this context asks for."""
        requested: Dict[Slot, Callable[[], object]] = {}
        if self.metrics_requested and self._registry is None:
            requested[METRICS] = MetricsRegistry
        if self.telemetry_requested:
            requested[TELEMETRY] = TelemetrySink
        if self.ledger_requested:
            requested[LEDGER] = PlacementLedger
        if self.trace_requested or self.profile_requested:
            requested[TRACER] = lambda: Tracer(capacity=self.trace_capacity)
        if self.profile_requested:
            requested[PROFILER] = lambda: DeterministicProfiler(
                sample_every=self.profile_every
            )
        return requested

    def _install(self, slot: Slot, make: Callable[[], object]) -> None:
        """Fill ``slot`` (or adopt its recorder) and keep a handle on it."""
        if slot.recorder is None:
            self._owned.append(slot)
        self._recorders[slot.name] = install_recorder(slot, make)

    def _install_forked(self) -> None:
        """Per-task setup in a (potential) pool worker.

        Whether this fork *is* in a worker is decided by pid, not by the
        presence of a global tracer — forked pool processes inherit the
        parent's tracer, but records written to that copy would be lost.
        In the parent itself (serial path, in-process retry) the fork
        records straight into the live tracer and ships nothing.
        """
        if self.trace_requested and os.getpid() != self._fork_parent_pid:
            uninstall_recorder(TRACER)  # drop the copy inherited via fork
            self._install(
                TRACER, lambda: Tracer(capacity=self.trace_capacity)
            )

    def teardown(self) -> None:
        """Flush, restore the previous global state; idempotent."""
        if not self._installed:
            return
        self._installed = False
        sink = self._recorders.get(TELEMETRY.name)
        if sink is not None:
            sink.snapshot()  # final state, even if the body raised
            sink.close()
        for slot in reversed(RECORDERS):
            if slot in self._owned:
                uninstall_recorder(slot)
        self._owned.clear()
        if self._restore_workers:
            configure_parallelism(self._previous_workers)
            self._restore_workers = False
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    @contextmanager
    def activate(self) -> Iterator["RunContext"]:
        """``install()`` on entry, ``teardown()`` on exit."""
        self.install()
        try:
            yield self
        finally:
            self.teardown()

    # a forked, uninstalled context must be shippable to pool workers
    def __getstate__(self):
        state = dict(self.__dict__)
        if self._installed:
            raise ValidationError(
                "an installed RunContext cannot be pickled; "
                "ship fork() children instead"
            )
        state["_token"] = None
        return state

    def trace_snapshot(self):
        """The fork's own trace, for re-parenting — ``None`` in-process.

        Only meaningful on fork children after their block closed: pool
        workers return their private tracer's snapshot; in-process forks
        recorded straight into the live tracer and return ``None``.
        """
        if self._fork_parent_pid is not None and TRACER in self._owned:
            return self.tracer.snapshot()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [
            name
            for name, on in (
                ("trace", self.trace_requested),
                ("profile", self.profile_requested),
                ("telemetry", self.telemetry_requested),
                ("metrics", self.metrics is not None),
                ("ledger", self.ledger_requested),
                ("faults", self.fault_plan is not None),
            )
            if on
        ]
        state = "installed" if self._installed else "idle"
        return f"RunContext({state}, {'+'.join(flags) or 'bare'})"


# --------------------------------------------------------------------- #
# module-level access
# --------------------------------------------------------------------- #
def current_context() -> Optional[RunContext]:
    """The active (installed) context, or ``None``."""
    return _ACTIVE.get()


def ambient_context() -> RunContext:
    """The active context, else an uninstalled stand-in.

    The stand-in reflects the live globals (its ``tracer``/``sink``
    properties delegate to ``current_*``, and its trace flag mirrors
    whether a process-wide tracer is enabled), so harness code can fork
    workers identically whether or not a managed run is active.
    """
    ctx = _ACTIVE.get()
    if ctx is not None:
        return ctx
    return RunContext(trace=current_tracer().enabled)


def scoped_tracer(capacity: int = DEFAULT_CAPACITY) -> ContextManager[Tracer]:
    """A fresh process-wide tracer for the duration of a block.

    Whatever tracer was installed before (including none) is restored on
    exit, even when the body raises.  The conformance oracle uses this
    to observe instrumentation events (``sra.place`` benefits) without
    clobbering a ``--trace`` session the caller may be running.
    """
    return scoped_recorder(TRACER, Tracer(capacity=capacity))


def scoped_ledger() -> ContextManager[PlacementLedger]:
    """A fresh process-wide placement ledger for the duration of a block.

    Whatever ledger was installed before (including none) is restored on
    exit, even when the body raises.  The ``ledger-scheme-consistency``
    conformance invariant uses this to capture a solve's placement
    stream without clobbering a ``--ledger`` session.
    """
    return scoped_recorder(LEDGER, PlacementLedger())


__all__ = [
    "PARALLEL_ENV_VAR",
    "RECORDERS",
    "RunContext",
    "ambient_context",
    "configure_parallelism",
    "current_context",
    "resolve_max_workers",
    "scoped_ledger",
    "scoped_tracer",
]
