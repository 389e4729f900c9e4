"""Incremental evaluation of the Eq. 4 cost under single-replica moves.

Local search explores the scheme space one replica flip at a time.
The change in Eq. 4 under one flip only needs the flipped site's write
terms and the read terms of the sites whose nearest replica changed,
which is ``O(M)`` once the nearest-replica structure is maintained
incrementally.

:class:`IncrementalCostEvaluator` wraps a :class:`~repro.core.cost.
CostModel` and a :class:`~repro.core.scheme.ReplicationScheme` and
maintains, per object:

* the current per-object cost term of Eq. 4;
* each site's nearest replicator id and distance **and** its
  second-nearest (the two-nearest invariant), so dropping a replica
  repairs the nearest table in ``O(M)`` without a full rescan — only
  rows that pointed at the dropped site fall back to their second
  choice, and only those rows rescan for a new runner-up.

Deltas are **exact**, not estimates: every column is priced by
:func:`~repro.core.cost.eq4_object_term`, the one Eq. 4 term the full
recompute also uses, so evaluator costs are bit-identical to it on any
cost matrix and algorithms produce identical schemes whichever path
they price moves through.  The property suite pins this equality
against :meth:`CostModel.object_cost` on float-valued instances and
against :func:`~repro.core.cost.reference_total_cost`.

Consistency with the wrapped scheme is listener-based: the evaluator
subscribes to the scheme's change notifications, so every
``scheme.add_replica`` / ``drop_replica`` patches the evaluator state
atomically with the mutation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.cost import CostModel, eq4_object_term
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.tracing import current_tracer

#: change kinds the scheme's listener reports
ADD = "add"
DROP = "drop"


def eq5_benefit(read_count, nearest_cost, other_writes, cost_to_primary,
                update_fraction: float = 1.0):
    """The Eq. 5 benefit ``B_ik`` (read gain minus attracted updates).

    Accepts scalars or aligned arrays; this is the single definition of
    the benefit arithmetic shared by :mod:`repro.core.benefit`, the SRA
    scan and the distributed :class:`~repro.distributed.node.SiteNode`,
    keeping their values bit-identical by construction.
    """
    return (
        read_count * nearest_cost
        - update_fraction * other_writes * cost_to_primary
    )


def _two_nearest(
    cost: np.ndarray, reps: np.ndarray, rows: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest and second-nearest replicator (id, distance) per site.

    Ties break toward the lowest replicator index (``reps`` is sorted and
    argmin returns the first occurrence), matching
    :meth:`ReplicationScheme.nearest_sites`.  With a single replicator
    the second slot is ``(-1, inf)``.
    """
    sub = cost[:, reps] if rows is None else cost[np.ix_(rows, reps)]
    m = sub.shape[0]
    idx = np.arange(m)
    first = np.argmin(sub, axis=1)
    d1 = sub[idx, first]
    n1 = reps[first]
    if reps.size == 1:
        d2 = np.full(m, np.inf)
        n2 = np.full(m, -1, dtype=np.int64)
    else:
        masked = sub.copy()
        masked[idx, first] = np.inf
        second = np.argmin(masked, axis=1)
        d2 = masked[idx, second]
        n2 = reps[second]
    return (
        np.ascontiguousarray(d1),
        np.ascontiguousarray(n1.astype(np.int64)),
        np.ascontiguousarray(d2),
        np.ascontiguousarray(n2.astype(np.int64)),
    )


class IncrementalCostEvaluator:
    """Exact O(M) pricing and maintenance of single-replica moves.

    Parameters
    ----------
    model:
        Cost model supplying the read/write weights (and, when set, the
        :class:`~repro.utils.metrics.MetricsRegistry` the evaluator's
        ``cost.delta_*`` counters and ``cost.delta`` timer flow into).
    scheme:
        The live scheme.  The evaluator attaches a change listener, so
        every mutation of the scheme updates the cached state atomically.
    """

    #: priced deltas between sampled ``cost.delta`` trace events
    _DELTA_SAMPLE = 1024

    def __init__(self, model: CostModel, scheme: ReplicationScheme) -> None:
        if scheme.instance is not model.instance and (
            scheme.instance != model.instance
        ):
            raise ValidationError(
                "scheme and cost model must share one instance"
            )
        self._model = model
        self._scheme = scheme
        self._instance = model.instance
        self._cost = self._instance.cost
        # Contiguous site-major rows: self._cost_T[site] is the distance
        # vector used by add pricing (elementwise only, so the layout
        # cannot alter any reduction).
        self._cost_T = model.transposed_cost
        # Live view of the scheme's X matrix; mutated in place by the
        # scheme, so one lookup serves every delta.
        self._x = scheme.matrix
        self._metrics = model.metrics
        m, n = self._instance.num_sites, self._instance.num_objects
        self._d1 = np.empty((n, m))
        self._d2 = np.empty((n, m))
        self._n1 = np.empty((n, m), dtype=np.int64)
        self._n2 = np.empty((n, m), dtype=np.int64)
        self._num_objects = n
        self._obj_cost: List[float] = [0.0] * n
        for k in range(n):
            self._rebuild_object(k)
        # Delta memo: a priced delta stays valid until its object's
        # column changes, so local search re-sampling the same (site,
        # obj) pays one dict probe instead of a re-price.  Hits return
        # the identical float computed earlier against the identical
        # column — bit-equal by construction.  Keys are flat ints
        # (site * N + obj): cheaper to hash than tuples on this path.
        self._primaries_list = [int(p) for p in self._instance.primaries]
        self._col_version: List[int] = [0] * n
        self._memo_add: dict = {}
        self._memo_drop: dict = {}
        self._priced = 0
        self._applied = 0
        scheme.attach_listener(self._on_scheme_change)

    def total_cost(self) -> float:
        """Current ``D(X)``; summed in the same order as the full path."""
        return float(sum(self._obj_cost))

    # ------------------------------------------------------------------ #
    # state construction / repair
    # ------------------------------------------------------------------ #
    def _rebuild_object(self, obj: int) -> None:
        reps = self._scheme.replicators(obj)
        d1, n1, d2, n2 = _two_nearest(self._cost, reps)
        self._d1[obj] = d1
        self._n1[obj] = n1
        self._d2[obj] = d2
        self._n2[obj] = n2
        self._obj_cost[obj] = self._column_cost(
            obj, self._x[:, obj], self._d1[obj]
        )

    def _column_cost(
        self, obj: int, mask: np.ndarray, d1: np.ndarray
    ) -> float:
        """Eq. 4 term of ``obj`` under ``mask`` from a nearest-distance row."""
        return eq4_object_term(self._model._columns(obj), mask, d1)

    # ------------------------------------------------------------------ #
    # pricing
    # ------------------------------------------------------------------ #
    def delta_add(self, site: int, obj: int) -> float:
        """Exact change in ``D`` from adding a replica of ``obj`` at ``site``."""
        if self._x[site, obj]:
            raise ValueError(f"site {site} already holds object {obj}")
        version = self._col_version[obj]
        key = site * self._num_objects + obj
        hit = self._memo_add.get(key)
        self._priced += 1
        if self._priced % self._DELTA_SAMPLE == 1:
            self._trace_priced()
        if hit is not None and hit[0] == version:
            return hit[1]
        metrics = self._metrics
        if metrics is not None:
            with metrics.timer("cost.delta"):
                delta = self._delta_add(site, obj)
            metrics.increment("cost.delta_add")
        else:
            delta = self._delta_add(site, obj)
        self._memo_add[key] = (version, delta)
        return delta

    def _delta_add(self, site: int, obj: int) -> float:
        d1_new = np.minimum(self._d1[obj], self._cost_T[site])
        mask = self._x[:, obj].copy()
        mask[site] = True
        after = self._column_cost(obj, mask, d1_new)
        return after - self._obj_cost[obj]

    def delta_drop(self, site: int, obj: int) -> float:
        """Exact change in ``D`` from dropping the replica of ``obj`` at ``site``."""
        if not self._x[site, obj]:
            raise ValueError(f"site {site} does not hold object {obj}")
        if self._primaries_list[obj] == site:
            raise ValueError(f"cannot drop primary copy of object {obj}")
        version = self._col_version[obj]
        key = site * self._num_objects + obj
        hit = self._memo_drop.get(key)
        self._priced += 1
        if self._priced % self._DELTA_SAMPLE == 1:
            self._trace_priced()
        if hit is not None and hit[0] == version:
            return hit[1]
        metrics = self._metrics
        if metrics is not None:
            with metrics.timer("cost.delta"):
                delta = self._delta_drop(site, obj)
            metrics.increment("cost.delta_drop")
        else:
            delta = self._delta_drop(site, obj)
        self._memo_drop[key] = (version, delta)
        return delta

    def _delta_drop(self, site: int, obj: int) -> float:
        affected = self._n1[obj] == site
        d1_new = np.where(affected, self._d2[obj], self._d1[obj])
        mask = self._x[:, obj].copy()
        mask[site] = False
        after = self._column_cost(obj, mask, d1_new)
        return after - self._obj_cost[obj]

    def detach(self) -> None:
        """Stop tracking the scheme (listener removed; state frozen)."""
        self._scheme.detach_listener(self._on_scheme_change)

    # ------------------------------------------------------------------ #
    # listener (the single update path for every scheme mutation)
    # ------------------------------------------------------------------ #
    def _on_scheme_change(self, kind: str, site: int, obj: int) -> None:
        # Fresh column version: memoised deltas of this object no longer
        # match.
        self._col_version[obj] += 1
        if kind == ADD:
            self._state_add(site, obj)
        else:
            self._state_drop(site, obj)
        self._obj_cost[obj] = self._column_cost(
            obj, self._x[:, obj], self._d1[obj]
        )
        self._applied += 1
        if self._metrics is not None:
            self._metrics.increment("cost.delta_apply")

    def _state_add(self, site: int, obj: int) -> None:
        c = self._cost_T[site]
        d1, d2 = self._d1[obj], self._d2[obj]
        n1, n2 = self._n1[obj], self._n2[obj]
        closer = c < d1
        d2[closer] = d1[closer]
        n2[closer] = n1[closer]
        d1[closer] = c[closer]
        n1[closer] = site
        second = ~closer & (c < d2)
        d2[second] = c[second]
        n2[second] = site

    def _state_drop(self, site: int, obj: int) -> None:
        n1, n2 = self._n1[obj], self._n2[obj]
        affected = np.nonzero((n1 == site) | (n2 == site))[0]
        if affected.size == 0:
            return
        reps = self._scheme.replicators(obj)  # post-drop
        d1, r1, d2, r2 = _two_nearest(self._cost, reps, rows=affected)
        self._d1[obj][affected] = d1
        self._n1[obj][affected] = r1
        self._d2[obj][affected] = d2
        self._n2[obj][affected] = r2

    def _trace_priced(self) -> None:
        tracer = current_tracer()
        if tracer.enabled:
            # Sampled: one event per _DELTA_SAMPLE priced deltas keeps
            # `repro trace` able to compare full-kernel vs incremental
            # evaluation volumes without flooding the ring buffer.
            tracer.event(
                "cost.delta",
                priced=self._priced,
                applied=self._applied,
            )

    # ------------------------------------------------------------------ #
    # self-check
    # ------------------------------------------------------------------ #
    def consistency_check(self) -> None:
        """Assert the cached state matches a from-scratch rebuild (tests)."""
        matrix = self._scheme.matrix
        for k in range(self._instance.num_objects):
            reps = self._scheme.replicators(k)
            d1, _, d2, _ = _two_nearest(self._cost, reps)
            if not np.array_equal(d1, self._d1[k]):
                raise AssertionError(f"object {k}: stale nearest distances")
            if not np.array_equal(d2, self._d2[k]):
                raise AssertionError(f"object {k}: stale second distances")
            expected = self._column_cost(k, matrix[:, k], self._d1[k])
            if expected != self._obj_cost[k]:
                raise AssertionError(f"object {k}: stale cost term")


# --------------------------------------------------------------------- #
# one-shot deltas (no evaluator state): the thin adapters CostModel's
# add_delta/drop_delta collapse onto
# --------------------------------------------------------------------- #
def single_add_delta(
    model: CostModel, scheme: ReplicationScheme, site: int, obj: int
) -> float:
    """Exact add delta computed from scratch in one O(M*R) pass.

    Both columns are priced by :func:`~repro.core.cost.eq4_object_term`,
    so the value is bit-identical to
    :meth:`IncrementalCostEvaluator.delta_add`.
    """
    reps = scheme.replicators(obj)
    cost = model.instance.cost
    operands = model._columns(obj)
    d1 = cost[:, reps].min(axis=1)
    mask = scheme.matrix[:, obj].copy()
    before = eq4_object_term(operands, mask, d1)
    mask[site] = True
    after = eq4_object_term(operands, mask, np.minimum(d1, cost[:, site]))
    return after - before


def single_drop_delta(
    model: CostModel, scheme: ReplicationScheme, site: int, obj: int
) -> float:
    """Exact drop delta computed from scratch in one O(M*R) pass."""
    reps = scheme.replicators(obj)
    cost = model.instance.cost
    operands = model._columns(obj)
    mask = scheme.matrix[:, obj].copy()
    before = eq4_object_term(operands, mask, cost[:, reps].min(axis=1))
    mask[site] = False
    remaining = reps[reps != site]
    after = eq4_object_term(operands, mask, cost[:, remaining].min(axis=1))
    return after - before


__all__ = [
    "ADD",
    "DROP",
    "IncrementalCostEvaluator",
    "eq5_benefit",
    "single_add_delta",
    "single_drop_delta",
]
