"""The object-transfer cost model of Section 2.2 (Eq. 1-4).

Accounting convention (Eq. 4 of the paper):

* a **non-replicator** site ``i`` pays ``r_ik * o_k * C(i, SN_ik)`` to read
  object ``k`` from its nearest replicator ``SN_ik`` plus
  ``w_ik * o_k * C(i, SP_k)`` to ship its writes to the primary;
* a **replicator** site ``i`` pays ``(sum_x w_xk) * o_k * C(i, SP_k)`` —
  shipping its own writes to the primary and receiving every broadcast
  update from it (both legs cost ``C(i, SP_k)`` per unit since ``C`` is
  symmetric).  The primary itself contributes zero because
  ``C(SP_k, SP_k) = 0``.

The total ``D(X)`` equals the aggregation of Eq. 1 + Eq. 2 over all sites
and objects; the test-suite cross-checks this closed form against a slow
site-by-site reference implementation and against the request-level
simulator.

``update_fraction`` (an extension the paper sketches in Section 2.2 —
"we can move only the updated parts") scales every write transfer: 1.0 is
the paper's ship-the-whole-object policy, 0.1 models delta updates that
ship 10% of the object per write.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.fitness import fitness_from_costs, savings_percent
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.metrics import MetricsRegistry
from repro.utils.profiler import current_profiler
from repro.utils.tracing import current_tracer
from repro.utils.validation import check_fraction

SchemeLike = Union[ReplicationScheme, np.ndarray]


def eq4_object_term(
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, float],
    mask: np.ndarray,
    nearest: np.ndarray,
) -> float:
    """Eq. 4 cost of one object's replica column — the single definition.

    ``columns`` is the ``(read_w, write_w, to_primary, total_w)`` tuple of
    :meth:`CostModel._columns`, ``mask`` the boolean replica column and
    ``nearest`` the unit-stride vector of each site's distance to its
    nearest replicator (zero at replicators).  Every pricing path — the
    scalar kernel, the batch kernel that prices every GA and micro-GA
    stack, the incremental evaluator and the one-shot deltas — computes
    ``nearest`` its own way and prices it here, so their costs are
    bit-identical on any cost matrix, integer-valued or not.
    """
    read_w, write_w, to_primary, total_w = columns
    # The weight column is copied contiguous before the dot: BLAS picks
    # its ddot kernel (and with it the accumulation order) by operand
    # stride, and the dense and tile-backed models store the column at
    # different strides.
    read_term = float(np.ascontiguousarray(read_w) @ nearest)
    # Non-replicators ship their own writes to the primary; replicators
    # are charged for all writes (own + received updates).
    nonrep = ~mask
    nonrep_writes = float(write_w[nonrep] @ to_primary[nonrep])
    rep_writes = float(to_primary[mask].sum() * total_w)
    return read_term + nonrep_writes + rep_writes


def unique_packed_rows(
    columns: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a boolean ``(P, M)`` stack, found on packed bits.

    Returns ``(packed, first, inverse)``.  ``packed`` is
    ``np.packbits(columns, axis=1)``, so ``packed[i].tobytes()`` is row
    ``i``'s memo-cache key ``np.packbits(columns[i]).tobytes()``.
    ``columns[first]`` are the distinct rows, each taken at its first
    occurrence, and ``columns[first][inverse]`` rebuilds ``columns``.
    Big-endian packing with zero padding sorts the packed bytes like the
    bool rows, so ``columns[first]`` and ``inverse`` equal what a
    row-wise :func:`numpy.unique` (over axis 0) returns.  A one-row stack
    skips the sort.
    """
    packed = np.packbits(columns, axis=1)
    if packed.shape[0] == 1:
        zero = np.zeros(1, dtype=np.intp)
        return packed, zero, zero
    # One np.void scalar per packed row: a 1-D unique over raw bytes.
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return packed, first, inverse


class CostModel:
    """Vectorised evaluator of the total network transfer cost ``D``.

    The evaluator precomputes the read/write *weights* (access counts times
    object size) and memoises per-object costs keyed by the object's packed
    replica column, which makes GA population evaluation cheap: columns
    shared between parents and offspring (elitism, survivors of crossover)
    are never recomputed.

    Parameters
    ----------
    instance:
        The problem inputs.
    update_fraction:
        Fraction of an object shipped per write transfer (default 1.0, the
        paper's policy).
    cache_size:
        Maximum number of memoised per-object costs.  The cache is a true
        LRU: when full, the single least-recently-used entry is evicted,
        so a working set one entry over capacity degrades gracefully
        instead of thrashing to a 0% hit rate.  0 disables caching.
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; when given,
        per-call timers (``cost.object_cost``, ``cost.batch``) and cache
        hit/miss/eviction counters are recorded into it.  Hit/miss/eviction
        totals are tracked on the model itself either way and reported by
        :meth:`cache_info`.
    """

    def __init__(
        self,
        instance: DRPInstance,
        update_fraction: float = 1.0,
        cache_size: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 0:
            raise ValidationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self._instance = instance
        self._uf = check_fraction(
            "update_fraction", update_fraction, allow_zero=True
        )
        # Read weight r_ik * o_k and write weight w_ik * o_k, shape (M, N).
        self._read_weight = instance.reads * instance.sizes[None, :]
        self._write_weight = (
            instance.writes * instance.sizes[None, :] * self._uf
        )
        # Total write weight per object: o_k * sum_x w_xk (already scaled).
        self._total_write_weight = self._write_weight.sum(axis=0)
        # C(i, SP_k) for every (i, k), shape (M, N).
        self._cost_to_primary = instance.cost[:, instance.primaries]
        self._cost_t = np.ascontiguousarray(instance.cost.T)
        self._cost_t.setflags(write=False)
        self._cache: "OrderedDict[Tuple[int, bytes], float]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._metrics = metrics
        self._d_prime_per_object: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> DRPInstance:
        return self._instance

    @property
    def update_fraction(self) -> float:
        return self._uf

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The registry this model records into, if any."""
        return self._metrics

    @property
    def read_weight(self) -> np.ndarray:
        """Read weight ``r_ik * o_k``, shape ``(M, N)`` (do not mutate)."""
        return self._read_weight

    @property
    def write_weight(self) -> np.ndarray:
        """Scaled write weight ``w_ik * o_k * uf``, shape ``(M, N)``."""
        return self._write_weight

    @property
    def total_write_weight(self) -> np.ndarray:
        """Per-object total write weight ``o_k * uf * sum_x w_xk``."""
        return self._total_write_weight

    @property
    def cost_to_primary(self) -> np.ndarray:
        """``C(i, SP_k)`` for every ``(i, k)``, shape ``(M, N)``."""
        return self._cost_to_primary

    @property
    def transposed_cost(self) -> np.ndarray:
        """C-contiguous ``C.T``: row ``j`` is the column ``C(., j)``."""
        return self._cost_t

    #: whether the full ``(M, N)`` weight matrices are materialised —
    #: :class:`SparseCostModel` keeps only object-column tiles instead
    has_dense_weights = True

    # ------------------------------------------------------------------ #
    # per-object operands (the kernels consume these, never the full
    # matrices, so tile-backed subclasses can swap the storage)
    # ------------------------------------------------------------------ #
    def _columns(self, obj: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``(read_w, write_w, to_primary, total_w)`` of one object.

        The four operands of :func:`eq4_object_term`, fetched with one
        storage lookup: the read weight column ``r_.k * o_k``, the scaled
        write weight column ``w_.k * o_k * uf``, the column
        ``C(., SP_k)`` and the scalar ``o_k * uf * sum_x w_xk``.
        """
        return (
            self._read_weight[:, obj],
            self._write_weight[:, obj],
            self._cost_to_primary[:, obj],
            self._total_write_weight[obj],
        )

    # ------------------------------------------------------------------ #
    # per-object costs
    # ------------------------------------------------------------------ #
    def object_cost(self, obj: int, column: np.ndarray) -> float:
        """NTC contributed by object ``obj`` under replica ``column``.

        ``column`` is the boolean length-``M`` replica indicator (the
        paper's ``V_k`` when summed with read and write components).  The
        primary must be a replicator; this is *not* re-checked here for
        speed — schemes enforce it structurally.
        """
        if self._metrics is not None:
            with self._metrics.timer("cost.object_cost"):
                return self._object_cost(obj, column)
        return self._object_cost(obj, column)

    def _object_cost(self, obj: int, column: np.ndarray) -> float:
        mask = np.asarray(column, dtype=bool)
        # Every site reads from its nearest replicator.  Rows of the
        # transposed cost are the columns C(., j), gathered contiguously;
        # a min is exact in any order.
        nearest = self._cost_t[np.nonzero(mask)[0]].min(axis=0)
        return eq4_object_term(self._columns(obj), mask, nearest)

    def object_cost_cached(
        self, obj: int, column: np.ndarray, key: Optional[bytes] = None
    ) -> float:
        """Memoised :meth:`object_cost` (keyed by the packed column bits).

        The memo table is LRU: a hit refreshes the entry's recency, and an
        insert into a full cache evicts only the least-recently-used entry.

        ``key`` may pass the column's packed-bit digest when the caller
        already owns one (:meth:`ReplicationScheme.column_digest`), which
        skips the per-lookup ``packbits`` that otherwise dominates the
        cache's hot path.  It must equal
        ``np.packbits(column).tobytes()`` — digests and ad-hoc lookups
        share one key space.
        """
        if key is None:
            key = np.packbits(np.asarray(column, dtype=bool)).tobytes()
        value = self.cache_lookup(obj, column, key)
        if value is None:
            value = self.object_cost(obj, column)
            self.cache_store(obj, column, value, key)
        return value

    def cache_lookup(
        self, obj: int, column: np.ndarray, key: Optional[bytes] = None
    ) -> Optional[float]:
        """Probe the memo table for a column's cost (hit/miss counted).

        Returns ``None`` on a miss (or when caching is disabled).  Both
        cached pricing paths — :meth:`object_cost_cached` and the batch
        kernel :meth:`object_cost_kernel`, which prices every GRA
        population and AGRA micro-GA pool — probe through here and store
        through :meth:`cache_store`, so the key space and the
        :meth:`cache_info` accounting are shared.  The batch kernel
        probes each distinct column of a stack once, so a column that
        repeats within one stack counts as one probe.
        ``key`` is the optional packed-bit digest, as for
        :meth:`object_cost_cached`.
        """
        if self._cache_size == 0:
            return None
        if key is None:
            key = np.packbits(np.asarray(column, dtype=bool)).tobytes()
        key = (obj, key)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self._record_hit()
            return hit
        self._record_miss()
        return None

    def cache_store(
        self,
        obj: int,
        column: np.ndarray,
        value: float,
        key: Optional[bytes] = None,
    ) -> None:
        """Insert a priced column cost into the memo table."""
        if self._cache_size == 0:
            return
        if key is None:
            key = np.packbits(np.asarray(column, dtype=bool)).tobytes()
        self._cache_insert((obj, key), float(value))

    def _record_hit(self) -> None:
        self._hits += 1
        if self._metrics is not None:
            self._metrics.increment("cost.cache_hits")

    def _record_miss(self) -> None:
        self._misses += 1
        if self._metrics is not None:
            self._metrics.increment("cost.cache_misses")

    #: evictions between ``cost.cache_pressure`` trace events
    _EVICTION_SAMPLE = 1024

    def _cache_insert(self, key: Tuple[int, bytes], value: float) -> None:
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
            self._evictions += 1
            if self._metrics is not None:
                self._metrics.increment("cost.cache_evictions")
            if self._evictions % self._EVICTION_SAMPLE == 1:
                tracer = current_tracer()
                if tracer.enabled:
                    # Sampled: one event per _EVICTION_SAMPLE evictions
                    # marks when (and how hard) the LRU starts thrashing.
                    tracer.event(
                        "cost.cache_pressure",
                        evictions=self._evictions,
                        hits=self._hits,
                        misses=self._misses,
                    )
        self._cache[key] = value

    def object_costs_batch(self, obj: int, columns: np.ndarray) -> np.ndarray:
        """Costs of many replica columns of one object at once.

        ``columns`` is a boolean ``(P, M)`` stack.  Validates the stack,
        opens one ``cost.batch`` trace span and prices it with
        :meth:`object_cost_kernel`.  Used by GA population evaluation
        and by AGRA's micro-GA, where whole generations share columns.
        """
        columns = np.asarray(columns, dtype=bool)
        if columns.ndim != 2 or columns.shape[1] != self._instance.num_sites:
            raise ValidationError(
                "columns must have shape (P, "
                f"{self._instance.num_sites}), got {columns.shape}"
            )
        tracer = current_tracer()
        if tracer.enabled:
            # One span per batched evaluation: coarse enough to stay
            # cheap, fine enough to localise GA evaluation time.  The
            # profiler ticks inside the span so samples attribute here.
            with tracer.span(
                "cost.batch", obj=obj, rows=int(columns.shape[0])
            ):
                result = self.object_cost_kernel(obj, columns)
                current_profiler().tick()
                return result
        return self.object_cost_kernel(obj, columns)

    def object_cost_kernel(self, obj: int, columns: np.ndarray) -> np.ndarray:
        """The batch kernel: costs of a boolean ``(P, M)`` column stack.

        Every GA and micro-GA stack is priced here; the stack is not
        validated and no span is opened (:meth:`object_costs_batch`
        does both), but the call is timed as ``cost.batch`` into the
        metrics registry.  Duplicate columns are collapsed on their
        packed bits (:func:`unique_packed_rows`), and each packed row is
        also the column's memo-cache key, so a stack is packed once.
        Distinct columns are probed in bool-row order, the order a
        row-wise :func:`numpy.unique` yields, and cached costs are
        reused; each remaining fresh column gathers its
        nearest-replicator distances over its replicator set only and is
        priced by :func:`eq4_object_term`, so every row equals
        :meth:`object_cost_cached` bit for bit.
        """
        if self._metrics is not None:
            with self._metrics.timer("cost.batch"):
                return self._object_costs_batch(obj, columns)
        return self._object_costs_batch(obj, columns)

    def _object_costs_batch(self, obj: int, columns: np.ndarray) -> np.ndarray:
        packed, first, inverse = unique_packed_rows(columns)
        unique_costs = np.empty(first.shape[0])
        misses: list = []
        # Probe every row before storing any, so a store cannot evict an
        # entry a later row of the same batch would have hit.
        for idx, row in enumerate(first):
            key = packed[row].tobytes()
            hit = self.cache_lookup(obj, columns[row], key)
            if hit is None:
                misses.append((idx, key))
            else:
                unique_costs[idx] = hit
        cost_t = self._cost_t
        operands = self._columns(obj)
        for idx, key in misses:
            mask = columns[first[idx]]
            nearest = cost_t[np.nonzero(mask)[0]].min(axis=0)
            value = eq4_object_term(operands, mask, nearest)
            unique_costs[idx] = value
            self.cache_store(obj, mask, value, key)
        return unique_costs[inverse]

    def population_costs(self, matrices) -> np.ndarray:
        """Total ``D`` of every scheme matrix in ``matrices`` (batched)."""
        mats = [self._as_matrix(m) for m in matrices]
        if not mats:
            return np.empty(0)
        # (N, P, M): object k's column stack is the contiguous block cube[k].
        cube = np.stack([m.T for m in mats], axis=1)
        totals = np.zeros(len(mats))
        for k in range(self._instance.num_objects):
            totals += self.object_costs_batch(k, cube[k])
        return totals

    def primary_only_object_cost(self, obj: int) -> float:
        """``V_prime_k``: NTC of ``obj`` replicated only at its primary."""
        if self._d_prime_per_object is None:
            self._compute_d_prime()
        return float(self._d_prime_per_object[obj])

    def _compute_d_prime(self) -> None:
        m = self._instance.num_sites
        per_object = np.empty(self._instance.num_objects)
        column = np.zeros(m, dtype=bool)
        with current_tracer().span(
            "cost.d_prime", objects=self._instance.num_objects
        ):
            for k in range(self._instance.num_objects):
                primary = int(self._instance.primaries[k])
                column[primary] = True
                per_object[k] = self.object_cost(k, column)
                column[primary] = False
        self._d_prime_per_object = per_object

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #
    def _as_matrix(self, scheme: SchemeLike) -> np.ndarray:
        if isinstance(scheme, ReplicationScheme):
            return scheme.matrix
        mat = np.asarray(scheme, dtype=bool)
        expected = (self._instance.num_sites, self._instance.num_objects)
        if mat.shape != expected:
            raise ValidationError(
                f"scheme matrix must have shape {expected}, got {mat.shape}"
            )
        return mat

    def total_cost(self, scheme: SchemeLike, cached: bool = True) -> float:
        """``D(X)`` — Eq. 4 summed over all objects."""
        mat = self._as_matrix(scheme)
        if cached and isinstance(scheme, ReplicationScheme):
            # Scheme-owned digests replace the per-lookup packbits key.
            return float(
                sum(
                    self.object_cost_cached(
                        k, mat[:, k], key=scheme.column_digest(k)
                    )
                    for k in range(self._instance.num_objects)
                )
            )
        fn = self.object_cost_cached if cached else self.object_cost
        return float(
            sum(fn(k, mat[:, k]) for k in range(self._instance.num_objects))
        )

    def d_prime(self) -> float:
        """``D_prime`` — NTC of the primary-only allocation (cached)."""
        if self._d_prime_per_object is None:
            self._compute_d_prime()
        return float(self._d_prime_per_object.sum())

    def savings_percent(self, scheme: SchemeLike) -> float:
        """The paper's quality metric: % of ``D_prime`` saved by ``scheme``
        (see :func:`repro.core.fitness.savings_percent`)."""
        return savings_percent(self.d_prime(), self.total_cost(scheme))

    def fitness(self, scheme: SchemeLike) -> float:
        """Normalised GA fitness ``f = (D_prime - D) / D_prime``
        (see :func:`repro.core.fitness.fitness_from_costs`)."""
        return fitness_from_costs(self.d_prime(), self.total_cost(scheme))

    # ------------------------------------------------------------------ #
    # incremental deltas
    # ------------------------------------------------------------------ #
    def add_delta(
        self, scheme: ReplicationScheme, site: int, obj: int
    ) -> float:
        """Exact change in ``D`` from adding a replica of ``obj`` at ``site``.

        Negative values mean the addition reduces total cost.  Unlike the
        greedy benefit of Eq. 5 this accounts for *other* sites' reads
        being redirected to the new replica.
        """
        if scheme.holds(site, obj):
            raise ValueError(f"site {site} already holds object {obj}")
        from repro.core.incremental import single_add_delta

        return single_add_delta(self, scheme, site, obj)

    def drop_delta(
        self, scheme: ReplicationScheme, site: int, obj: int
    ) -> float:
        """Exact change in ``D`` from dropping the replica of ``obj`` at ``site``."""
        if not scheme.holds(site, obj):
            raise ValueError(f"site {site} does not hold object {obj}")
        if int(self._instance.primaries[obj]) == int(site):
            raise ValueError(f"cannot drop primary copy of object {obj}")
        from repro.core.incremental import single_drop_delta

        return single_drop_delta(self, scheme, site, obj)

    # ------------------------------------------------------------------ #
    # decomposition (Eq. 1 and Eq. 2, used by tests and the simulator)
    # ------------------------------------------------------------------ #
    def read_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        """``R_ik`` of Eq. 1 for every (site, object) pair, shape (M, N)."""
        mat = self._as_matrix(scheme)
        out = np.empty_like(self._read_weight)
        cost = self._instance.cost
        for k in range(self._instance.num_objects):
            reps = np.nonzero(mat[:, k])[0]
            out[:, k] = self._read_weight[:, k] * cost[:, reps].min(axis=1)
        return out

    def write_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        """``W_ik`` of Eq. 2 for every (site, object) pair, shape (M, N).

        Per the writer-side accounting of Eq. 2, site ``i`` pays for the
        primary shipment *and* the broadcast to every other replicator:
        ``w_ik * o_k * (C(i, SP_k) + sum_{j in R_k, j != i} C(SP_k, j))``.
        Summed over all (i, k) this equals the Eq. 4 write accounting.
        """
        mat = self._as_matrix(scheme)
        out = np.empty_like(self._write_weight)
        cost = self._instance.cost
        for k in range(self._instance.num_objects):
            primary = int(self._instance.primaries[k])
            reps = np.nonzero(mat[:, k])[0]
            broadcast_total = float(cost[primary, reps].sum())
            # Each writer i pays C(i, SP) plus the broadcast excluding the
            # leg back to itself when i is a replicator.
            per_writer = self._cost_to_primary[:, k] + broadcast_total
            per_writer = per_writer - np.where(
                mat[:, k], cost[primary, :], 0.0
            )
            out[:, k] = self._write_weight[:, k] * per_writer
        return out

    def cache_info(self) -> Dict[str, float]:
        """Diagnostics: cache population, capacity and hit/miss totals."""
        lookups = self._hits + self._misses
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": (self._hits / lookups) if lookups else 0.0,
        }

    def clear_cache(self) -> None:
        """Drop every memoised cost (hit/miss totals are kept)."""
        self._cache.clear()


class SparseCostModel(CostModel):
    """Blocked-kernel cost evaluator over a sparse workload.

    Accepts a :class:`~repro.workload.sparse.SparseProblem` (or anything
    whose ``reads``/``writes`` expose ``dense_block``/``column_sums``)
    and prices Eq. 4 without ever materialising the dense ``(M, N)``
    weight matrices: object-column **tiles** of width ``tile`` are
    densified on demand and held in a two-slot LRU, so peak memory is
    ``O(M * tile)`` on top of the inputs instead of ``O(M * N)``.

    Costs are **bit-identical** to :class:`CostModel` on the densified
    problem: tiles are built with the exact elementwise expressions of
    the dense constructor, per-object totals reduce over the same axis
    with the same length (NumPy's pairwise blocking depends only on the
    reduction length ``M``), and tile columns keep a non-unit stride —
    the same BLAS stride class as dense ``(M, N)`` columns — by never
    producing a width-1 tile (a trailing remainder of one column is
    merged into the previous tile).  The per-object LRU memo, the batch
    kernel and the incremental delta machinery are all inherited
    unchanged: they only consume the per-object operands of
    :meth:`_columns`.
    """

    has_dense_weights = False

    def __init__(
        self,
        problem,
        update_fraction: float = 1.0,
        cache_size: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
        tile: int = 256,
    ) -> None:
        if cache_size < 0:
            raise ValidationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if tile < 2:
            raise ValidationError(
                f"tile width must be >= 2 (width-1 tiles change the "
                f"column stride class), got {tile}"
            )
        reads = getattr(problem, "reads", None)
        if not hasattr(reads, "dense_block"):
            raise ValidationError(
                "SparseCostModel needs a sparse problem (reads/writes "
                "with dense_block); use CostModel for dense instances"
            )
        self._instance = problem
        self._cost_t = np.ascontiguousarray(problem.cost.T)
        self._cost_t.setflags(write=False)
        self._uf = check_fraction(
            "update_fraction", update_fraction, allow_zero=True
        )
        self._cache: "OrderedDict[Tuple[int, bytes], float]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._metrics = metrics
        self._d_prime_per_object: Optional[np.ndarray] = None
        n = problem.num_objects
        width = min(int(tile), n)
        starts = list(range(0, n, width))
        # Never leave a width-1 remainder: merge it into the previous
        # tile (contiguous width-1 columns would take BLAS's unit-stride
        # dot kernel whose accumulation differs from the strided one).
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        self._tile_starts = starts
        self._tiles: "OrderedDict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]" = OrderedDict()
        self._max_tiles = 2

    # ------------------------------------------------------------------ #
    # tile machinery
    # ------------------------------------------------------------------ #
    def _tile(self, obj: int):
        """``(start, (rw, ww, ctp, tw))`` of the tile holding ``obj``."""
        lo = bisect_right(self._tile_starts, obj) - 1  # rightmost start <= obj
        start = self._tile_starts[lo]
        entry = self._tiles.get(start)
        if entry is None:
            entry = self._build_tile(lo)
            if len(self._tiles) >= self._max_tiles:
                self._tiles.popitem(last=False)
            self._tiles[start] = entry
        else:
            self._tiles.move_to_end(start)
        return start, entry

    def _build_tile(self, pos: int):
        starts = self._tile_starts
        start = starts[pos]
        stop = (
            starts[pos + 1]
            if pos + 1 < len(starts)
            else self._instance.num_objects
        )
        inst = self._instance
        sizes = inst.sizes[start:stop]
        # The exact elementwise expressions of CostModel.__init__,
        # restricted to the column slice — elementwise products cannot
        # depend on the surrounding columns, so every entry matches the
        # dense weight matrices bit for bit.
        rw = inst.reads.dense_block(start, stop) * sizes[None, :]
        ww = (
            inst.writes.dense_block(start, stop)
            * sizes[None, :]
            * self._uf
        )
        tw = ww.sum(axis=0)
        ctp = inst.cost[:, inst.primaries[start:stop]]
        return rw, ww, ctp, tw

    @property
    def tile_width(self) -> int:
        """Nominal object-column tile width of the blocked kernel."""
        if len(self._tile_starts) > 1:
            return self._tile_starts[1] - self._tile_starts[0]
        return self._instance.num_objects

    # ------------------------------------------------------------------ #
    # per-object operands (everything above them is inherited)
    # ------------------------------------------------------------------ #
    def _columns(self, obj: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        start, (rw, ww, ctp, tw) = self._tile(obj)
        col = obj - start
        return rw[:, col], ww[:, col], ctp[:, col], tw[col]

    # The dense matrix properties would silently re-materialise the
    # O(M*N) arrays this model exists to avoid; fail loudly instead.
    def _no_dense(self, name: str):
        raise ValidationError(
            f"SparseCostModel does not materialise the dense {name} "
            f"matrix; it prices per object from column tiles"
        )

    @property
    def read_weight(self) -> np.ndarray:
        self._no_dense("read_weight")

    @property
    def write_weight(self) -> np.ndarray:
        self._no_dense("write_weight")

    @property
    def total_write_weight(self) -> np.ndarray:
        self._no_dense("total_write_weight")

    @property
    def cost_to_primary(self) -> np.ndarray:
        self._no_dense("cost_to_primary")

    def read_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        self._no_dense("read-component")

    def write_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        self._no_dense("write-component")


def cost_model_for(problem, **kwargs) -> CostModel:
    """The right cost evaluator for ``problem``.

    Dense :class:`~repro.core.problem.DRPInstance` inputs get a
    :class:`CostModel`; sparse problems get a :class:`SparseCostModel`.
    ``tile`` is only meaningful for the sparse path and is dropped for
    dense models.
    """
    if isinstance(problem, DRPInstance):
        kwargs.pop("tile", None)
        return CostModel(problem, **kwargs)
    return SparseCostModel(problem, **kwargs)


def reference_total_cost(
    instance: DRPInstance,
    scheme: SchemeLike,
    update_fraction: float = 1.0,
) -> float:
    """Slow, loop-based implementation of Eq. 4 used as a test oracle.

    Mirrors the paper's formula site-by-site and object-by-object with no
    vectorisation or caching; intentionally naive.
    """
    mat = (
        scheme.matrix
        if isinstance(scheme, ReplicationScheme)
        else np.asarray(scheme, dtype=bool)
    )
    total = 0.0
    for k in range(instance.num_objects):
        size = float(instance.sizes[k])
        primary = int(instance.primaries[k])
        reps = [i for i in range(instance.num_sites) if mat[i, k]]
        total_writes = sum(
            float(instance.writes[x, k]) for x in range(instance.num_sites)
        )
        for i in range(instance.num_sites):
            if mat[i, k]:
                total += (
                    update_fraction
                    * total_writes
                    * size
                    * float(instance.cost[i, primary])
                )
            else:
                nearest = min(float(instance.cost[i, j]) for j in reps)
                total += float(instance.reads[i, k]) * size * nearest
                total += (
                    update_fraction
                    * float(instance.writes[i, k])
                    * size
                    * float(instance.cost[i, primary])
                )
    return total


__all__ = [
    "CostModel",
    "eq4_object_term",
    "SparseCostModel",
    "cost_model_for",
    "reference_total_cost",
    "unique_packed_rows",
]
