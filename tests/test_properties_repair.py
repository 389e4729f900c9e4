"""AGRA's array capacity repair against a scheme-based reference loop.

:func:`~repro.algorithms.agra.transcription.repair_capacity` edits the
placement matrix directly.  The reference below walks the same Eq. 6
repair over a :class:`~repro.core.scheme.ReplicationScheme`, pricing each
held replica with the scalar :func:`~repro.core.benefit.deallocation_estimate`.
Both must leave the same matrix bytes, trace the same ``agra.deallocate``
events (estimates included) and raise the same error.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.algorithms.agra.transcription import repair_capacity
from repro.core import DRPInstance, ReplicationScheme
from repro.core.benefit import deallocation_estimate
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.errors import ReproError
from repro.runtime import RunContext
from repro.utils.tracing import current_tracer
from repro.workload import WorkloadSpec, generate_instance


def reference_repair(
    instance: DRPInstance,
    matrix: np.ndarray,
    protected_obj: Optional[int] = None,
) -> np.ndarray:
    """Eq. 6 repair one scheme mutation at a time."""
    loads = np.asarray(matrix, dtype=float) @ instance.sizes
    if np.all(loads <= instance.capacities + CAPACITY_TOLERANCE):
        return matrix
    scheme = ReplicationScheme.from_matrix(
        instance, matrix, enforce_capacity=False
    )
    capacities = instance.capacities
    tracer = current_tracer()
    for site in np.nonzero(loads > capacities + CAPACITY_TOLERANCE)[0]:
        site = int(site)
        estimates = np.full(instance.num_objects, np.nan)
        for obj in scheme.objects_at(site):
            obj = int(obj)
            if int(instance.primaries[obj]) != site:
                estimates[obj] = deallocation_estimate(
                    instance, scheme, site, obj
                )
        if protected_obj is not None:
            estimates[protected_obj] = np.nan
        order = [
            int(k) for k in np.argsort(estimates)
            if not np.isnan(estimates[int(k)])
        ]
        used = float(scheme.used_storage()[site])
        for victim in order:
            if used <= capacities[site] + CAPACITY_TOLERANCE:
                break
            scheme.drop_replica(site, victim)
            tracer.event(
                "agra.deallocate",
                site=site,
                obj=victim,
                estimate=float(estimates[victim]),
            )
            used -= float(instance.sizes[victim])
        if used > capacities[site] + CAPACITY_TOLERANCE:
            if (
                protected_obj is not None
                and scheme.holds(site, protected_obj)
                and int(instance.primaries[protected_obj]) != site
            ):
                scheme.drop_replica(site, protected_obj)
                tracer.event(
                    "agra.deallocate",
                    site=site,
                    obj=protected_obj,
                    estimate=None,
                    last_resort=True,
                )
                used -= float(instance.sizes[protected_obj])
            if used > capacities[site] + CAPACITY_TOLERANCE:
                raise ReproError(
                    f"site {site} cannot be repaired: only primary copies "
                    "remain but capacity is still exceeded"
                )
    matrix[:, :] = scheme.matrix
    return matrix


def primary_load(primaries, sizes, num_sites):
    """Per-site primary load, summed as :meth:`DRPInstance.primary_load`."""
    load = np.zeros(num_sites)
    np.add.at(load, primaries, sizes)
    return load


#: object size multipliers: integral, non-integer, and so large that a
#: site's ``used`` after dropping every replica rounds above its primary
#: load, which makes the site unrepairable
SIZE_SCALES = (1.0, 0.3, 7.1, 1.1e10 / 3)


@st.composite
def repair_cases(draw):
    """``(instance, matrix, protected_obj)`` with over-full sites.

    Objects may repeat their predecessor's patterns, size, primary and
    replica column, so Eq. 6 estimates tie; one site's cost row may be
    zero (the ``proportional == 0`` branch); sizes may be non-integer
    or large enough that ``used`` rounds; capacities may sit exactly at
    the primary load.
    """
    num_sites = draw(st.integers(2, 6))
    num_objects = draw(st.integers(1, 8))
    base = generate_instance(
        WorkloadSpec(
            num_sites=num_sites,
            num_objects=num_objects,
            update_ratio=draw(st.integers(0, 30)) / 100.0,
            size_mean=draw(st.integers(2, 12)),
        ),
        rng=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cost = base.cost.copy()
    sizes = base.sizes * draw(st.sampled_from(SIZE_SCALES))
    reads = base.reads.copy()
    writes = base.writes.copy()
    primaries = base.primaries.copy()
    matrix = rng.random((num_sites, num_objects)) < draw(
        st.sampled_from([0.3, 0.6, 0.9])
    )
    for k in range(1, num_objects):
        if draw(st.booleans()):
            reads[:, k] = reads[:, k - 1]
            writes[:, k] = writes[:, k - 1]
            sizes[k] = sizes[k - 1]
            primaries[k] = primaries[k - 1]
            matrix[:, k] = matrix[:, k - 1]
    zero_site = draw(st.none() | st.integers(0, num_sites - 1))
    if zero_site is not None:
        cost[zero_site, :] = 0.0
        cost[:, zero_site] = 0.0
    matrix[primaries, np.arange(num_objects)] = True
    floor = primary_load(primaries, sizes, num_sites)
    loads = matrix.astype(float) @ sizes
    slack = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    capacities = floor + slack * np.maximum(loads - floor, 0.0)
    instance = DRPInstance(cost, sizes, capacities, reads, writes, primaries)
    protected = draw(st.none() | st.integers(0, num_objects - 1))
    return instance, matrix, protected


def _run(repair, instance, matrix, protected):
    """Matrix bytes, error message and ``agra.deallocate`` attributes."""
    work = matrix.copy()
    error = None
    with RunContext(trace=True).activate() as ctx:
        try:
            repair(instance, work, protected_obj=protected)
        except ReproError as exc:
            error = (type(exc), str(exc))
        events: List[dict] = [
            dict(r["attrs"]) for r in ctx.tracer.records()
            if r["name"] == "agra.deallocate"
        ]
    return work.tobytes(), error, events


def fixed_case(seed, scale, protected=None, zero_site=None):
    """All of a 4x8 instance replicated everywhere, with every capacity
    at its site's primary load: each site must shed every replica."""
    base = generate_instance(WorkloadSpec(num_sites=4, num_objects=8), rng=seed)
    cost = base.cost.copy()
    if zero_site is not None:
        cost[zero_site, :] = 0.0
        cost[:, zero_site] = 0.0
    sizes = base.sizes * scale
    instance = DRPInstance(
        cost, sizes, primary_load(base.primaries, sizes, 4), base.reads,
        base.writes, base.primaries,
    )
    return instance, np.ones((4, 8), dtype=bool), protected


#: the protected object is dropped as a last resort
LAST_RESORT = fixed_case(0, 1.0, protected=3)
#: site 1's cost row is zero, so its Eq. 6 estimates are infinite
ZERO_COST_ROW = fixed_case(0, 1.0, zero_site=1)
#: rounding leaves site 0 over capacity with only primaries left
UNREPAIRABLE = fixed_case(0, 1.1e10 / 3)


def test_fixed_cases_reach_their_branches():
    _, error, events = _run(repair_capacity, *LAST_RESORT)
    assert error is None
    assert any(e.get("last_resort") for e in events)
    _, error, events = _run(repair_capacity, *ZERO_COST_ROW)
    assert error is None
    assert any(
        e["site"] == 1 and np.isinf(e["estimate"]) for e in events
    )
    left, error, _ = _run(repair_capacity, *UNREPAIRABLE)
    assert error == (ReproError, (
        "site 0 cannot be repaired: only primary copies remain but "
        "capacity is still exceeded"
    ))
    assert left == UNREPAIRABLE[1].tobytes()  # the matrix is untouched


@settings(max_examples=200, deadline=None)
@given(repair_cases())
@example(LAST_RESORT)
@example(ZERO_COST_ROW)
@example(UNREPAIRABLE)
def test_array_repair_matches_scheme_loop(case):
    instance, matrix, protected = case
    got = _run(repair_capacity, instance, matrix, protected)
    want = _run(reference_repair, instance, matrix, protected)
    assert got == want
