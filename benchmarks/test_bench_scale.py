"""Large-instance scale path: peak memory and wall-clock per tier.

The scale refactor's acceptance bar:

* the sparse/blocked kernels must stay **bit-identical** to the dense
  path wherever both fit in memory (asserted here on an overlap size);
* SRA end to end on the sparse path must complete at M=1024, N=10k
  within the CI memory ulimit.

Every run writes a ``BENCH_scale.json`` artifact (path overridable via
``BENCH_SCALE_JSON``) recording per-tier wall-clock (generate + solve)
and peak memory — Python-heap peak from ``tracemalloc`` plus process
``ru_maxrss``.  The wall-clock comes from an untraced pass and the heap
peak from a second, traced pass of the same tier.  The tiers come from ``BENCH_SCALE_TIERS`` (comma-
separated tier names from :data:`repro.experiments.scale.SCALE_TIERS`);
the default runs ``small`` and ``medium``, while the ``large`` tier
(M=1024, N=10k) rides on the ``slow`` marker so tier-1 never pays for
it.
"""

from __future__ import annotations

import json
import os
import resource
import time
import tracemalloc
from typing import Dict, List

import numpy as np
import pytest

from repro.algorithms.sra import SRA
from repro.core import CostModel, ReplicationScheme, SparseCostModel
from repro.experiments.scale import (
    SCALE_TIERS,
    ScaleSpec,
    generate_scale_problem,
)
from repro.workload import SparseProblem, WorkloadSpec, generate_instance

ARTIFACT_ENV_VAR = "BENCH_SCALE_JSON"
TIERS_ENV_VAR = "BENCH_SCALE_TIERS"
SEED = 7

#: the overlap size where dense and sparse both fit comfortably — the
#: bit-identity assertions run here on every invocation
OVERLAP_SITES = 40
OVERLAP_OBJECTS = 300


def _tiers() -> List[str]:
    raw = os.environ.get(TIERS_ENV_VAR)
    if raw:
        return [token.strip() for token in raw.split(",") if token.strip()]
    return ["small", "medium"]


def _solve_tier(spec: ScaleSpec):
    """Generate and solve one tier; returns (problem, result, gen s, solve s)."""
    started = time.perf_counter()
    problem = generate_scale_problem(spec, rng=SEED)
    generated = time.perf_counter()
    result = SRA().run(problem)
    solved = time.perf_counter()
    return problem, result, generated - started, solved - generated


def _run_tier(tier: str) -> Dict[str, object]:
    """Time an untraced pass, then take the heap peak from a traced one.

    ``tracemalloc`` hooks every allocation and slows the run several-fold,
    so the wall-clock comes from a pass it does not watch.
    """
    m, n = SCALE_TIERS[tier]
    spec = ScaleSpec(num_sites=m, num_objects=n)
    problem, result, generate_seconds, solve_seconds = _solve_tier(spec)
    tracemalloc.start()
    try:
        _, traced, _, _ = _solve_tier(spec)
        _, heap_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.scheme.is_valid()
    assert traced.total_cost == result.total_cost
    return {
        "tier": tier,
        "num_sites": m,
        "num_objects": n,
        "read_nnz": problem.reads.nnz,
        "write_nnz": problem.writes.nnz,
        "seed": SEED,
        "generate_seconds": generate_seconds,
        "solve_seconds": solve_seconds,
        "heap_peak_bytes": heap_peak,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "total_cost": result.total_cost,
        "savings_percent": result.savings_percent,
        "extra_replicas": result.extra_replicas,
    }


def _write_artifact(records: List[Dict[str, object]]) -> str:
    """Write the ``BENCH_scale.json`` artifact; returns its path.

    Schema: ``benchmark`` / ``algorithms`` list / ``results`` plus
    ``overlap_identity_checked``.  Records already in the file whose
    ``tier`` is not being rewritten are kept, so the slow large tier
    accumulates next to previously recorded quick tiers.
    """
    path = os.environ.get(ARTIFACT_ENV_VAR, "BENCH_scale.json")
    tiers = {record["tier"] for record in records}
    kept: List[Dict[str, object]] = []
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fp:
                kept = [
                    record
                    for record in json.load(fp).get("results", [])
                    if record.get("tier") not in tiers
                ]
        except (ValueError, OSError):
            kept = []
    payload = {
        "benchmark": "scale-path",
        "algorithms": ["SRA"],
        "results": kept + records,
        "overlap_identity_checked": True,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
    return path


def test_sparse_bit_identity_on_overlap_size():
    """Dense and sparse paths agree bit for bit where both fit."""
    instance = generate_instance(
        WorkloadSpec(
            num_sites=OVERLAP_SITES,
            num_objects=OVERLAP_OBJECTS,
            update_ratio=0.05,
            capacity_ratio=0.2,
        ),
        rng=SEED,
    )
    sparse = SparseProblem.from_instance(instance)

    dense_model = CostModel(instance)
    sparse_model = SparseCostModel(sparse, tile=64)
    scheme_d = ReplicationScheme.primary_only(instance)
    scheme_s = ReplicationScheme.primary_only(sparse)
    assert sparse_model.total_cost(scheme_s) == dense_model.total_cost(
        scheme_d
    )
    assert sparse_model.d_prime() == dense_model.d_prime()

    dense_run = SRA().run(instance)
    sparse_run = SRA().run(sparse)
    assert np.array_equal(dense_run.scheme.matrix, sparse_run.scheme.matrix)
    assert sparse_run.total_cost == dense_run.total_cost


def test_scale_tiers_complete_within_budget():
    records = []
    for tier in _tiers():
        record = _run_tier(tier)
        records.append(record)
        print(
            f"\nscale[{tier}]: M={record['num_sites']} "
            f"N={record['num_objects']} "
            f"gen={record['generate_seconds']:.2f}s "
            f"solve={record['solve_seconds']:.2f}s "
            f"heap_peak={record['heap_peak_bytes'] / 1e6:.0f}MB "
            f"maxrss={record['ru_maxrss_kb'] / 1024:.0f}MB"
        )
    artifact = _write_artifact(records)
    assert os.path.exists(artifact)


@pytest.mark.slow
def test_scale_large_tier_end_to_end():
    """M=1024, N=10k SRA end to end on the sparse path (the slow tier)."""
    record = _run_tier("large")
    artifact = _write_artifact([record])
    print(
        f"\nscale[large]: gen={record['generate_seconds']:.2f}s "
        f"solve={record['solve_seconds']:.2f}s "
        f"heap_peak={record['heap_peak_bytes'] / 1e6:.0f}MB "
        f"maxrss={record['ru_maxrss_kb'] / 1024:.0f}MB -> {artifact}"
    )
