"""Workload substrate: synthetic DRP instances and dynamic pattern changes.

:func:`generate_instance` reproduces Section 6.1 of the paper; the
:mod:`repro.workload.mutation` knobs (``Ch``, ``OCh``, ``R``/``U`` split,
normally-clustered update hotspots) reproduce the fifth experiment's
pattern changes; :mod:`repro.workload.trace` expands count matrices into
request streams for the simulator; :mod:`repro.workload.zipf`
adds the Zipf-skewed web-like popularity extension.
"""

from repro.workload.spec import WorkloadSpec
from repro.workload.generator import generate_instance, generate_instances
from repro.workload.mutation import PatternChange, apply_pattern_change
from repro.workload.sparse import SparseCounts, SparseProblem
from repro.workload.trace import Request, generate_trace
from repro.workload.zipf import zipf_weights, zipf_read_matrix

__all__ = [
    "WorkloadSpec",
    "generate_instance",
    "generate_instances",
    "PatternChange",
    "apply_pattern_change",
    "Request",
    "generate_trace",
    "SparseCounts",
    "SparseProblem",
    "zipf_weights",
    "zipf_read_matrix",
]
