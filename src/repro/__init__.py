"""repro — Static and Adaptive Data Replication Algorithms.

A production-quality reproduction of

    T. Loukopoulos and I. Ahmad, "Static and Adaptive Data Replication
    Algorithms for Fast Information Access in Large Distributed Systems",
    Proc. 20th IEEE Int'l Conf. on Distributed Computing Systems
    (ICDCS 2000).

The library covers the full paper: the Data Replication Problem cost
model (Section 2), the greedy SRA (Section 3), the genetic GRA
(Section 4), the adaptive AGRA with its micro-GA, transcription and
Eq. 6 deallocation estimator (Section 5), and an experiment harness that
regenerates every figure of the evaluation (Section 6) — plus the
substrates they stand on: network topologies with from-scratch shortest
paths, the synthetic workload generator, a message-level emulation of the
distributed SRA, and a per-request protocol simulator that
cross-validates the analytic cost model.

Quickstart
----------
>>> from repro import WorkloadSpec, generate_instance, SRA, GRA
>>> instance = generate_instance(
...     WorkloadSpec(num_sites=10, num_objects=20), rng=42)
>>> result = SRA().run(instance)
>>> result.savings_percent >= 0
True
"""

import importlib

from repro.version import __version__

#: public name -> the subpackage it is re-exported from.  Names resolve
#: on first access (PEP 562), so ``import repro.cli`` does not pay for
#: the simulator, the experiment harness or the distributed protocols.
_EXPORTS = {
    **dict.fromkeys(
        (
            "CostModel",
            "DRPInstance",
            "ReplicationScheme",
            "benefit_matrix",
            "deallocation_estimate",
            "fitness_from_costs",
            "replication_benefit",
            "savings_percent",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        (
            "AGRA",
            "AGRAParams",
            "AlgorithmResult",
            "GAParams",
            "GRA",
            "NoReplication",
            "RandomReplication",
            "ReadOnlyGreedy",
            "ReplicationAlgorithm",
            "SRA",
            "solve_optimal",
        ),
        "repro.algorithms",
    ),
    **dict.fromkeys(("Topology", "paper_cost_matrix"), "repro.network"),
    **dict.fromkeys(
        (
            "PatternChange",
            "Request",
            "WorkloadSpec",
            "apply_pattern_change",
            "generate_instance",
            "generate_instances",
            "generate_trace",
        ),
        "repro.workload",
    ),
    "DistributedSRA": "repro.distributed",
    **dict.fromkeys(
        (
            "AdaptiveReplicationLoop",
            "ReplicaSystem",
            "SimulationMetrics",
        ),
        "repro.sim",
    ),
    **dict.fromkeys(("get_profile", "run_figure"), "repro.experiments"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    # core
    "DRPInstance",
    "ReplicationScheme",
    "CostModel",
    "replication_benefit",
    "benefit_matrix",
    "deallocation_estimate",
    "fitness_from_costs",
    "savings_percent",
    # algorithms
    "ReplicationAlgorithm",
    "AlgorithmResult",
    "SRA",
    "GRA",
    "GAParams",
    "AGRA",
    "AGRAParams",
    "NoReplication",
    "RandomReplication",
    "ReadOnlyGreedy",
    "solve_optimal",
    # network / workload
    "Topology",
    "paper_cost_matrix",
    "WorkloadSpec",
    "generate_instance",
    "generate_instances",
    "apply_pattern_change",
    "PatternChange",
    "generate_trace",
    "Request",
    # distributed / simulation
    "DistributedSRA",
    "ReplicaSystem",
    "SimulationMetrics",
    "AdaptiveReplicationLoop",
    # experiments
    "get_profile",
    "run_figure",
]
