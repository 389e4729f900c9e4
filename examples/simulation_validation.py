#!/usr/bin/env python3
"""Cross-validating the analytic cost model against the simulator.

The paper evaluates everything through the closed-form NTC of Eq. 4.
This example demonstrates the reproduction's strongest internal check:
an independent simulator replays every individual read and write
against the replication protocol of Section 2.1 and must measure
*exactly* the analytic ``D(X)`` — and then goes further than the
paper, translating NTC into user-visible response times.

Run:  python examples/simulation_validation.py
"""

from repro import (
    CostModel,
    ReplicationScheme,
    SRA,
    ReplicaSystem,
    WorkloadSpec,
    generate_instance,
    generate_trace,
)
from repro.sim import SimulationMetrics
from repro.utils.tables import format_table


def measure(instance, scheme, trace, label):
    metrics = SimulationMetrics(
        instance.num_sites,
        instance.num_objects,
        base_latency=2.0,  # ms of fixed per-request overhead
        unit_latency=0.01,  # ms per cost-weighted data unit
    )
    ReplicaSystem(instance, scheme, metrics=metrics).replay(trace)
    return [
        label,
        metrics.request_ntc,
        metrics.local_reads,
        metrics.mean_read_latency(),
        metrics.percentile_read_latency(95),
    ]


def main() -> None:
    instance = generate_instance(
        WorkloadSpec(num_sites=15, num_objects=30, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=31,
    )
    model = CostModel(instance)
    trace = generate_trace(instance, duration=60.0, rng=32)
    print(
        f"Instance: {instance}\nTrace: {len(trace):,} requests over 60s\n"
    )

    primary = ReplicationScheme.primary_only(instance)
    replicated = SRA().run(instance).scheme

    rows = [
        measure(instance, primary, trace, "primary-only"),
        measure(instance, replicated, trace, "SRA placement"),
    ]
    print(
        format_table(
            ["scheme", "measured NTC", "local reads",
             "mean read ms", "p95 read ms"],
            rows,
            precision=2,
        )
    )

    analytic_primary = model.d_prime()
    analytic_sra = model.total_cost(replicated)
    print("\nAnalytic model (Eq. 4):")
    print(f"  primary-only D' = {analytic_primary:,.2f}")
    print(f"  SRA scheme   D  = {analytic_sra:,.2f}")
    exact_primary = abs(rows[0][1] - analytic_primary) < 1e-6
    exact_sra = abs(rows[1][1] - analytic_sra) < 1e-6
    print(f"  simulator matches exactly: {exact_primary and exact_sra}")
    assert exact_primary and exact_sra

    speedup = rows[0][3] / rows[1][3]
    print(
        f"\nReplication cut the mean read latency {speedup:.2f}x — the "
        "response-time reduction the paper's introduction promises from "
        "NTC savings."
    )


if __name__ == "__main__":
    main()
