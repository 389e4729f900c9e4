#!/usr/bin/env python3
"""One placement, three consistency strategies.

Section 2.2 claims the cost framework "can be used with minor changes to
formalize various replication and consistency strategies".  This example
takes it up on that: the same GRA placement is costed and *simulated*
under the paper's primary-broadcast writes, writer-multicast writes, and
an invalidation protocol (stale replicas refetch on read), across a
range of update ratios — showing where each strategy wins.

Run:  python examples/consistency_strategies.py
"""

import numpy as np

from repro import GAParams, GRA, WorkloadSpec, generate_instance, generate_trace
from repro.core.strategies import WriteStrategy, total_cost
from repro.sim import ReplicaSystem
from repro.utils.tables import format_table

STRATEGIES = list(WriteStrategy)


def main() -> None:
    rows = []
    sim_rows = []
    for update_ratio in (0.01, 0.05, 0.20, 0.50):
        instance = generate_instance(
            WorkloadSpec(num_sites=12, num_objects=25,
                         update_ratio=update_ratio, capacity_ratio=0.2),
            rng=515,
        )
        scheme = GRA(
            GAParams(population_size=16, generations=15), rng=1
        ).run(instance).scheme

        analytic = [
            total_cost(instance, scheme, strategy)
            for strategy in STRATEGIES
        ]
        rows.append([f"{update_ratio * 100:g}%", *analytic])

        trace = generate_trace(instance, rng=2)
        measured = []
        for strategy in STRATEGIES:
            system = ReplicaSystem(instance, scheme, write_strategy=strategy)
            system.replay(trace)
            measured.append(system.metrics.request_ntc)
        sim_rows.append([f"{update_ratio * 100:g}%", *measured])

    labels = [s.value for s in STRATEGIES]
    print(
        format_table(
            ["update ratio", *labels], rows, precision=0,
            title="Analytic NTC of the same placement per strategy",
        )
    )
    print()
    print(
        format_table(
            ["update ratio", *labels], sim_rows, precision=0,
            title="Simulated NTC (per-request ground truth)",
        )
    )
    print(
        "\nReading the tables: broadcast and multicast agree with the "
        "simulator exactly\n(closed forms); invalidation's closed form is "
        "a stationary approximation of the\nsimulated truth.  At low "
        "update ratios the strategies are near-identical; as\nwrites grow, "
        "invalidation wins by shipping objects only to readers who "
        "actually\ncome back — the classic eager-vs-lazy consistency "
        "trade-off, expressed entirely\ninside the paper's cost framework."
    )


if __name__ == "__main__":
    main()
