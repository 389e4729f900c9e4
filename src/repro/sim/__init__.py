"""Discrete-event simulation of the replicated distributed system.

The analytic cost model (Section 2.2) predicts NTC from aggregate counts;
this package *measures* it by replaying individual read/write requests
against a replication scheme over the simulated network:

* reads are served by the requester's nearest replicator;
* writes ship the object to its primary, which broadcasts the update to
  every other replicator (the paper's replication policy, Section 2.1).

Integration tests assert that the measured NTC equals the analytic
``D(X)`` exactly — each implementation validates the other.  The
simulator additionally reports response times (the user-facing motivation
of the paper's introduction) and powers the adaptive monitor loop of
Section 5 (:mod:`repro.sim.adaptive`).
"""

from repro.sim.faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
    PartitionWindow,
    load_fault_plan,
)
from repro.sim.metrics import SimulationMetrics
from repro.sim.protocol import ReplicaSystem
from repro.sim.adaptive import AdaptiveLoopReport, AdaptiveReplicationLoop
from repro.sim.loadmodel import LoadReport, estimate_load, served_units

__all__ = [
    "LoadReport",
    "estimate_load",
    "served_units",
    "SimulationMetrics",
    "ReplicaSystem",
    "AdaptiveLoopReport",
    "AdaptiveReplicationLoop",
    "CrashWindow",
    "FaultInjector",
    "FaultPlan",
    "LinkDegradation",
    "MessageFaultSpec",
    "PartitionWindow",
    "load_fault_plan",
]
