"""Measurement side of the simulator.

NTC is accounted per transfer (``size * C(src, dst)``), broken down by
cause (read fetch, write shipment to the primary, update broadcast,
migration during scheme realisation).  Response times use a simple linear
latency model: a transfer of ``u`` units over per-unit cost ``c`` takes
``base_latency + u * c * unit_latency`` — enough to turn NTC shapes into
the response-time shapes the paper's introduction motivates.

Latencies are accumulated in :class:`~repro.utils.metrics.Histogram`\\ s
(log-scale buckets, ~9% quantile resolution) rather than raw lists, so a
multi-million-request run holds a few hundred counters instead of one
float per request.  Means stay exact (sum/count is tracked separately);
percentiles are bucket-resolution estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.utils.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.utils.telemetry import TelemetrySink

#: transfer cause labels
READ_FETCH = "read-fetch"
WRITE_TO_PRIMARY = "write-to-primary"
UPDATE_BROADCAST = "update-broadcast"
MIGRATION = "migration"

CAUSES = (READ_FETCH, WRITE_TO_PRIMARY, UPDATE_BROADCAST, MIGRATION)


@dataclass
class SimulationMetrics:
    """Accumulated measurements of one simulation run."""

    num_sites: int
    num_objects: int
    base_latency: float = 0.0
    unit_latency: float = 1.0

    ntc_by_cause: Dict[str, float] = field(init=False)
    ntc_by_site: np.ndarray = field(init=False)
    ntc_by_object: np.ndarray = field(init=False)
    transfers: int = field(default=0, init=False)
    local_reads: int = field(default=0, init=False)
    rejected_reads: int = field(default=0, init=False)
    rejected_writes: int = field(default=0, init=False)
    served_stale: int = field(default=0, init=False)
    read_latencies: Histogram = field(init=False)
    write_latencies: Histogram = field(init=False)
    fault_events: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_sites < 1 or self.num_objects < 1:
            raise ValidationError("metrics need at least one site and object")
        self.ntc_by_cause = {cause: 0.0 for cause in CAUSES}
        self.ntc_by_site = np.zeros(self.num_sites)
        self.ntc_by_object = np.zeros(self.num_objects)
        self.read_latencies = Histogram()
        self.write_latencies = Histogram()
        self.fault_events = {}

    # ------------------------------------------------------------------ #
    def record_transfer(
        self,
        cause: str,
        site: int,
        obj: int,
        size: float,
        unit_cost: float,
    ) -> float:
        """Account one transfer; returns its latency."""
        if cause not in self.ntc_by_cause:
            raise ValidationError(f"unknown transfer cause {cause!r}")
        ntc = size * unit_cost
        self.ntc_by_cause[cause] += ntc
        self.ntc_by_site[site] += ntc
        self.ntc_by_object[obj] += ntc
        self.transfers += 1
        return self.base_latency + ntc * self.unit_latency

    def record_transfers(
        self,
        causes: np.ndarray,
        sites: np.ndarray,
        objs: np.ndarray,
        ntc: np.ndarray,
    ) -> np.ndarray:
        """Account a batch of transfers in order; returns their latencies.

        ``causes`` indexes :data:`CAUSES`.  The result is bit-identical to
        one :meth:`record_transfer` per element: ``np.add.at`` adds
        element by element in index order, the same left fold per
        accumulator (``np.sum`` is pairwise and would not be).
        """
        by_cause = np.array([self.ntc_by_cause[c] for c in CAUSES])
        np.add.at(by_cause, causes, ntc)
        for cause, value in zip(CAUSES, by_cause.tolist()):
            self.ntc_by_cause[cause] = value
        np.add.at(self.ntc_by_site, sites, ntc)
        np.add.at(self.ntc_by_object, objs, ntc)
        self.transfers += len(ntc)
        return self.base_latency + ntc * self.unit_latency

    def record_read_latency(self, latency: float) -> None:
        self.read_latencies.record(latency)

    def record_write_latency(self, latency: float) -> None:
        self.write_latencies.record(latency)

    def record_local_read(self) -> None:
        """A read served by a local replica (zero transfer cost)."""
        self.local_reads += 1
        self.read_latencies.record(self.base_latency)

    def record_rejected_read(self) -> None:
        """A read that could not be served (requester or object down)."""
        self.rejected_reads += 1

    def record_rejected_write(self) -> None:
        """A write that could not be applied (writer or primary down)."""
        self.rejected_writes += 1

    def record_served_stale(self) -> None:
        """A read served from a stale replica (availability over
        freshness during a primary outage or partition)."""
        self.served_stale += 1

    def record_fault(self, kind: str) -> None:
        """Count one injected fault transition (crash, recovery, ...)."""
        self.fault_events[kind] = self.fault_events.get(kind, 0) + 1

    # ------------------------------------------------------------------ #
    @property
    def total_ntc(self) -> float:
        return float(sum(self.ntc_by_cause.values()))

    @property
    def request_ntc(self) -> float:
        """NTC excluding migration (comparable to the analytic ``D``)."""
        return self.total_ntc - self.ntc_by_cause[MIGRATION]

    def mean_read_latency(self) -> float:
        """Exact mean (the histogram tracks sum and count separately)."""
        return self.read_latencies.mean()

    def mean_write_latency(self) -> float:
        """Exact mean (the histogram tracks sum and count separately)."""
        return self.write_latencies.mean()

    def percentile_read_latency(self, q: float) -> float:
        """Bucket-resolution estimate (~9% relative); 0.0 when empty."""
        return self.read_latencies.percentile(q)

    def percentile_write_latency(self, q: float) -> float:
        """Bucket-resolution estimate (~9% relative); 0.0 when empty."""
        return self.write_latencies.percentile(q)

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 (plus mean and count) for reads and writes.

        A run with zero completed requests of a kind returns the *same
        keys* with ``count == 0`` and ``NaN`` for mean and percentiles —
        an explicit "no data" marker rather than a fabricated 0.0 that
        would read as a perfect zero-latency run.
        """
        out: Dict[str, float] = {}
        for kind, hist in (
            ("read", self.read_latencies),
            ("write", self.write_latencies),
        ):
            out[f"{kind}_count"] = float(hist.count)
            if hist.count == 0:
                out[f"{kind}_mean"] = math.nan
                for q in (50.0, 95.0, 99.0):
                    out[f"{kind}_p{int(q)}"] = math.nan
                continue
            out[f"{kind}_mean"] = hist.mean()
            for q in (50.0, 95.0, 99.0):
                out[f"{kind}_p{int(q)}"] = hist.percentile(q)
        return out

    def summary(self) -> Dict[str, float]:
        out = {
            "total_ntc": self.total_ntc,
            "request_ntc": self.request_ntc,
            "transfers": float(self.transfers),
            "local_reads": float(self.local_reads),
            "rejected_reads": float(self.rejected_reads),
            "rejected_writes": float(self.rejected_writes),
            "mean_read_latency": self.mean_read_latency(),
            "mean_write_latency": self.mean_write_latency(),
            "p95_read_latency": self.percentile_read_latency(95.0),
            **{f"ntc[{cause}]": v for cause, v in self.ntc_by_cause.items()},
        }
        # Only present when faults actually fired, so a fault-free run's
        # summary is key-identical to one recorded before fault injection
        # existed (the empty-plan regression guarantee).  Stale serves
        # follow the same rule — they only happen under faults.
        if self.served_stale:
            out["served_stale"] = float(self.served_stale)
        if self.fault_events:
            out.update(
                {
                    f"faults[{kind}]": float(count)
                    for kind, count in sorted(self.fault_events.items())
                }
            )
        return out

    # ------------------------------------------------------------------ #
    def publish(self, sink: "TelemetrySink") -> None:
        """Push the accumulated measurements into a telemetry sink.

        Scalars become plain gauges; per-cause and per-site NTC become
        labelled gauge series (``repro_sim_ntc_by_cause{cause="..."}``,
        ``repro_sim_ntc_by_site{site="..."}``); latency quantiles land
        under ``repro_sim_latency{kind=...,stat=...}``.  A no-op when
        the sink is disabled.
        """
        if not sink.enabled:
            return
        sink.set_gauge("repro_sim_total_ntc", self.total_ntc)
        sink.set_gauge("repro_sim_request_ntc", self.request_ntc)
        sink.set_gauge("repro_sim_transfers", self.transfers)
        sink.set_gauge("repro_sim_local_reads", self.local_reads)
        sink.set_gauge("repro_sim_rejected_reads", self.rejected_reads)
        sink.set_gauge("repro_sim_rejected_writes", self.rejected_writes)
        sink.set_gauge("repro_sim_served_stale", self.served_stale)
        for cause, value in self.ntc_by_cause.items():
            sink.set_gauge("repro_sim_ntc_by_cause", value, cause=cause)
        for site, value in enumerate(self.ntc_by_site):
            sink.set_gauge(
                "repro_sim_ntc_by_site", float(value), site=site
            )
        for kind, value in sorted(self.latency_summary().items()):
            stat_kind, _, stat = kind.partition("_")
            sink.set_gauge(
                "repro_sim_latency", value, kind=stat_kind, stat=stat
            )
        for kind, count in sorted(self.fault_events.items()):
            sink.set_gauge("repro_sim_fault_events", count, kind=kind)


__all__ = [
    "SimulationMetrics",
    "READ_FETCH",
    "WRITE_TO_PRIMARY",
    "UPDATE_BROADCAST",
    "MIGRATION",
    "CAUSES",
]
