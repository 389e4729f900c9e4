"""The monitor-site statistics protocol of Section 5, with message costs.

The paper's operational model: "each site sends during night hours the
previous day's locally observed R/W patterns to the monitor", and for
the adaptive mode "statistics collection should be done every few
minutes".  This module emulates both collection modes over the message
fabric so their control-traffic cost — which the paper waves off as
minor — can be measured against the data traffic the resulting schemes
save:

* **full collection** — every site ships its complete ``(r_i*, w_i*)``
  row (``2N`` counters) to the monitor;
* **incremental collection** — sites ship only the counters of objects
  whose local totals drifted beyond a threshold since the last report
  (delta encoding), which is what makes minutes-scale collection cheap.

Message sizes are measured in *counter units* and are kept separate from
the object-transfer NTC; :func:`collection_report` compares the two
modes over a drifting day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.distributed.messages import MessageKind, MessageLog
from repro.distributed.node import elect_lowest_alive
from repro.distributed.retry import DEFAULT_RETRY_POLICY, RAISE, RetryPolicy
from repro.errors import ProtocolError, RetryExhaustedError, ValidationError
from repro.sim.faults import FaultPlan, ProtocolFaults
from repro.utils.telemetry import current_sink
from repro.utils.tracing import current_tracer


@dataclass
class CollectionRound:
    """One statistics-collection round at the monitor."""

    round_index: int
    mode: str  # "full" or "incremental"
    messages: int
    counters_shipped: int
    objects_reported: int
    monitor_view_exact: bool  # does the monitor now see the true totals?
    # Degraded-mode bookkeeping; empty/zero on a fault-free round.
    missing_sites: List[int] = field(default_factory=list)
    retransmissions: int = 0
    monitor_site: int = 0


class MonitorProtocol:
    """Emulated statistics collection from every site to a monitor.

    The monitor keeps, per site, the last reported ``(reads, writes)``
    rows; incremental rounds ship only rows' entries whose value changed
    by more than ``threshold`` *relative* to the last report (absolute
    change for counters previously zero).  ``fault_plan`` times are
    round numbers; the default empty plan injects nothing.
    """

    def __init__(
        self,
        instance: DRPInstance,
        monitor_site: int = 0,
        threshold: float = 0.0,
        fault_plan: FaultPlan = FaultPlan(),
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if not 0 <= monitor_site < instance.num_sites:
            raise ValidationError(
                f"monitor_site {monitor_site} out of range "
                f"[0, {instance.num_sites})"
            )
        if threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {threshold}")
        self.instance = instance
        self.monitor_site = monitor_site
        self.threshold = threshold
        self.retry = retry
        self.log = MessageLog(instance.cost)
        m, n = instance.num_sites, instance.num_objects
        # the monitor's last-known view per site
        self._known_reads = np.zeros((m, n))
        self._known_writes = np.zeros((m, n))
        self._rounds = 0
        self._faults = ProtocolFaults(fault_plan, m)
        self.retransmissions = 0
        self.elections = 0

    # ------------------------------------------------------------------ #
    def _changed_mask(
        self, known: np.ndarray, observed: np.ndarray
    ) -> np.ndarray:
        if self.threshold == 0.0:
            return observed != known
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.abs(observed - known) / np.where(
                known == 0.0, 1.0, known
            )
        return relative > self.threshold

    def collect(
        self,
        observed_reads: np.ndarray,
        observed_writes: np.ndarray,
        mode: str = "full",
    ) -> CollectionRound:
        """Run one collection round against the observed counters.

        Under the fault plan (its times read as round numbers): crashed
        sites send nothing and are listed in the round's
        ``missing_sites``; lossy sends are retried (each retransmission
        re-ships its counters); a crashed monitor is deterministically
        replaced by the lowest-numbered alive site, whose view starts
        empty.  Reported rows commit to the monitor's view only on
        *delivery*, never on send.
        """
        if mode not in ("full", "incremental"):
            raise ValidationError(
                f"mode must be full or incremental, got {mode!r}"
            )
        m, n = self.instance.num_sites, self.instance.num_objects
        observed_reads = np.asarray(observed_reads, dtype=float)
        observed_writes = np.asarray(observed_writes, dtype=float)
        if observed_reads.shape != (m, n) or observed_writes.shape != (m, n):
            raise ValidationError(
                f"observed counters must have shape {(m, n)}"
            )

        faults = self._faults
        round_index = self._rounds
        missing: List[int] = []
        retransmissions = 0
        messages = 0
        counters = 0
        objects_reported: set = set()
        with current_tracer().span(
            "monitor.round", round=round_index, mode=mode
        ) as round_span:
            faults.advance_to(float(round_index))
            if self.monitor_site in faults.crashed:
                self._elect_monitor(round_index)

            for site in range(m):
                if mode == "full":
                    shipped = 2 * n
                    reported = set(range(n))
                    read_mask = None  # sentinel: commit the whole row
                    write_mask = None
                else:
                    read_mask = self._changed_mask(
                        self._known_reads[site], observed_reads[site]
                    )
                    write_mask = self._changed_mask(
                        self._known_writes[site], observed_writes[site]
                    )
                    shipped = int(read_mask.sum() + write_mask.sum())
                    reported = set(
                        int(k) for k in np.nonzero(read_mask | write_mask)[0]
                    )
                if site == self.monitor_site:
                    # the monitor's own stats are local (always delivered)
                    self._commit(
                        site, observed_reads, observed_writes,
                        read_mask, write_mask,
                    )
                    continue
                if site in faults.crashed:
                    missing.append(site)  # a down site reports nothing
                    continue
                if shipped == 0 and mode == "incremental":
                    continue  # nothing drifted: no message at all
                delivered, attempts = self._deliver(site, shipped)
                messages += attempts
                counters += shipped * attempts  # retransmissions re-ship
                retransmissions += attempts - 1
                if delivered:
                    objects_reported |= reported
                    self._commit(
                        site, observed_reads, observed_writes,
                        read_mask, write_mask,
                    )
                else:
                    missing.append(site)
            round_span.set(
                messages=messages,
                retransmissions=retransmissions,
                missing=len(missing),
            )
        self._rounds += 1
        self.retransmissions += retransmissions
        exact = (mode == "full" and not missing) or (
            self.threshold == 0.0
            and bool(
                np.array_equal(self._known_reads, observed_reads)
                and np.array_equal(self._known_writes, observed_writes)
            )
        )
        sink = current_sink()
        if sink.enabled:
            sink.set_gauge("repro_monitor_rounds", self._rounds)
            sink.set_gauge(
                "repro_monitor_retransmissions", self.retransmissions
            )
            sink.set_gauge(
                "repro_monitor_messages", messages, mode=mode
            )
            sink.set_gauge(
                "repro_monitor_counters_shipped", counters, mode=mode
            )
            sink.set_gauge("repro_monitor_missing_sites", len(missing))
            sink.set_gauge("repro_monitor_elections", self.elections)
        return CollectionRound(
            round_index=round_index,
            mode=mode,
            messages=messages,
            counters_shipped=counters,
            objects_reported=len(objects_reported),
            monitor_view_exact=exact,
            missing_sites=missing,
            retransmissions=retransmissions,
            monitor_site=self.monitor_site,
        )

    # ------------------------------------------------------------------ #
    def _commit(
        self,
        site: int,
        observed_reads: np.ndarray,
        observed_writes: np.ndarray,
        read_mask: Optional[np.ndarray],
        write_mask: Optional[np.ndarray],
    ) -> None:
        """Fold a *delivered* report into the monitor's view."""
        if read_mask is None:
            self._known_reads[site] = observed_reads[site]
            self._known_writes[site] = observed_writes[site]
        else:
            self._known_reads[site, read_mask] = observed_reads[
                site, read_mask
            ]
            self._known_writes[site, write_mask] = observed_writes[
                site, write_mask
            ]

    def _deliver(self, site: int, shipped: int) -> Tuple[bool, int]:
        """Send one report with retries; returns (delivered, attempts)."""
        attempts = 0
        for _ in self.retry.attempt_delays():
            attempts += 1
            # Judged before the log call (same RNG stream, same draw
            # order) so the trace can mark the send as lost.
            lost, _dup, _delay = self._faults.messages.judge()
            # duplicated reports are idempotent re-deliveries: ignored
            delivered = (
                not lost and self.monitor_site not in self._faults.crashed
            )
            self.log.send(
                site,
                self.monitor_site,
                MessageKind.STATS,
                float(shipped),
                lost=not delivered,
            )
            if delivered:
                return True, attempts
        if self.retry.on_exhaust == RAISE:
            raise RetryExhaustedError("STATS", self.monitor_site, attempts)
        return False, attempts

    def _elect_monitor(self, round_index: int) -> None:
        """Replace a crashed monitor with the lowest-numbered alive site.

        The new monitor has none of its predecessor's history, so the
        last-known view resets to zero — incremental rounds right after
        an election ship full rows again, exactly as a real take-over
        would force.
        """
        new_monitor = elect_lowest_alive(
            self.log, self.instance.num_sites, self._faults.crashed
        )
        if new_monitor is None:
            raise ProtocolError("every site is down; cannot elect a monitor")
        self.elections += 1
        current_tracer().event(
            "protocol.monitor_election",
            new_monitor=new_monitor,
            round=round_index,
            previous=self.monitor_site,
        )
        self.monitor_site = new_monitor
        self._known_reads[:] = 0.0
        self._known_writes[:] = 0.0

    def monitor_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """The monitor's current belief about the global patterns."""
        return self._known_reads.copy(), self._known_writes.copy()


def collection_report(
    epochs: Sequence[DRPInstance],
    monitor_site: int = 0,
    threshold: float = 0.1,
) -> Dict[str, object]:
    """Compare full vs incremental collection over a drifting day.

    Runs both modes over the same epoch sequence and reports total
    messages and counter units shipped by each — quantifying the paper's
    implicit claim that minutes-scale statistics collection is feasible.
    """
    if not epochs:
        raise ValidationError("need at least one epoch")
    base = epochs[0]
    full = MonitorProtocol(base, monitor_site, threshold=0.0)
    incremental = MonitorProtocol(base, monitor_site, threshold=threshold)
    full_rounds: List[CollectionRound] = []
    inc_rounds: List[CollectionRound] = []
    for epoch in epochs:
        full_rounds.append(
            full.collect(epoch.reads, epoch.writes, mode="full")
        )
        inc_rounds.append(
            incremental.collect(epoch.reads, epoch.writes, mode="incremental")
        )
    full_counters = sum(r.counters_shipped for r in full_rounds)
    inc_counters = sum(r.counters_shipped for r in inc_rounds)
    return {
        "epochs": len(epochs),
        "full_messages": sum(r.messages for r in full_rounds),
        "full_counters": full_counters,
        "incremental_messages": sum(r.messages for r in inc_rounds),
        "incremental_counters": inc_counters,
        "savings_factor": (
            full_counters / inc_counters if inc_counters else float("inf")
        ),
    }


__all__ = ["CollectionRound", "MonitorProtocol", "collection_report"]
