"""Causal observability: happens-before DAGs and the placement ledger.

``repro.obs`` sits directly above :mod:`repro.utils` in the layer map —
it may import utils (and nothing higher), while the algorithm, sim and
distributed layers may import it.  Two members:

* :mod:`repro.obs.causal` — builds a happens-before DAG over an exported
  trace (message send/receive events, Lamport clocks, program order) and
  extracts per-round critical-path / latency attribution for the
  distributed protocols;
* :mod:`repro.obs.ledger` — the append-only :class:`PlacementLedger`
  recording every replica add / drop / deferral with full attribution,
  plus the ``repro explain`` decision-chain renderer.

See ``docs/causality.md``.
"""

from repro.obs.causal import (
    CausalDag,
    build_dag,
    causal_sections,
    dsra_rounds,
    message_flow,
    monitor_rounds,
)
from repro.obs.ledger import (
    PlacementLedger,
    current_ledger,
    explain_entries,
    read_ledger,
    render_explanation,
)

__all__ = [
    "CausalDag",
    "build_dag",
    "causal_sections",
    "dsra_rounds",
    "message_flow",
    "monitor_rounds",
    "PlacementLedger",
    "current_ledger",
    "explain_entries",
    "read_ledger",
    "render_explanation",
]
