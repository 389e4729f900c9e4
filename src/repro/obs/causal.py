"""Happens-before DAG over an exported trace, and round attribution.

The distributed protocol emulations stamp every message with a
:class:`~repro.distributed.messages.TraceContext` and emit paired
``msg.send`` / ``msg.recv`` point events (see ``distributed/messages``;
the event names are mirrored here as literals because ``obs`` sits
*below* ``distributed`` in the layer map).  This module reconstructs the
causal structure of a run from those records alone:

* :func:`build_dag` — a happens-before DAG whose node identities are
  **structural** (enclosing span path, event name, attributes, and an
  occurrence index) rather than record ids, so the same run yields the
  same DAG whether its trace was recorded serially or merged from
  worker snapshots with remapped ids;
* :meth:`CausalDag.validate` — acyclicity plus the matching-send check
  for every receive;
* :func:`dsra_rounds` / :func:`monitor_rounds` — per-round latency
  attribution for the DSRA token protocol and the monitor commit rounds
  (greedy compute vs simulated retry/backoff vs the messaging
  remainder);
* :func:`causal_sections` — the ``repro trace --causal`` report body.

Happens-before edges, all derivable from structural data:

``msg``
    the k-th ``msg.send`` of a flow key happens before the k-th
    ``msg.recv`` of the same key (message delivery);
``site``
    consecutive events at one site ordered by its Lamport clock
    (local program order; a clock that fails to increase starts a new
    protocol run's chain rather than an edge);
``scope``
    consecutive events under the same enclosing span (the recording
    process's program order — this is what orders fault-injection
    events inside one chaos-replay task).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.utils.tables import format_table
from repro.utils.tracing import read_trace

#: mirrors of the emit-side constants in ``repro.distributed.messages``
SEND_EVENT = "msg.send"
RECV_EVENT = "msg.recv"

#: span names carrying per-round protocol attribution
DSRA_ROUND_SPAN = "dsra.round"
DSRA_GREEDY_SPAN = "dsra.greedy"
DSRA_STATS_SPAN = "dsra.stats"
MONITOR_ROUND_SPAN = "monitor.round"

Record = Dict[str, object]
#: a structural node key: (label, occurrence); label is a nested tuple
NodeKey = Tuple[object, int]


@dataclass
class DagNode:
    """One event in the happens-before DAG."""

    key: NodeKey
    name: str
    attrs: Dict[str, object]
    time: float
    index: int  # position in the node list

    @property
    def site(self) -> Optional[int]:
        """The site this event is local to (dst for receives)."""
        attrs = self.attrs
        if self.name == RECV_EVENT:
            return int(attrs["dst"])  # the receive happens at dst
        if self.name == SEND_EVENT:
            return int(attrs["src"])
        value = attrs.get("site")
        return int(value) if isinstance(value, int) else None


@dataclass
class CausalDag:
    """Happens-before DAG: nodes, labelled edges, validation helpers."""

    nodes: List[DagNode] = field(default_factory=list)
    #: (from_index, to_index, label) with label in {"msg", "site", "scope"}
    edges: List[Tuple[int, int, str]] = field(default_factory=list)
    #: receives whose flow key never saw a send (validation fodder)
    unmatched_receives: List[NodeKey] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def topological_order(self) -> Optional[List[int]]:
        """Kahn topological order, or ``None`` if the graph has a cycle."""
        n = len(self.nodes)
        indegree = [0] * n
        out: List[List[int]] = [[] for _ in range(n)]
        for src, dst, _label in self.edges:
            out[src].append(dst)
            indegree[dst] += 1
        frontier = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for nxt in out[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    frontier.append(nxt)
        return order if len(order) == n else None

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def validate(self) -> List[str]:
        """Violation messages; empty means a well-formed causal history."""
        problems: List[str] = []
        if not self.is_acyclic():
            problems.append("happens-before graph contains a cycle")
        for key in self.unmatched_receives:
            problems.append(f"receive without a matching send: {key!r}")
        return problems

    def canonical(self) -> Dict[str, List[str]]:
        """An id-free, order-free serialisation for equality checks.

        Two traces of the same run — serial, or merged from workers with
        remapped span ids — produce equal canonical forms.
        """
        def _key(key: NodeKey) -> str:
            return json.dumps(key, sort_keys=True, default=str)

        nodes = sorted(_key(node.key) for node in self.nodes)
        edges = sorted(
            json.dumps(
                [_key(self.nodes[a].key), _key(self.nodes[b].key), label],
                sort_keys=True,
                default=str,
            )
            for a, b, label in self.edges
        )
        return {"nodes": nodes, "edges": edges}

    # ------------------------------------------------------------------ #
    def critical_path(self) -> List[DagNode]:
        """The longest happens-before chain, preferring message hops.

        Paths are ranked by message-edge count first and elapsed event
        time second, so the result follows the token around the network
        rather than idling inside one site's program order.
        """
        order = self.topological_order()
        if order is None or not self.nodes:
            return []
        # longest-path DP over the reverse topological order
        best: Dict[int, Tuple[int, float, Optional[int]]] = {}
        out: Dict[int, List[Tuple[int, str]]] = {}
        for src, dst, label in self.edges:
            out.setdefault(src, []).append((dst, label))
        for node in reversed(order):
            best[node] = (0, 0.0, None)
            for nxt, label in out.get(node, ()):
                hops, elapsed, _ = best[nxt]
                hops = hops + (1 if label == "msg" else 0)
                elapsed = elapsed + max(
                    0.0, self.nodes[nxt].time - self.nodes[node].time
                )
                if (hops, elapsed) > best[node][:2]:
                    best[node] = (hops, elapsed, nxt)
        start = max(best, key=lambda i: best[i][:2])
        path = [start]
        while best[path[-1]][2] is not None:
            path.append(best[path[-1]][2])
        return [self.nodes[i] for i in path]


# --------------------------------------------------------------------- #
# building
# --------------------------------------------------------------------- #
def _records_of(data: Union[str, Dict[str, object], Sequence[Record]]):
    """Accept a trace path, a ``read_trace`` dict, or a record list."""
    if isinstance(data, str):
        data = read_trace(data)
    if isinstance(data, dict):
        return list(data.get("records") or [])
    return list(data)


def _span_paths(records: Iterable[Record]) -> Dict[int, Tuple]:
    """Structural path of every span id: ((name, occurrence), ...).

    The occurrence index counts same-named siblings under one parent in
    record order — the order the spans closed, which the parallel
    harness preserves by merging worker snapshots in task order.  Span
    ids themselves never enter the path, so remapping cannot change it.
    """
    spans = [r for r in records if r.get("type") == "span"]
    by_id = {r["id"]: r for r in spans if isinstance(r.get("id"), int)}
    children: Dict[Optional[int], List[Record]] = {}
    for record in spans:
        parent = record.get("parent")
        if not isinstance(parent, int) or parent not in by_id:
            parent = None  # root, or parent truncated out of the buffer
        children.setdefault(parent, []).append(record)

    paths: Dict[int, Tuple] = {}

    def _assign(parent: Optional[int], prefix: Tuple) -> None:
        seen: Dict[str, int] = {}
        for record in children.get(parent, ()):  # record (= close) order
            name = str(record.get("name", ""))
            occurrence = seen.get(name, 0)
            seen[name] = occurrence + 1
            path = prefix + ((name, occurrence),)
            span_id = record.get("id")
            if isinstance(span_id, int):
                paths[span_id] = path
                _assign(span_id, path)

    _assign(None, ())
    return paths


def build_dag(
    data: Union[str, Dict[str, object], Sequence[Record]],
) -> CausalDag:
    """Build the happens-before DAG from a trace (path, dict or records)."""
    records = _records_of(data)
    span_paths = _span_paths(records)
    dag = CausalDag()

    label_counts: Dict[object, int] = {}
    last_in_scope: Dict[Tuple, int] = {}
    last_at_site: Dict[int, Tuple[int, int]] = {}  # site -> (index, clock)
    pending_sends: Dict[Tuple[Tuple, object], List[int]] = {}
    matched: Dict[Tuple[Tuple, object], int] = {}

    for record in records:
        if record.get("type") != "event":
            continue
        name = str(record.get("name", ""))
        attrs = dict(record.get("attrs") or {})
        parent = record.get("parent")
        scope = span_paths.get(parent, ()) if isinstance(parent, int) else ()
        label = (
            scope,
            name,
            json.dumps(attrs, sort_keys=True, default=str),
        )
        occurrence = label_counts.get(label, 0)
        label_counts[label] = occurrence + 1
        node = DagNode(
            key=(label, occurrence),
            name=name,
            attrs=attrs,
            time=float(record.get("time", 0.0)),
            index=len(dag.nodes),
        )
        dag.nodes.append(node)

        # scope program order: consecutive events under one span
        prev = last_in_scope.get(scope)
        if prev is not None:
            dag.edges.append((prev, node.index, "scope"))
        last_in_scope[scope] = node.index

        if name not in (SEND_EVENT, RECV_EVENT):
            continue

        # site program order, gated on the Lamport clock: a clock that
        # fails to increase means a fresh MessageLog (a new protocol
        # run), which starts a new chain instead of an edge
        site = node.site
        clock = int(attrs.get("clock", 0))
        if site is not None:
            prev_entry = last_at_site.get(site)
            if prev_entry is not None and clock > prev_entry[1]:
                dag.edges.append((prev_entry[0], node.index, "site"))
            last_at_site[site] = (node.index, clock)

        # message delivery: k-th send of a flow key -> k-th recv
        flow = (scope, attrs.get("flow"))
        if name == SEND_EVENT:
            pending_sends.setdefault(flow, []).append(node.index)
        else:
            queue = pending_sends.get(flow)
            count = matched.get(flow, 0)
            if queue and count < len(queue):
                dag.edges.append((queue[count], node.index, "msg"))
                matched[flow] = count + 1
            else:
                dag.unmatched_receives.append(node.key)
    return dag


# --------------------------------------------------------------------- #
# per-round latency attribution
# --------------------------------------------------------------------- #
def _span_records(records: Sequence[Record], name: str) -> List[Record]:
    return [
        r
        for r in records
        if r.get("type") == "span" and r.get("name") == name
    ]


def _duration(record: Record) -> float:
    return float(record.get("end", 0.0)) - float(record.get("start", 0.0))


def dsra_rounds(
    data: Union[str, Dict[str, object], Sequence[Record]],
) -> List[Dict[str, object]]:
    """Per-round latency attribution for the DSRA token protocol.

    For every ``dsra.round`` span: wall seconds split into greedy
    compute (the ``dsra.greedy`` child), simulated retry/backoff seconds
    (the round's ``retries``/``backoff`` attributes, zero on a fault-free
    run), and the messaging / bookkeeping
    remainder; plus the message count emitted inside the round.
    """
    records = _records_of(data)
    rounds = _span_records(records, DSRA_ROUND_SPAN)
    greedy_by_parent: Dict[int, float] = {}
    for record in _span_records(records, DSRA_GREEDY_SPAN):
        parent = record.get("parent")
        if isinstance(parent, int):
            greedy_by_parent[parent] = (
                greedy_by_parent.get(parent, 0.0) + _duration(record)
            )
    sends_by_parent: Dict[int, int] = {}
    for record in records:
        if record.get("type") == "event" and record.get("name") in (
            SEND_EVENT,
            RECV_EVENT,
        ):
            parent = record.get("parent")
            if isinstance(parent, int):
                sends_by_parent[parent] = sends_by_parent.get(parent, 0) + 1
    out: List[Dict[str, object]] = []
    for record in sorted(rounds, key=lambda r: float(r.get("start", 0.0))):
        attrs = dict(record.get("attrs") or {})
        span_id = record.get("id")
        wall = _duration(record)
        compute = greedy_by_parent.get(span_id, 0.0)
        out.append(
            {
                "round": attrs.get("round"),
                "site": attrs.get("site"),
                "wall_seconds": wall,
                "compute_seconds": compute,
                "messaging_seconds": max(0.0, wall - compute),
                "backoff_sim_seconds": float(attrs.get("backoff", 0.0)),
                "retries": int(attrs.get("retries", 0)),
                "messages": sends_by_parent.get(span_id, 0),
            }
        )
    return out


def monitor_rounds(
    data: Union[str, Dict[str, object], Sequence[Record]],
) -> List[Dict[str, object]]:
    """Per-collection attribution for the monitor commit rounds."""
    records = _records_of(data)
    out: List[Dict[str, object]] = []
    for record in sorted(
        _span_records(records, MONITOR_ROUND_SPAN),
        key=lambda r: float(r.get("start", 0.0)),
    ):
        attrs = dict(record.get("attrs") or {})
        out.append(
            {
                "round": attrs.get("round"),
                "mode": attrs.get("mode"),
                "wall_seconds": _duration(record),
                "messages": int(attrs.get("messages", 0)),
                "retransmissions": int(attrs.get("retransmissions", 0)),
                "missing": int(attrs.get("missing", 0)),
            }
        )
    return out


def message_flow(
    data: Union[str, Dict[str, object], Sequence[Record]],
) -> Dict[str, object]:
    """Aggregate message-flow statistics from the ``msg.send`` events."""
    records = _records_of(data)
    total = 0
    lost = 0
    by_kind: Dict[str, int] = {}
    by_pair: Dict[Tuple[int, int], int] = {}
    for record in records:
        if record.get("type") != "event" or record.get("name") != SEND_EVENT:
            continue
        attrs = dict(record.get("attrs") or {})
        total += 1
        if attrs.get("lost"):
            lost += 1
        kind = str(attrs.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        pair = (int(attrs.get("src", -1)), int(attrs.get("dst", -1)))
        by_pair[pair] = by_pair.get(pair, 0) + 1
    return {
        "total": total,
        "lost": lost,
        "by_kind": by_kind,
        "by_pair": by_pair,
    }


# --------------------------------------------------------------------- #
# the `repro trace --causal` report body
# --------------------------------------------------------------------- #
def causal_sections(
    data: Union[str, Dict[str, object], Sequence[Record]],
    top_pairs: int = 8,
) -> str:
    """Critical-path and message-flow sections for ``repro trace``."""
    records = _records_of(data)
    dag = build_dag(records)
    problems = dag.validate()
    lines: List[str] = []
    lines.append(
        f"causality: {len(dag.nodes)} events, {len(dag.edges)} "
        f"happens-before edges, "
        f"{'acyclic' if dag.is_acyclic() else 'CYCLIC'}, "
        f"{len(dag.unmatched_receives)} unmatched receives"
    )
    for problem in problems:
        lines.append(f"  VIOLATION: {problem}")

    flow = message_flow(records)
    if flow["total"]:
        lines.append("")
        rows = [
            [kind, count]
            for kind, count in sorted(flow["by_kind"].items())
        ]
        lines.append(
            format_table(
                ["kind", "sends"],
                rows,
                title=(
                    f"message flow: {flow['total']} sends, "
                    f"{flow['lost']} lost in flight"
                ),
            )
        )
        pair_rows = sorted(
            flow["by_pair"].items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_pairs]
        if pair_rows:
            lines.append("")
            lines.append(
                format_table(
                    ["src -> dst", "messages"],
                    [
                        [f"{src} -> {dst}", count]
                        for (src, dst), count in pair_rows
                    ],
                    title=f"busiest links (top {len(pair_rows)})",
                )
            )

    rounds = dsra_rounds(records)
    if rounds:
        lines.append("")
        lines.append(
            format_table(
                [
                    "round", "site", "wall (s)", "greedy (s)",
                    "messaging (s)", "backoff (sim s)", "retries", "msgs",
                ],
                [
                    [
                        row["round"], row["site"], row["wall_seconds"],
                        row["compute_seconds"], row["messaging_seconds"],
                        row["backoff_sim_seconds"], row["retries"],
                        row["messages"],
                    ]
                    for row in rounds
                ],
                precision=6,
                title="DSRA token rounds (critical-path attribution)",
            )
        )

    monitors = monitor_rounds(records)
    if monitors:
        lines.append("")
        lines.append(
            format_table(
                ["round", "mode", "wall (s)", "msgs", "retx", "missing"],
                [
                    [
                        row["round"], row["mode"], row["wall_seconds"],
                        row["messages"], row["retransmissions"],
                        row["missing"],
                    ]
                    for row in monitors
                ],
                precision=6,
                title="monitor commit rounds",
            )
        )

    path = dag.critical_path()
    hops = [n for n in path if n.name in (SEND_EVENT, RECV_EVENT)]
    if hops:
        lines.append("")
        elapsed = path[-1].time - path[0].time if len(path) > 1 else 0.0
        chain = " -> ".join(
            f"{n.attrs.get('kind', n.name)}@{n.site}"
            for n in hops[:12]
        )
        suffix = " ..." if len(hops) > 12 else ""
        lines.append(
            f"critical path: {len(path)} events, "
            f"{sum(1 for a, b, lab in dag.edges if lab == 'msg')} message "
            f"edges total, longest chain spans {elapsed * 1e3:.3f} ms:"
        )
        lines.append(f"  {chain}{suffix}")
    if flow["total"] == 0 and not rounds and not monitors:
        lines.append(
            "  (no message events — run a distributed protocol with "
            "--trace to populate this section)"
        )
    return "\n".join(lines)


__all__ = [
    "SEND_EVENT",
    "RECV_EVENT",
    "DSRA_ROUND_SPAN",
    "DSRA_GREEDY_SPAN",
    "DSRA_STATS_SPAN",
    "MONITOR_ROUND_SPAN",
    "DagNode",
    "CausalDag",
    "build_dag",
    "dsra_rounds",
    "monitor_rounds",
    "message_flow",
    "causal_sections",
]
