"""The array greedy step of a DSRA site equals the scalar loop.

``SiteNode.greedy_step`` prices every candidate with one ``eq5_benefit``
call over arrays, prunes with masks and picks with ``argmax``.  The
reference below is the per-candidate loop it replaced, kept here: walk
the candidates in ascending order, prune those with a non-positive
benefit or that no longer fit, and keep the first strictly larger
benefit.  After every step (and every ``REPLICATE`` observation in
between) the picked object, the candidate list, the remaining capacity,
the replicas and the ``SN`` fields must be equal.

Costs, sizes and counts are small integers, so equal maxima, benefits of
exactly ``0.0`` and objects that do not fit come up often.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import eq5_benefit
from repro.core.problem import DRPInstance
from repro.core.scheme import CAPACITY_TOLERANCE
from repro.distributed.node import SiteNode
from repro.errors import ProtocolError

#: an operation on one site: ("step",) or ("observe", obj, replicator)
Op = Tuple


@dataclass
class ReferenceSite:
    """The scalar state a site kept before the array step."""

    site: int
    instance: DRPInstance
    write_totals: np.ndarray
    remaining: float
    nearest: np.ndarray
    candidates: Set[int]
    replicas: Set[int] = field(default_factory=set)

    @classmethod
    def start(cls, instance: DRPInstance, site: int) -> "ReferenceSite":
        ref = cls(
            site=site,
            instance=instance,
            write_totals=instance.writes.sum(axis=0).astype(float),
            remaining=float(instance.capacities[site]),
            nearest=instance.primaries.astype(np.int64).copy(),
            candidates=set(range(instance.num_objects)),
        )
        for obj in np.flatnonzero(instance.primaries == site).tolist():
            ref.replicas.add(obj)
            ref.candidates.discard(obj)
            ref.remaining -= float(instance.sizes[obj])
        return ref

    def benefit(self, obj: int) -> float:
        inst, site = self.instance, self.site
        other_writes = float(self.write_totals[obj]) - float(
            inst.writes[site, obj]
        )
        return float(
            eq5_benefit(
                float(inst.reads[site, obj]),
                float(inst.cost[site, self.nearest[obj]]),
                other_writes,
                float(inst.cost[site, inst.primaries[obj]]),
            )
        )

    def greedy_step(self) -> Optional[int]:
        best_obj: Optional[int] = None
        best_benefit = 0.0
        dead: List[int] = []
        for obj in sorted(self.candidates):
            fits = (
                float(self.instance.sizes[obj])
                <= self.remaining + CAPACITY_TOLERANCE
            )
            value = self.benefit(obj)
            if value <= 0.0 or not fits:
                dead.append(obj)
                continue
            if value > best_benefit:
                best_benefit = value
                best_obj = obj
        for obj in dead:
            self.candidates.discard(obj)
        if best_obj is None:
            return None
        self.replicas.add(best_obj)
        self.candidates.discard(best_obj)
        self.remaining -= float(self.instance.sizes[best_obj])
        self.nearest[best_obj] = self.site
        return best_obj

    def observe_replication(self, obj: int, replicator: int) -> None:
        cost = self.instance.cost[self.site]
        if cost[replicator] < cost[self.nearest[obj]]:
            self.nearest[obj] = replicator


def _start_node(instance: DRPInstance, site: int) -> SiteNode:
    node = SiteNode(site, instance)
    for obj in np.flatnonzero(instance.primaries == site).tolist():
        node.host_primary(obj)
    node.receive_stats(instance.writes.sum(axis=0).astype(float))
    return node


def _assert_same(node: SiteNode, ref: ReferenceSite) -> None:
    assert node.candidates == ref.candidates
    assert node.remaining == ref.remaining
    assert node.replicas == ref.replicas
    assert np.array_equal(node.nearest, ref.nearest)
    assert node.exhausted == (not ref.candidates)


def run_against_reference(
    instance: DRPInstance, site: int, ops: List[Op]
) -> List[Optional[int]]:
    """Apply ``ops`` to a node and to the reference; returns the picks."""
    node = _start_node(instance, site)
    ref = ReferenceSite.start(instance, site)
    _assert_same(node, ref)
    picks = []
    for op in ops:
        if op[0] == "step":
            picked = node.greedy_step()
            assert picked == ref.greedy_step()
            picks.append(picked)
        else:
            _kind, obj, replicator = op
            node.observe_replication(obj, replicator)
            ref.observe_replication(obj, replicator)
        _assert_same(node, ref)
    return picks


def _instance(positions, sizes, extra, reads, writes, primaries) -> DRPInstance:
    """Sites on a line (an integer metric); capacity = primaries + extra."""
    pos = np.asarray(positions, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    primaries = np.asarray(primaries, dtype=np.int64)
    load = np.zeros(len(pos))
    np.add.at(load, primaries, sizes)
    return DRPInstance(
        cost=np.abs(pos[:, None] - pos[None, :]),
        sizes=sizes,
        capacities=load + np.asarray(extra, dtype=float),
        reads=np.asarray(reads, dtype=float),
        writes=np.asarray(writes, dtype=float),
        primaries=primaries,
    )


@st.composite
def scenarios(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    ints = lambda lo, hi, size: draw(  # noqa: E731
        st.lists(st.integers(lo, hi), min_size=size, max_size=size)
    )
    instance = _instance(
        positions=ints(0, 3, m),
        sizes=ints(1, 3, n),
        extra=ints(0, 6, m),
        reads=[ints(0, 3, n) for _ in range(m)],
        writes=[ints(0, 2, n) for _ in range(m)],
        primaries=ints(0, m - 1, n),
    )
    site = draw(st.integers(0, m - 1))
    op = st.one_of(
        st.just(("step",)),
        st.tuples(
            st.just("observe"), st.integers(0, n - 1), st.integers(0, m - 1)
        ),
    )
    ops = draw(st.lists(op, min_size=1, max_size=3 * n + 3))
    return instance, site, ops


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_greedy_step_equals_the_scalar_loop(scenario):
    instance, site, ops = scenario
    run_against_reference(instance, site, ops)


# --------------------------------------------------------------------- #
# the named edge cases, each pinned once
# --------------------------------------------------------------------- #
def test_equal_maxima_pick_the_lowest_object():
    # objects 1 and 2 are twins at site 0 with the same positive benefit
    instance = _instance(
        positions=[0, 2], sizes=[1, 1, 1], extra=[5, 0],
        reads=[[0, 4, 4], [0, 0, 0]], writes=[[0, 0, 0], [0, 0, 0]],
        primaries=[1, 1, 1],
    )
    picks = run_against_reference(instance, 0, [("step",)] * 3)
    assert picks == [1, 2, None]


def test_zero_benefit_is_pruned_not_picked():
    # 3 reads against 3 other writes, both over the distance 2 to the
    # primary: exactly 0.0
    instance = _instance(
        positions=[0, 2, 1], sizes=[1], extra=[5, 0, 0],
        reads=[[3], [0], [0]], writes=[[0], [1], [2]],
        primaries=[1],
    )
    node = _start_node(instance, 0)
    assert node.benefit(0) == 0.0
    assert run_against_reference(instance, 0, [("step",)]) == [None]


def test_object_that_does_not_fit_is_pruned():
    instance = _instance(
        positions=[0, 2], sizes=[3, 1], extra=[2, 0],
        reads=[[9, 1], [0, 0]], writes=[[0, 0], [0, 0]],
        primaries=[1, 1],
    )
    # object 0 has the larger benefit but needs 3 units of the 2 left
    picks = run_against_reference(instance, 0, [("step",), ("step",)])
    assert picks == [1, None]


def test_empty_candidate_set_steps_to_none():
    # every object is primary at site 0, so L_0 starts empty
    instance = _instance(
        positions=[0, 1], sizes=[1, 2], extra=[0, 0],
        reads=[[3, 3], [3, 3]], writes=[[0, 0], [0, 0]],
        primaries=[0, 0],
    )
    picks = run_against_reference(instance, 0, [("step",), ("step",)])
    assert picks == [None, None]


def test_step_without_statistics_is_a_protocol_error():
    instance = _instance(
        positions=[0, 1], sizes=[1], extra=[1, 0],
        reads=[[1], [0]], writes=[[0], [0]], primaries=[1],
    )
    with pytest.raises(ProtocolError):
        SiteNode(0, instance).greedy_step()
