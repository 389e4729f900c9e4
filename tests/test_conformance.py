"""The conformance harness: corpus, invariants, oracle, shrinker.

The capstone test injects the exact bug class the harness exists to
catch — an off-by-one in the SparseCostModel tile slicing — and checks
the full pipeline: the differential oracle flags it, the shrinker
minimises it to a <= 4-site, <= 4-object instance, and the JSON artifact
round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance import (
    ConformanceContext,
    Scenario,
    all_invariants,
    default_corpus,
    get_invariant,
    load_artifact,
    run_corpus,
    run_instance,
    run_invariants,
    run_scenario,
    scheme_digest,
    seeded_corpus,
    shrink_instance,
    write_artifact,
)
from repro.conformance import invariants as invariants_module
from repro.conformance.oracle import PathResult, compare_paths
from repro.conformance.shrink import drop_object, drop_site
from repro.core import CostModel, SparseCostModel
from repro.errors import ValidationError
from repro.workload import SparseProblem
from repro.workload.sparse import SparseCounts


@pytest.fixture()
def tiling_bug(monkeypatch):
    """Classic blocked-kernel off-by-one: non-first tiles slice [start-1,
    stop-1) — silently mispricing every object past the first tile."""
    original = SparseCounts.dense_block

    def buggy(self, start, stop):
        if start > 0:
            return original(self, start - 1, stop - 1)
        return original(self, start, stop)

    monkeypatch.setattr(SparseCounts, "dense_block", buggy)


# --------------------------------------------------------------------- #
# corpus
# --------------------------------------------------------------------- #
class TestCorpus:
    def test_build_is_deterministic(self):
        for scenario in default_corpus():
            assert scenario.build() == scenario.build()

    def test_round_trips_through_json_dict(self):
        for scenario in default_corpus():
            clone = Scenario.from_dict(scenario.to_dict())
            assert clone == scenario
            assert clone.build() == scenario.build()

    def test_default_corpus_spans_the_axes(self):
        corpus = default_corpus()
        names = [sc.name for sc in corpus]
        assert len(names) == len(set(names))
        topologies = {sc.topology for sc in corpus}
        assert topologies == {"paper", "tree", "ring", "star", "waxman"}
        assert any(sc.update_ratio == 0.0 for sc in corpus)
        assert any(sc.fault_plan is not None for sc in corpus)
        # Tile-boundary coverage for the oracle's width-2 sparse path.
        object_counts = {sc.num_objects for sc in corpus}
        assert {3, 4} <= object_counts

    def test_seeded_corpus_is_deterministic_and_sized(self):
        a = seeded_corpus(99, 8)
        b = seeded_corpus(99, 8)
        assert a == b
        assert len(a) == 8
        assert seeded_corpus(100, 8) != a

    def test_validation(self):
        with pytest.raises(ValidationError):
            Scenario("bad", seed=1, num_sites=2, num_objects=3)
        with pytest.raises(ValidationError):
            Scenario("bad", seed=1, num_sites=5, num_objects=0)
        with pytest.raises(ValidationError):
            Scenario(
                "bad", seed=1, num_sites=5, num_objects=3,
                topology="torus",
            )
        with pytest.raises(ValidationError):
            seeded_corpus(1, -1)


# --------------------------------------------------------------------- #
# invariant registry
# --------------------------------------------------------------------- #
class TestInvariantRegistry:
    def test_catalogue_contents(self):
        names = [inv.name for inv in all_invariants()]
        assert names == [
            "scheme-feasibility",
            "optimal-lower-bound",
            "sra-benefit-ordering",
            "eq5-eq6-consistency",
            "adaptive-static-no-worsening",
            "distributed-sra-equivalence",
            "ledger-scheme-consistency",
            "fault-replay-determinism",
        ]

    def test_unknown_invariant_raises(self):
        with pytest.raises(ValidationError, match="unknown invariant"):
            get_invariant("no-such-property")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValidationError, match="already registered"):
            invariants_module.invariant(
                "scheme-feasibility", "duplicate"
            )(lambda ctx: [])

    def test_raising_check_becomes_violation(self, tiny_instance):
        name = "raises-for-test"

        @invariants_module.invariant(name, "always raises")
        def _boom(ctx):
            raise RuntimeError("kaboom")

        try:
            ctx = ConformanceContext(tiny_instance)
            violations = run_invariants(ctx, names=[name])
            assert len(violations) == 1
            assert violations[0].invariant == name
            assert "kaboom" in violations[0].message
        finally:
            del invariants_module._REGISTRY[name]

    def test_applies_gates_expensive_checks(self, tiny_instance):
        inv = get_invariant("optimal-lower-bound")
        ctx = ConformanceContext(tiny_instance)
        assert inv.applies(ctx)
        big = Scenario(
            "big", seed=3, num_sites=12, num_objects=24
        ).build()
        assert not inv.applies(ConformanceContext(big))

    def test_fault_invariant_needs_a_plan(self, tiny_instance):
        inv = get_invariant("fault-replay-determinism")
        assert not inv.applies(ConformanceContext(tiny_instance))

    def test_context_rejects_sparse_problems(self, tiny_instance):
        with pytest.raises(ValidationError):
            ConformanceContext(SparseProblem.from_instance(tiny_instance))


# --------------------------------------------------------------------- #
# differential oracle
# --------------------------------------------------------------------- #
@pytest.mark.conformance
class TestOracle:
    def test_default_corpus_conforms(self):
        corpus = run_corpus(default_corpus())
        failing = {
            r.name: r.all_failures() for r in corpus.failing
        }
        assert corpus.passed, failing
        assert len(corpus.reports) == len(default_corpus())
        for report in corpus.reports:
            paths = {p.path for p in report.paths}
            assert paths == {
                "dense-cached",
                "dense-uncached",
                "sparse-tiled",
                "incremental-replay",
                "reference-loop",
                "sparse-sra-solve",
            }

    def test_float_cost_matrices_stay_bit_identical(self):
        # Regression for the stride-class divergence the oracle caught:
        # Waxman (Euclidean, non-integer) costs exposed a 1-ulp gap
        # between the dense and tile-backed read-term dots.
        scenario = [
            sc for sc in default_corpus() if sc.topology == "waxman"
        ][0]
        instance = scenario.build()
        assert not np.allclose(
            instance.cost, np.round(instance.cost)
        ), "scenario no longer exercises non-integer costs"
        ctx = ConformanceContext(instance)
        dense = CostModel(instance)
        sparse = SparseCostModel(
            SparseProblem.from_instance(instance), tile=2
        )
        mat = ctx.scheme.matrix
        for k in range(instance.num_objects):
            assert sparse.object_cost(k, mat[:, k]) == dense.object_cost(
                k, mat[:, k]
            )

    def test_report_digests_and_dict_shape(self):
        report = run_scenario(default_corpus()[0])
        digests = {p.digest for p in report.paths if p.digest}
        assert len(digests) == 1  # every scheme-carrying path agrees
        data = report.to_dict()
        assert data["passed"] is True
        assert data["scenario"]["name"] == report.name

    def test_invariant_subset_runs_only_that_invariant(self, tiny_instance):
        report = run_instance(
            tiny_instance, invariant_names=["scheme-feasibility"]
        )
        assert report.passed


class TestComparePaths:
    def test_exact_mismatch_is_flagged(self):
        results = [
            PathResult("a", 100.0, digest="x"),
            PathResult("b", 100.0 + 1e-12, digest="x"),
        ]
        failures = compare_paths(results)
        assert len(failures) == 1 and "path b" in failures[0]

    def test_digest_mismatch_is_flagged_even_with_equal_cost(self):
        failures = compare_paths(
            [PathResult("a", 1.0, digest="x"),
             PathResult("b", 1.0, digest="y")]
        )
        assert failures and "digest" in failures[0]

    def test_inexact_path_gets_tolerance(self):
        failures = compare_paths(
            [PathResult("a", 1e6),
             PathResult("ref", 1e6 + 1e-4, exact=False)]
        )
        assert failures == []

    def test_scheme_digest_is_shape_sensitive(self):
        flat = np.zeros((2, 3), dtype=bool)
        assert scheme_digest(flat) != scheme_digest(flat.reshape(3, 2))
        assert scheme_digest(flat) == scheme_digest(flat.copy())


# --------------------------------------------------------------------- #
# shrinker + the injected-bug acceptance pipeline
# --------------------------------------------------------------------- #
class TestShrinkSurgery:
    def test_drop_site_remaps_primaries(self, small_instance):
        victim = 0
        shrunk = drop_site(small_instance, victim)
        assert shrunk is not None
        assert shrunk.num_sites == small_instance.num_sites - 1
        kept = np.nonzero(small_instance.primaries != victim)[0]
        assert shrunk.num_objects == kept.size
        # Every surviving primary points at the same physical site.
        for new_k, old_k in enumerate(kept):
            old_primary = int(small_instance.primaries[old_k])
            new_primary = int(shrunk.primaries[new_k])
            assert (
                new_primary == old_primary - 1
                if old_primary > victim
                else new_primary == old_primary
            )

    def test_drop_object_keeps_counts_aligned(self, small_instance):
        shrunk = drop_object(small_instance, 2)
        assert shrunk is not None
        keep = [k for k in range(small_instance.num_objects) if k != 2]
        assert np.array_equal(
            shrunk.reads, small_instance.reads[:, keep]
        )
        assert np.array_equal(
            shrunk.sizes, small_instance.sizes[keep]
        )

    def test_floor_guards(self, manual_instance):
        two_site = drop_site(manual_instance, 2)
        assert two_site is not None and two_site.num_sites == 2
        assert drop_site(two_site, 0) is None
        one_obj = drop_object(manual_instance, 0)
        assert one_obj is not None and one_obj.num_objects == 1
        assert drop_object(one_obj, 0) is None

    def test_shrinking_a_passing_instance_refuses(self, tiny_instance):
        with pytest.raises(ValidationError, match="nothing to shrink"):
            shrink_instance(tiny_instance, predicate=lambda inst: [])


@pytest.mark.conformance
class TestInjectedTilingBug:
    """Acceptance criterion: the oracle catches a deliberate off-by-one
    in SparseCostModel tiling and the shrinker reduces it to <= 4 x 4."""

    def test_oracle_catches_the_bug(self, tiling_bug):
        scenario = [
            sc for sc in default_corpus()
            if sc.name == "two-tile-boundary"
        ][0]
        report = run_scenario(scenario)
        assert not report.passed
        assert any("sparse-tiled" in msg for msg in report.failures)

    def test_single_tile_scenarios_are_genuinely_unaffected(
        self, tiling_bug
    ):
        # 3 objects fit one (merged) tile: start is always 0, the buggy
        # branch never runs, and the oracle must not cry wolf.
        scenario = [
            sc for sc in default_corpus() if sc.name == "single-tile"
        ][0]
        assert run_scenario(scenario).passed

    def test_shrinks_to_at_most_4x4_and_round_trips(
        self, tiling_bug, tmp_path
    ):
        scenario = [
            sc for sc in default_corpus() if sc.name == "larger-mixed"
        ][0]
        instance = scenario.build()
        result = shrink_instance(instance, scenario=scenario)
        assert result.num_sites <= 4
        assert result.num_objects <= 4
        # The bug needs two tiles, and with oracle tile width 2 plus the
        # trailing width-1 merge, that takes exactly 4 objects.
        assert result.num_objects == 4
        assert result.failures
        assert result.original_sites == 12

        path = tmp_path / "repro.json"
        write_artifact(result, str(path))
        data = load_artifact(str(path))
        assert data["instance"] == result.instance
        assert data["scenario"].name == scenario.name
        assert data["shrunk"] == {
            "num_sites": result.num_sites,
            "num_objects": result.num_objects,
        }
        # While the bug is live, replaying the artifact still fails ...
        assert not run_instance(data["instance"]).passed

    def test_artifact_passes_once_bug_is_fixed(self, tmp_path):
        # ... and on a healthy build (no monkeypatch here) the shrunken
        # instance conforms, which is how a fix is confirmed.
        with pytest.MonkeyPatch.context() as mp:
            original = SparseCounts.dense_block

            def buggy(self, start, stop):
                if start > 0:
                    return original(self, start - 1, stop - 1)
                return original(self, start, stop)

            mp.setattr(SparseCounts, "dense_block", buggy)
            scenario = [
                sc for sc in default_corpus()
                if sc.name == "two-tile-boundary"
            ][0]
            result = shrink_instance(scenario.build(), scenario=scenario)
            path = tmp_path / "repro.json"
            write_artifact(result, str(path))
        data = load_artifact(str(path))
        assert run_instance(data["instance"]).passed

    def test_missing_artifact_error_is_actionable(self, tmp_path):
        with pytest.raises(ValidationError, match="repro conform shrink"):
            load_artifact(str(tmp_path / "absent.json"))


class TestInjectedEq5Bug:
    """`eq5-eq6-consistency` prices every unheld cell of the Eq. 5 matrix
    against the scalar `replication_benefit`, so one mispriced cell of
    `benefit_matrix` is a violation."""

    def test_one_perturbed_matrix_cell_is_reported(
        self, tiny_instance, monkeypatch
    ):
        original = invariants_module.benefit_matrix

        def off_by_one_cell(instance, scheme, update_fraction=1.0):
            out = original(instance, scheme, update_fraction=update_fraction)
            site, obj = np.argwhere(~np.isnan(out))[-1]
            out[site, obj] = np.nextafter(out[site, obj], np.inf)
            return out

        monkeypatch.setattr(
            invariants_module, "benefit_matrix", off_by_one_cell
        )
        violations = run_invariants(
            ConformanceContext(tiny_instance), names=["eq5-eq6-consistency"]
        )
        assert len(violations) == 1
        assert "Eq. 5 scalar/matrix mismatch" in violations[0].message
