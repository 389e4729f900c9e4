"""Blocked sparse cost kernels: bit-identity with the dense path.

The scale path's contract is *exactness*, not approximation: every cost
the sparse/blocked kernels produce must be bit-identical (``==``, not
``approx``) to the dense evaluation on the same problem.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AGRA, GRA, SRA
from repro.core import (
    CostModel,
    DRPInstance,
    IncrementalCostEvaluator,
    ReplicationScheme,
    SparseCostModel,
    cost_model_for,
)
from repro.errors import ValidationError
from repro.workload import SparseProblem, WorkloadSpec, generate_instance


@pytest.fixture(scope="module")
def dense_instance() -> DRPInstance:
    return generate_instance(
        WorkloadSpec(num_sites=9, num_objects=21, update_ratio=0.05,
                     capacity_ratio=0.25),
        rng=505,
    )


@pytest.fixture(scope="module")
def sparse_problem(dense_instance) -> SparseProblem:
    return SparseProblem.from_instance(dense_instance)


def grown_scheme(instance, seed: int = 6) -> ReplicationScheme:
    """Primary-only plus a handful of random valid replicas."""
    rng = np.random.default_rng(seed)
    scheme = ReplicationScheme.primary_only(instance)
    for _ in range(40):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if scheme.holds(site, obj):
            continue
        if scheme.remaining_capacity()[site] < instance.sizes[obj]:
            continue
        scheme.add_replica(site, obj)
    return scheme


# --------------------------------------------------------------------- #
# SparseCostModel vs CostModel
# --------------------------------------------------------------------- #
class TestSparseCostModel:
    @pytest.mark.parametrize("tile", [2, 3, 7, 256])
    def test_total_cost_bit_identical(
        self, dense_instance, sparse_problem, tile
    ):
        dense = CostModel(dense_instance)
        sparse = SparseCostModel(sparse_problem, tile=tile)
        scheme_d = ReplicationScheme.primary_only(dense_instance)
        scheme_s = ReplicationScheme.primary_only(sparse_problem)
        assert sparse.total_cost(scheme_s) == dense.total_cost(scheme_d)
        assert sparse.d_prime() == dense.d_prime()
        scheme_d = grown_scheme(dense_instance)
        scheme_s = grown_scheme(sparse_problem)
        assert sparse.total_cost(scheme_s) == dense.total_cost(scheme_d)

    def test_object_costs_bit_identical(
        self, dense_instance, sparse_problem
    ):
        dense = CostModel(dense_instance)
        sparse = SparseCostModel(sparse_problem, tile=4)
        scheme = grown_scheme(dense_instance)
        for k in range(dense_instance.num_objects):
            col = scheme.matrix[:, k]
            assert sparse.object_cost(k, col) == dense.object_cost(k, col)

    def test_update_fraction_respected(
        self, dense_instance, sparse_problem
    ):
        dense = CostModel(dense_instance, update_fraction=0.25)
        sparse = SparseCostModel(sparse_problem, update_fraction=0.25)
        scheme = grown_scheme(dense_instance)
        assert sparse.total_cost(
            grown_scheme(sparse_problem)
        ) == dense.total_cost(scheme)

    def test_width_one_trailing_tile_is_merged(self, sparse_problem):
        # N = 21, tile 5 would leave a trailing width-1 tile [20, 21);
        # the model must widen the previous tile instead (width-1 column
        # dots can take a different BLAS path and break bit-identity).
        model = SparseCostModel(sparse_problem, tile=5)
        n = sparse_problem.num_objects
        starts = list(model._tile_starts) + [n]
        widths = np.diff(starts)
        assert widths.min() >= 2
        assert starts[0] == 0 and starts[-1] == n

    def test_tile_must_be_at_least_two(self, sparse_problem):
        with pytest.raises(ValidationError):
            SparseCostModel(sparse_problem, tile=1)

    def test_dense_only_surfaces_raise(self, sparse_problem):
        model = SparseCostModel(sparse_problem)
        with pytest.raises(ValidationError):
            model.read_weight
        with pytest.raises(ValidationError):
            model.write_weight
        with pytest.raises(ValidationError):
            model.cost_to_primary

    def test_cost_model_for_dispatch(self, dense_instance, sparse_problem):
        assert type(cost_model_for(dense_instance)) is CostModel
        assert isinstance(cost_model_for(sparse_problem), SparseCostModel)


# --------------------------------------------------------------------- #
# algorithms on sparse problems
# --------------------------------------------------------------------- #
class TestAlgorithmsOnSparse:
    @pytest.mark.parametrize("order", ["round-robin", "random"])
    @pytest.mark.parametrize("num_objects", [21, 257])
    def test_sra_sparse_matches_dense(self, order, num_objects):
        # N=257 crosses the default 256-wide pricing tile (and leaves a
        # width-1 remainder the sparse model must merge).
        dense_instance = generate_instance(
            WorkloadSpec(num_sites=9, num_objects=num_objects,
                         update_ratio=0.05, capacity_ratio=0.25),
            rng=505,
        )
        sparse_problem = SparseProblem.from_instance(dense_instance)
        dense = SRA(site_order=order, rng=3).run(dense_instance)
        sparse = SRA(site_order=order, rng=3).run(sparse_problem)
        assert np.array_equal(sparse.scheme.matrix, dense.scheme.matrix)
        assert sparse.total_cost == dense.total_cost
        assert sparse.stats == dense.stats

    def test_sra_sparse_total_cost_is_dense_exact(
        self, dense_instance, sparse_problem
    ):
        result = SRA().run(sparse_problem)
        model = CostModel(dense_instance)
        scheme = ReplicationScheme.primary_only(dense_instance)
        scheme_matrix = result.scheme.matrix
        for site, obj in zip(*np.nonzero(scheme_matrix)):
            if not scheme.holds(int(site), int(obj)):
                scheme.add_replica(int(site), int(obj))
        assert result.total_cost == model.total_cost(scheme)

    def test_gra_densifies_sparse_problem(
        self, dense_instance, sparse_problem
    ):
        dense_run = GRA(rng=11).run(dense_instance)
        sparse_run = GRA(rng=11).run(sparse_problem)
        assert np.array_equal(
            dense_run.scheme.matrix, sparse_run.scheme.matrix
        )
        assert dense_run.total_cost == sparse_run.total_cost

    def test_agra_densifies_sparse_problem(
        self, dense_instance, sparse_problem
    ):
        from repro.algorithms import AGRAParams, GAParams

        fast_agra = AGRAParams(population_size=6, generations=5)
        fast_gra = GAParams(population_size=8, generations=4)
        changed = [0, 3, 7]
        dense_run = AGRA(fast_agra, gra_params=fast_gra, rng=12).adapt(
            dense_instance,
            ReplicationScheme.primary_only(dense_instance),
            changed,
        )
        sparse_run = AGRA(fast_agra, gra_params=fast_gra, rng=12).adapt(
            sparse_problem,
            ReplicationScheme.primary_only(sparse_problem),
            changed,
        )
        assert np.array_equal(
            dense_run.scheme.matrix, sparse_run.scheme.matrix
        )
        assert dense_run.total_cost == sparse_run.total_cost


# --------------------------------------------------------------------- #
# incremental evaluator over the sparse model
# --------------------------------------------------------------------- #
class TestIncrementalOnSparse:
    def test_evaluator_parity_with_dense(
        self, dense_instance, sparse_problem
    ):
        dense_scheme = ReplicationScheme.primary_only(dense_instance)
        sparse_scheme = ReplicationScheme.primary_only(sparse_problem)
        dense_eval = IncrementalCostEvaluator(
            CostModel(dense_instance), dense_scheme
        )
        sparse_eval = IncrementalCostEvaluator(
            SparseCostModel(sparse_problem, tile=4), sparse_scheme
        )
        assert sparse_eval.total_cost() == dense_eval.total_cost()
        rng = np.random.default_rng(3)
        for _ in range(25):
            site = int(rng.integers(dense_instance.num_sites))
            obj = int(rng.integers(dense_instance.num_objects))
            if dense_scheme.holds(site, obj):
                continue
            assert sparse_eval.delta_add(site, obj) == dense_eval.delta_add(
                site, obj
            )
            if (
                dense_scheme.remaining_capacity()[site]
                >= dense_instance.sizes[obj]
            ):
                dense_scheme.add_replica(site, obj)
                sparse_scheme.add_replica(site, obj)
                assert sparse_eval.total_cost() == dense_eval.total_cost()
        sparse_eval.consistency_check()
