"""Core DRP formulation: problem instances, schemes, costs and benefits.

This package implements Section 2 of the paper: the Data Replication
Problem inputs (:class:`DRPInstance`), replication schemes as boolean
``M x N`` matrices with the primary-copy constraint
(:class:`ReplicationScheme`), the network-transfer-cost model of
Eq. 1-4 (:class:`CostModel`), the greedy benefit value of Eq. 5
(:func:`replication_benefit`), the AGRA deallocation estimator of Eq. 6
(:func:`deallocation_estimate`) and the normalised GA fitness
(:func:`fitness_from_costs`).
"""

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.core.cost import CostModel, SparseCostModel, cost_model_for
from repro.core.benefit import (
    benefit_matrix,
    deallocation_estimate,
    deallocation_estimates_for_site,
    replication_benefit,
)
from repro.core.fitness import fitness_from_costs, savings_percent
from repro.core.incremental import IncrementalCostEvaluator, eq5_benefit
from repro.core.strategies import WriteStrategy

__all__ = [
    "WriteStrategy",
    "DRPInstance",
    "ReplicationScheme",
    "CostModel",
    "SparseCostModel",
    "cost_model_for",
    "IncrementalCostEvaluator",
    "eq5_benefit",
    "replication_benefit",
    "benefit_matrix",
    "deallocation_estimate",
    "deallocation_estimates_for_site",
    "fitness_from_costs",
    "savings_percent",
]
