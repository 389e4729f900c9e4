"""Analysis utilities: statistics, algorithm comparison, GA sensitivity.

Extensions beyond the paper that a practitioner adopting these
algorithms needs: confidence intervals on instance-averaged savings
(the paper reports bare means over 15 networks), side-by-side
comparisons of algorithms on the same networks, and GA parameter
sweeps for tuning the GA budget.
"""

from repro.analysis.statistics import SummaryStats, summarize
from repro.analysis.comparison import ComparisonReport, compare_algorithms
from repro.analysis.sensitivity import (
    SensitivityResult,
    sweep_ga_parameter,
)

__all__ = [
    "SummaryStats",
    "summarize",
    "ComparisonReport",
    "compare_algorithms",
    "SensitivityResult",
    "sweep_ga_parameter",
]
