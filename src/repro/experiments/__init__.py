"""Experiment harness reproducing every figure of Section 6.

Figures are defined in :mod:`repro.experiments.figures`; each returns a
:class:`~repro.experiments.figures.FigureResult` whose series mirror the
paper's legends.  Scale profiles (:mod:`repro.experiments.config`) let the
same definitions run at CI scale (``quick``, the default) or at the
paper's full scale (``paper``), selected with the ``REPRO_PROFILE``
environment variable or explicitly.
"""

from repro.experiments.config import (
    MID_PROFILE,
    PAPER_PROFILE,
    QUICK_PROFILE,
    ScaleProfile,
    get_profile,
)
from repro.experiments.figures import (
    FigureResult,
    FIGURES,
    run_figure,
)
from repro.experiments.scale import (
    SCALE_TIERS,
    ScaleSpec,
    generate_scale_problem,
    run_scale,
)
from repro.experiments.harness import (
    InstanceAverages,
    average_static_runs,
    chaos_replay_runs,
)
from repro.experiments.parallel import (
    GRAFactory,
    ParallelRunner,
    SRAFactory,
)

__all__ = [
    "ParallelRunner",
    "SRAFactory",
    "GRAFactory",
    "ScaleProfile",
    "QUICK_PROFILE",
    "MID_PROFILE",
    "PAPER_PROFILE",
    "get_profile",
    "ScaleSpec",
    "SCALE_TIERS",
    "generate_scale_problem",
    "run_scale",
    "FigureResult",
    "FIGURES",
    "run_figure",
    "InstanceAverages",
    "average_static_runs",
    "chaos_replay_runs",
]
