"""Scale profiles for the experiment harness.

The paper's evaluation runs up to 100 sites x 1,000 objects with 15
network instances per data point and a 50x80 GA — hours of compute on a
modern laptop in pure Python.  Every figure definition therefore takes a
:class:`ScaleProfile`:

* ``quick`` (default) — CI-sized grids with a reduced GA; preserves every
  *trend* in the paper because all effects are ratio-driven (update
  ratio, capacity ratio), not absolute-size-driven.
* ``mid`` — intermediate grids (minutes, not seconds or hours), useful for
  checking scale-dependent effects like the Fig. 4(d) runtime ordering.
* ``paper`` — the full Section 6 grids and the paper's GA parameters.

Select with ``REPRO_PROFILE=paper`` or pass a profile explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.algorithms.agra.params import AGRAParams
from repro.algorithms.gra.params import GAParams
from repro.errors import ValidationError

#: environment variable consulted by :func:`get_profile`
PROFILE_ENV_VAR = "REPRO_PROFILE"


@dataclass(frozen=True)
class ScaleProfile:
    """Every figure's grid sizes and GA budgets in one place."""

    name: str
    instances: int  # networks averaged per data point (paper: 15)
    gra: GAParams
    agra: AGRAParams

    # --- Figures 1(a)/1(b)/2(a)/2(b): sweep over number of sites ------ #
    fig1_sites: Tuple[int, ...]
    fig1_num_objects: int
    fig1_update_ratios: Tuple[float, ...]  # paper: 2%, 5%, 10%
    fig1_capacity_ratio: float  # paper: 15%

    # --- Figures 1(c)/1(d): sweep over number of objects -------------- #
    fig1c_num_sites: int
    fig1c_objects: Tuple[int, ...]

    # --- Figure 3(a): sweep over update ratio ------------------------- #
    fig3a_update_ratios: Tuple[float, ...]
    fig3a_num_sites: int
    fig3a_num_objects: int

    # --- Figure 3(b): sweep over capacity ratio ----------------------- #
    fig3b_capacity_ratios: Tuple[float, ...]
    fig3b_update_ratio: float

    # --- Figures 4(a)-(d): AGRA under pattern change ------------------ #
    fig4_num_sites: int
    fig4_num_objects: int
    fig4_update_ratio: float
    fig4_capacity_ratio: float
    fig4_change_percent: float  # paper: Ch = 600%
    fig4_object_shares: Tuple[float, ...]  # OCh sweep for 4(a)/4(b)
    fig4c_read_shares: Tuple[float, ...]  # R sweep for 4(c)
    fig4c_object_share: float  # fixed OCh for 4(c)
    fig4_static_generations: Tuple[int, int]  # paper: (80, 150)
    fig4_mini_generations: Tuple[int, int]  # paper: (5, 10)

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValidationError(
                f"instances must be >= 1, got {self.instances}"
            )

    def with_overrides(self, **kwargs: object) -> "ScaleProfile":
        return replace(self, **kwargs)  # type: ignore[arg-type]


QUICK_PROFILE = ScaleProfile(
    name="quick",
    instances=3,
    gra=GAParams(population_size=16, generations=20),
    agra=AGRAParams(population_size=8, generations=20),
    fig1_sites=(10, 20, 30, 40),
    fig1_num_objects=40,
    fig1_update_ratios=(0.02, 0.05, 0.10),
    fig1_capacity_ratio=0.15,
    fig1c_num_sites=20,
    fig1c_objects=(20, 40, 60, 80),
    fig3a_update_ratios=(0.01, 0.02, 0.05, 0.10, 0.20),
    fig3a_num_sites=20,
    fig3a_num_objects=40,
    fig3b_capacity_ratios=(0.05, 0.10, 0.15, 0.20, 0.30),
    fig3b_update_ratio=0.05,
    fig4_num_sites=16,
    fig4_num_objects=40,
    fig4_update_ratio=0.05,
    fig4_capacity_ratio=0.15,
    fig4_change_percent=6.0,
    fig4_object_shares=(0.10, 0.30, 0.50),
    fig4c_read_shares=(0.0, 0.25, 0.50, 0.75, 1.0),
    fig4c_object_share=0.30,
    fig4_static_generations=(20, 40),
    fig4_mini_generations=(5, 10),
)

#: intermediate scale: minutes instead of seconds (quick) or hours (paper)
MID_PROFILE = ScaleProfile(
    name="mid",
    instances=5,
    gra=GAParams(population_size=30, generations=40),
    agra=AGRAParams(population_size=10, generations=35),
    fig1_sites=(20, 40, 60, 80),
    fig1_num_objects=80,
    fig1_update_ratios=(0.02, 0.05, 0.10),
    fig1_capacity_ratio=0.15,
    fig1c_num_sites=40,
    fig1c_objects=(50, 100, 150, 200),
    fig3a_update_ratios=(0.01, 0.02, 0.05, 0.10, 0.20),
    fig3a_num_sites=30,
    fig3a_num_objects=60,
    fig3b_capacity_ratios=(0.05, 0.10, 0.15, 0.20, 0.30),
    fig3b_update_ratio=0.05,
    fig4_num_sites=30,
    fig4_num_objects=100,
    fig4_update_ratio=0.05,
    fig4_capacity_ratio=0.15,
    fig4_change_percent=6.0,
    fig4_object_shares=(0.10, 0.30, 0.50),
    fig4c_read_shares=(0.0, 0.25, 0.50, 0.75, 1.0),
    fig4c_object_share=0.30,
    fig4_static_generations=(40, 80),
    fig4_mini_generations=(5, 10),
)

PAPER_PROFILE = ScaleProfile(
    name="paper",
    instances=15,
    gra=GAParams(population_size=50, generations=80),
    agra=AGRAParams(population_size=10, generations=50),
    fig1_sites=(20, 40, 60, 80, 100),
    fig1_num_objects=150,
    fig1_update_ratios=(0.02, 0.05, 0.10),
    fig1_capacity_ratio=0.15,
    fig1c_num_sites=100,
    fig1c_objects=(100, 200, 400, 600, 800, 1000),
    fig3a_update_ratios=(0.005, 0.01, 0.02, 0.05, 0.10, 0.20),
    fig3a_num_sites=50,
    fig3a_num_objects=150,
    fig3b_capacity_ratios=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    fig3b_update_ratio=0.05,
    fig4_num_sites=50,
    fig4_num_objects=200,
    fig4_update_ratio=0.05,
    fig4_capacity_ratio=0.15,
    fig4_change_percent=6.0,
    fig4_object_shares=(0.10, 0.20, 0.30, 0.40, 0.50),
    fig4c_read_shares=(0.0, 0.20, 0.40, 0.60, 0.80, 1.0),
    fig4c_object_share=0.30,
    fig4_static_generations=(80, 150),
    fig4_mini_generations=(5, 10),
)

_PROFILES: Dict[str, ScaleProfile] = {
    QUICK_PROFILE.name: QUICK_PROFILE,
    MID_PROFILE.name: MID_PROFILE,
    PAPER_PROFILE.name: PAPER_PROFILE,
}


def get_profile(name: str = "") -> ScaleProfile:
    """Resolve a profile by name, falling back to ``$REPRO_PROFILE``/quick."""
    name = name or os.environ.get(PROFILE_ENV_VAR, "") or "quick"
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown profile {name!r}; choose from {sorted(_PROFILES)}"
        ) from None


__all__ = [
    "PROFILE_ENV_VAR",
    "ScaleProfile",
    "QUICK_PROFILE",
    "MID_PROFILE",
    "PAPER_PROFILE",
    "get_profile",
]
