"""Rendering of reproduced figures (and run metrics) as terminal tables."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.figures import FigureResult, run_figure
from repro.utils.metrics import MetricsRegistry


def render_figure(result: FigureResult, precision: int = 2) -> str:
    """One figure as an aligned table (x column + one column per legend)."""
    return result.render(precision=precision)


def render_figures(
    figure_ids: Iterable[str],
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
) -> str:
    """Run and render several figures, separated by blank lines."""
    profile = profile or get_profile()
    blocks: List[str] = []
    for figure_id in figure_ids:
        kwargs = {} if seed is None else {"seed": seed}
        result = run_figure(figure_id, profile, **kwargs)
        blocks.append(render_figure(result))
    return "\n\n".join(blocks)


def render_metrics(registry: MetricsRegistry, precision: int = 4) -> str:
    """Cache counters and per-phase timers as a terminal block."""
    return registry.render(precision=precision)


__all__ = ["render_figure", "render_figures", "render_metrics"]
