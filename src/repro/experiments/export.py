"""Bulk export of reproduced results to a directory.

Writes, for each requested figure, both the machine-readable JSON
(loadable via :mod:`repro.io`) and the rendered ASCII table; ablations
and the claims-verification verdicts likewise; plus a ``manifest.json``
tying the run together (profile, seed, file list).  This is the artifact
a paper-reproduction report links to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ValidationError
from repro.experiments.ablations import ABLATIONS, run_ablation
from repro.experiments.claims import render_verdicts, verify_claims
from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.figures import DEFAULT_SEED, FIGURES, run_figure
from repro.io import save_figure_result
from repro.utils.files import atomic_write

PathLike = Union[str, Path]


def export_results(
    output_dir: PathLike,
    profile: Optional[ScaleProfile] = None,
    seed: int = DEFAULT_SEED,
    figures: Optional[Sequence[str]] = None,
    ablations: Optional[Sequence[str]] = None,
    include_claims: bool = True,
) -> Dict[str, object]:
    """Reproduce and write results under ``output_dir``.

    ``figures``/``ablations`` default to *all* of them; pass empty lists
    to skip a category.  Returns the manifest (also written to
    ``manifest.json``).
    """
    profile = profile or get_profile()
    figure_ids = sorted(FIGURES) if figures is None else list(figures)
    ablation_ids = sorted(ABLATIONS) if ablations is None else list(ablations)
    for fig_id in figure_ids:
        if fig_id not in FIGURES:
            raise ValidationError(f"unknown figure {fig_id!r}")
    for ablation_id in ablation_ids:
        if ablation_id not in ABLATIONS:
            raise ValidationError(f"unknown ablation {ablation_id!r}")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[str] = []

    for fig_id in figure_ids:
        result = run_figure(fig_id, profile, seed=seed)
        json_path = out / f"{fig_id}.json"
        save_figure_result(result, json_path)
        txt_path = out / f"{fig_id}.txt"
        _write(txt_path, result.render() + "\n")
        written.extend([json_path.name, txt_path.name])

    for ablation_id in ablation_ids:
        result = run_ablation(ablation_id, profile)
        txt_path = out / f"ablation-{ablation_id}.txt"
        _write(txt_path, result.render() + "\n")
        json_path = out / f"ablation-{ablation_id}.json"
        _write_json(
            json_path,
            {
                "ablation_id": result.ablation_id,
                "title": result.title,
                "headers": result.headers,
                "rows": result.rows,
                "meta": result.meta,
            },
        )
        written.extend([txt_path.name, json_path.name])

    claims_summary: Optional[List[Dict[str, str]]] = None
    if include_claims:
        results = verify_claims(profile, seed=seed)
        _write(out / "claims.txt", render_verdicts(results) + "\n")
        claims_summary = [
            {
                "claim": r.claim_id,
                "verdict": r.verdict,
                "detail": r.detail,
            }
            for r in results
        ]
        _write_json(out / "claims.json", claims_summary)
        written.extend(["claims.txt", "claims.json"])

    manifest = {
        "profile": profile.name,
        "seed": seed,
        "figures": figure_ids,
        "ablations": ablation_ids,
        "claims_included": include_claims,
        "files": written,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def _write(path: Path, text: str) -> None:
    with atomic_write(path) as handle:
        handle.write(text)


def _write_json(path: Path, payload: object) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


__all__ = ["export_results"]
