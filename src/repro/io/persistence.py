"""JSON persistence of the library's core objects.

Files are versioned self-describing JSON documents: a ``kind`` tag plus
a ``version`` integer, so future format evolution stays loadable.  All
functions accept a path (``str`` or ``pathlib.Path``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.files import atomic_write, read_text

if TYPE_CHECKING:
    # imported where used: the experiments package pulls in the
    # simulator and every algorithm, which instance and scheme files
    # never need
    from repro.experiments.figures import FigureResult

PathLike = Union[str, Path]

FORMAT_VERSION = 1

_KIND_INSTANCE = "repro/drp-instance"
_KIND_SCHEME = "repro/replication-scheme"
_KIND_FIGURE = "repro/figure-result"


def _write(path: PathLike, document: dict) -> Path:
    with atomic_write(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return Path(path)


def _read(path: PathLike, expected_kind: str) -> dict:
    path = Path(path)
    try:
        document = json.loads(read_text(path))
    except ValueError as exc:
        # JSONDecodeError, or an int literal past Python's digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError(f"{path} does not contain a JSON object")
    kind = document.get("kind")
    if kind != expected_kind:
        raise ValidationError(
            f"{path} contains {kind!r}, expected {expected_kind!r}"
        )
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path} has format version {version!r}; this build reads "
            f"version {FORMAT_VERSION}"
        )
    return document


def _field(document: dict, key: str, path: PathLike) -> object:
    if key not in document:
        raise ValidationError(f"{path} has no {key!r} field")
    return document[key]


# --------------------------------------------------------------------- #
# instances
# --------------------------------------------------------------------- #
def save_instance(instance: DRPInstance, path: PathLike) -> Path:
    """Write a DRP instance to ``path`` as JSON."""
    return _write(
        path,
        {
            "kind": _KIND_INSTANCE,
            "version": FORMAT_VERSION,
            "data": instance.to_dict(),
        },
    )


def load_instance(path: PathLike) -> DRPInstance:
    """Read a DRP instance written by :func:`save_instance`."""
    document = _read(path, _KIND_INSTANCE)
    return DRPInstance.from_dict(_field(document, "data", path))


# --------------------------------------------------------------------- #
# schemes
# --------------------------------------------------------------------- #
def save_scheme(scheme: ReplicationScheme, path: PathLike) -> Path:
    """Write a replication scheme (with its instance) to ``path``."""
    return _write(
        path,
        {
            "kind": _KIND_SCHEME,
            "version": FORMAT_VERSION,
            "instance": scheme.instance.to_dict(),
            "scheme": scheme.to_dict(),
        },
    )


def load_scheme(path: PathLike) -> ReplicationScheme:
    """Read a scheme written by :func:`save_scheme` (instance included)."""
    document = _read(path, _KIND_SCHEME)
    instance = DRPInstance.from_dict(_field(document, "instance", path))
    return ReplicationScheme.from_dict(instance, _field(document, "scheme", path))


# --------------------------------------------------------------------- #
# figure results
# --------------------------------------------------------------------- #
def save_figure_result(result: FigureResult, path: PathLike) -> Path:
    """Write a reproduced figure's data series to ``path``."""
    return _write(
        path,
        {
            "kind": _KIND_FIGURE,
            "version": FORMAT_VERSION,
            "data": result.to_dict(),
        },
    )


def load_figure_result(path: PathLike) -> FigureResult:
    """Read a figure written by :func:`save_figure_result`."""
    from repro.experiments.figures import FigureResult

    document = _read(path, _KIND_FIGURE)
    data = document["data"]
    return FigureResult(
        figure_id=data["figure_id"],
        title=data["title"],
        x_label=data["x_label"],
        y_label=data["y_label"],
        x_values=list(data["x_values"]),
        series={k: list(v) for k, v in data["series"].items()},
        meta=dict(data.get("meta", {})),
    )


__all__ = [
    "FORMAT_VERSION",
    "save_instance",
    "load_instance",
    "save_scheme",
    "load_scheme",
    "save_figure_result",
    "load_figure_result",
]
