"""Loader fuzzing: a corrupted instance or scheme file is a typed error.

Each example saves a small instance (or a scheme with its instance),
overwrites one field of the file — whole, or one element of it — with a
huge int, +-inf, NaN, a fraction, a ragged list, a value of the wrong type
or null, and loads it back.  The load must either raise a
:class:`~repro.errors.ReproError` or return exactly the values the file
holds: any other exception, or a value silently altered on the way in
(a fractional primary truncated to an int), fails.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReplicationScheme
from repro.errors import ReproError
from repro.io import load_instance, load_scheme, save_instance, save_scheme
from repro.workload import WorkloadSpec, generate_instance

_INSTANCE_FIELDS = ("cost", "sizes", "capacities", "reads", "writes", "primaries")

#: (file kind, section of the document, field) for every numeric field
TARGETS = [("instance", "data", f) for f in _INSTANCE_FIELDS] + [
    ("scheme", "instance", f) for f in _INSTANCE_FIELDS
] + [("scheme", "scheme", "matrix")]

MUTATIONS = (
    "huge-int", "inf", "-inf", "nan", "fraction", "ragged", "wrong-type", "null",
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The text of a saved instance file and of a saved scheme file."""
    instance = generate_instance(WorkloadSpec(num_sites=4, num_objects=5), rng=3)
    tmp = tmp_path_factory.mktemp("saved")
    save_instance(instance, tmp / "instance.json")
    save_scheme(ReplicationScheme(instance), tmp / "scheme.json")
    return {
        kind: (tmp / f"{kind}.json").read_text() for kind in ("instance", "scheme")
    }


def _bad_value(draw, mutation: str, old):
    if mutation == "huge-int":
        # past int64, past uint64, past the float range, below int64
        return draw(st.sampled_from([2**63, 2**64, 10**400, -(2**63) - 1]))
    if mutation == "fraction":
        return (old if isinstance(old, (int, float)) else 0) + 0.5
    if mutation == "ragged":
        return [old, [old, old]]
    if mutation == "wrong-type":
        return draw(st.sampled_from(["x", {"a": 1}]))
    return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan, "null": None}[
        mutation
    ]


@st.composite
def mutated_documents(draw, text: str, section: str, field: str):
    """The saved document ``text`` with ``section[field]`` corrupted."""
    document = json.loads(text)
    mutation = draw(st.sampled_from(MUTATIONS))
    holder, key = document[section], field
    # Descend into the (possibly nested) list to corrupt one element.
    while isinstance(holder[key], list) and draw(st.booleans()):
        holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
    holder[key] = _bad_value(draw, mutation, holder[key])
    return document


def _load_faithfully(kind: str, path: Path, document: dict) -> None:
    if kind == "instance":
        assert load_instance(path).to_dict() == document["data"]
    else:
        scheme = load_scheme(path)
        assert scheme.instance.to_dict() == document["instance"]
        assert scheme.to_dict() == document["scheme"]


@pytest.mark.parametrize(
    "kind, section, field", TARGETS, ids=[f"{k}-{f}" for k, _, f in TARGETS]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_field_is_rejected_or_loaded_exactly(
    saved, kind, section, field, data
):
    document = data.draw(mutated_documents(saved[kind], section, field))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        # allow_nan (the default) writes the bare Infinity/NaN tokens the
        # stdlib JSON reader accepts
        path.write_text(json.dumps(document))
        try:
            _load_faithfully(kind, path, document)
        except ReproError:
            pass
