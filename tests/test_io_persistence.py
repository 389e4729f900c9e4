"""JSON persistence round-trips and failure modes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algorithms import SRA
from repro.errors import ValidationError
from repro.experiments.figures import FigureResult
from repro.io import persistence
from repro.io import (
    load_figure_result,
    load_instance,
    load_scheme,
    save_figure_result,
    save_instance,
    save_scheme,
)


def test_instance_roundtrip(small_instance, tmp_path):
    path = save_instance(small_instance, tmp_path / "inst.json")
    assert path.exists()
    again = load_instance(path)
    assert again == small_instance


def test_scheme_roundtrip(small_instance, tmp_path):
    scheme = SRA().run(small_instance).scheme
    path = save_scheme(scheme, tmp_path / "scheme.json")
    again = load_scheme(path)
    assert again == scheme
    assert again.instance == small_instance


def test_figure_roundtrip(tmp_path):
    figure = FigureResult(
        figure_id="fig3a",
        title="t",
        x_label="x",
        y_label="y",
        x_values=[1.0, 2.0],
        series={"SRA": [3.0, 4.0]},
        meta={"profile": "quick"},
    )
    path = save_figure_result(figure, tmp_path / "fig.json")
    again = load_figure_result(path)
    assert again.to_dict() == figure.to_dict()


def test_nested_directories_created(small_instance, tmp_path):
    path = save_instance(small_instance, tmp_path / "a" / "b" / "i.json")
    assert path.exists()


def test_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="no such file"):
        load_instance(tmp_path / "absent.json")


def test_wrong_kind(small_instance, tmp_path):
    path = save_instance(small_instance, tmp_path / "inst.json")
    with pytest.raises(ValidationError, match="expected"):
        load_scheme(path)


def test_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_instance(path)


def test_non_object_json(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValidationError, match="JSON object"):
        load_instance(path)


def test_unknown_version(small_instance, tmp_path):
    path = save_instance(small_instance, tmp_path / "inst.json")
    document = json.loads(path.read_text(encoding="utf-8"))
    document["version"] = 999
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ValidationError, match="version"):
        load_instance(path)


def test_string_paths_accepted(small_instance, tmp_path):
    path = str(tmp_path / "inst.json")
    save_instance(small_instance, path)
    assert load_instance(path) == small_instance


def test_unreadable_file_is_validation_error(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text("{}", encoding="utf-8")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "open", denied)
    with pytest.raises(ValidationError, match="Permission denied"):
        load_instance(path)


def test_failed_write_leaves_target_untouched(small_instance, tmp_path,
                                              monkeypatch):
    path = save_instance(small_instance, tmp_path / "inst.json")
    before = path.read_bytes()

    def broken_dump(document, handle, **kwargs):
        handle.write('{"kind": "half-written')
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(persistence.json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        save_instance(small_instance, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_failed_first_write_creates_nothing(small_instance, tmp_path,
                                            monkeypatch):
    def broken_dump(document, handle, **kwargs):
        raise TypeError("not serialisable")

    monkeypatch.setattr(persistence.json, "dump", broken_dump)
    with pytest.raises(TypeError):
        save_instance(small_instance, tmp_path / "inst.json")
    assert list(tmp_path.iterdir()) == []
