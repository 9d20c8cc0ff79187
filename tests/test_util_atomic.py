"""``atomic_write_json``: a failed write leaves the old file intact."""

import json

import pytest

from repro.util.atomic import atomic_write_json


def test_writes_payload_with_indent(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(path, {"a": [1, 2]}, indent=1)
    assert path.read_text(encoding="utf-8") == json.dumps(
        {"a": [1, 2]}, indent=1
    )


def test_failed_dump_keeps_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    atomic_write_json(path, {"version": 1})
    before = path.read_bytes()

    def half_dump(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", half_dump)
    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write_json(path, {"version": 2})
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
