import hashlib
import json
from datetime import datetime, timezone

import pytest

from cap2qa.errors import InputError
from cap2qa.reporting import Report, load_report, report_render, sha256_file

T0 = datetime(2024, 5, 1, 10, 0, tzinfo=timezone.utc)
T1 = datetime(2024, 5, 1, 10, 5, tzinfo=timezone.utc)


def report(**kwargs):
    defaults = dict(
        command="eval-vqa",
        inputs={"pred.jsonl": "ab" * 32},
        metrics={"pacc": 0.5, "n_items": 4},
        started_at=T0,
        finished_at=T1,
    )
    defaults.update(kwargs)
    return Report(**defaults)


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"hello \xf0\x9f\x8c\x8d")
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_sha256_missing_file(tmp_path):
    path = tmp_path / "absent"
    with pytest.raises(InputError) as info:
        sha256_file(path)
    assert str(info.value) == f"no such file: {path}"


def test_json_render_is_canonical():
    a = report_render(report(), "json")
    b = report_render(report(), "json")
    assert a == b
    payload = json.loads(a)
    assert list(payload.keys()) == sorted(payload.keys())


def test_markdown_contains_display_names():
    rendered = report_render(report(metrics={"chair_s": 0.25, "recall": 0.5}), "markdown")
    assert "CHAIR_s" in rendered
    assert "Recall" in rendered
    assert "| metric | value |" in rendered


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        report_render(report(), "xml")


def test_load_round_trip(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(report_render(report(), "json"), encoding="utf-8")
    loaded = load_report(path)
    assert loaded.command == "eval-vqa"
    assert loaded.metrics["pacc"] == 0.5
    assert loaded.started_at == T0
    assert loaded.finished_at == T1


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError, match=r"^no such file: .*absent\.json$"):
        load_report(tmp_path / "absent.json")
