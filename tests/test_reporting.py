import hashlib
import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa import __version__
from cap2qa.errors import InputError
from cap2qa.reporting import json_text, load_report, report_render, sha256_file

T0 = datetime(2024, 5, 1, 10, 0, tzinfo=timezone.utc)
T1 = datetime(2024, 5, 1, 10, 5, tzinfo=timezone.utc)


def report(**kwargs):
    defaults = dict(
        command="eval-vqa",
        inputs={"pred.jsonl": "ab" * 32},
        metrics={"pacc": 0.5, "n_items": 4},
        started_at=T0.isoformat(),
        finished_at=T1.isoformat(),
        tool_version=__version__,
    )
    defaults.update(kwargs)
    return defaults


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
    assert load_report(path) == report()


def test_load_missing_file(tmp_path):
    with pytest.raises(InputError, match=r"^no such file: .*absent\.json$"):
        load_report(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "section, value, kind",
    [
        ("metrics", [1], "a number"),
        ("metrics", True, "a number"),
        ("metrics", "0.5", "a number"),
        ("metrics", None, "a number"),
        ("inputs", 5, "a string"),
        ("inputs", ["ab"], "a string"),
    ],
)
def test_load_rejects_a_wrongly_typed_value_naming_file_and_key(tmp_path, section, value, kind):
    path = tmp_path / "r.json"
    payload = {"command": "x", "started_at": "2024-01-01T00:00:00", "finished_at": "2024-01-01T00:00:00"}
    payload[section] = {"a": value}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InputError) as info:
        load_report(path)
    assert str(info.value) == f"{path}: {section}['a'] must be {kind}, got {json.dumps(value)}"


@pytest.mark.parametrize(
    "key, change, index",
    [
        ("command", {"command": "eval-vqa\ud83d"}, 8),
        ("inputs", {"inputs": {"pred\ud83d.jsonl": "ab" * 32}}, 4),
        ("details", {"details": {"per_item": [{"question_id": "q1", "score": ["1/3", {"note\ud83d": 1}]}]}}, 4),
    ],
)
def test_load_rejects_a_lone_surrogate_naming_file_and_key(tmp_path, key, change, index):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report(**change)), encoding="utf-8")
    with pytest.raises(InputError) as info:
        load_report(path)
    assert str(info.value) == f"{path}: {key!r} holds a lone surrogate '\\ud83d' at index {index}"


# Every JSON leaf: control and non-ASCII text, big and negative ints, and
# floats including nan, inf and -0.0.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F) | st.sampled_from("\"\\/é漢\u2028\U0001F600"))
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=40,
)

# Report rows: lists of dicts over a three-key alphabet, nested so that one key set
# recurs at depths 1-4 and arrives in different insertion orders.
ROW_KEYS = st.sampled_from(["a", "b", "é"])
ROW_PAYLOADS = st.recursive(
    st.integers() | st.text(max_size=3),
    lambda children: st.dictionaries(ROW_KEYS, children, min_size=1)
    | st.lists(st.dictionaries(ROW_KEYS, children, min_size=1), min_size=1, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_PAYLOADS | ROW_PAYLOADS)
def test_json_text_is_byte_identical_to_indented_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": [{2: "c", 3: "d"}]}], ids=["top", "nested"])
def test_json_text_rejects_a_key_that_is_not_a_string(payload):
    with pytest.raises(TypeError):
        json_text(payload)
