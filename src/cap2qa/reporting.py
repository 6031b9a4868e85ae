"""Machine-readable run reports.

A report is one payload dict: the command, content hashes of every input
file, the metric values, wall-clock bounds as ISO strings, the tool version,
and the command's details when it has any. The JSON report is exactly
``json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)`` plus a
newline, so identical runs produce identical bytes; markdown rendering is
for human eyes.
"""

from __future__ import annotations

import hashlib
import io
import json
from datetime import datetime
from json.encoder import encode_basestring

from . import __version__ as _version
from .corpus import _open_input, as_kind, load_json, read_field, utf8_text
from .errors import InputError

_DISPLAY_NAMES = {
    "chair_s": "CHAIR_s",
    "recall": "Recall",
    "recall_without_hallucination": "Recall_w/oH",
    "pacc": "PAcc",
    "acc": "Acc",
    "bleu_1": "BLEU-1",
    "bleu_2": "BLEU-2",
    "bleu_3": "BLEU-3",
    "bleu_4": "BLEU-4",
    "cider": "CIDEr",
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with _open_input(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def json_text(value, write=None) -> str | None:
    """The bytes of ``json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)``, made faster.

    With ``write``, each piece of the text goes to ``write`` in order, so no
    whole string is built, and None is returned; without it, the text is.
    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder. This
    writer adds the indentation itself and leaves strings and ints to the C
    encoders; floats, bools and None go to ``json.dumps``. A dict key that
    is not a ``str`` raises ``TypeError``.
    """
    if write is None:
        pieces: list[str] = []
        _write_json(value, 0, pieces.append, ["\n"], {})
        return "".join(pieces)
    _write_json(value, 0, write, ["\n"], {})
    return None


def _write_json(value, depth: int, emit, newlines: list[str], plans: dict) -> None:
    """Pass the pieces of ``value``'s indented JSON to ``emit``.

    ``newlines[depth]`` is a newline and the indent of that depth. ``plans[(keys, depth)]``
    holds each sorted key with its opener, and the closer, of one dict shape; the rows of
    a report share these strings and add only their values. A module function, not a
    closure over itself, so no reference cycle keeps the pieces alive after a call.
    """
    if isinstance(value, str):
        emit(encode_basestring(value))
    elif type(value) is int:
        emit(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            emit("{}" if isinstance(value, dict) else "[]")
            return
        depth += 1
        if depth == len(newlines):
            newlines.append(newlines[-1] + "  ")
        inner, outer = newlines[depth], newlines[depth - 1]
        if isinstance(value, dict):
            shape = (tuple(value), depth)
            if shape not in plans:
                keys = sorted(value)
                openers = [("," if i else "{") + inner + encode_basestring(key) + ": " for i, key in enumerate(keys)]
                plans[shape] = (tuple(zip(keys, openers)), outer + "}")
            pairs, closer = plans[shape]
            for key, opener in pairs:
                emit(opener)
                _write_json(value[key], depth, emit, newlines, plans)
            emit(closer)
            return
        try:  # most lists in a report hold only strings
            emit("[" + inner + ("," + inner).join(map(encode_basestring, value)) + outer + "]")
        except TypeError:
            opener = "[" + inner
            for item in value:
                emit(opener)
                _write_json(item, depth, emit, newlines, plans)
                opener = "," + inner
            emit(outer + "]")
    else:
        emit(json.dumps(value))


def report_render(report: dict, fmt: str = "json", out=None) -> str | None:
    """Write a report to the text handle ``out`` in pieces, never as one string; without ``out``, return its text."""
    if out is None:
        text = io.StringIO()
        report_render(report, fmt, text)
        return text.getvalue()
    if fmt == "json":
        json_text(report, out.write)
        out.write("\n")
    elif fmt == "markdown":
        lines = [
            f"# {report['command']}",
            "",
            f"- tool version: {report['tool_version']}",
            f"- started: {report['started_at']}",
            f"- finished: {report['finished_at']}",
            "",
        ]
        if report["inputs"]:
            lines += ["## Inputs", ""]
            lines += [f"- `{path}` sha256 `{digest}`" for path, digest in sorted(report["inputs"].items())]
            lines.append("")
        lines += ["## Metrics", "", "| metric | value |", "| --- | --- |"]
        for key, value in report["metrics"].items():
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            lines.append(f"| {_DISPLAY_NAMES.get(key, key)} | {shown} |")
        lines.append("")
        out.write("\n".join(lines))
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    return None


def load_report(path: str) -> dict:
    """Read a saved report's payload, its timestamps in ``isoformat``; other keys and empty details are dropped."""
    payload = load_json(path)
    try:
        report = {
            "command": read_field(payload, "command", path),
            "inputs": as_kind(payload.get("inputs", {}), dict, path, "'inputs'"),
            "metrics": as_kind(payload.get("metrics", {}), dict, path, "'metrics'"),
            "started_at": datetime.fromisoformat(payload["started_at"]).isoformat(),
            "finished_at": datetime.fromisoformat(payload["finished_at"]).isoformat(),
            "details": as_kind(payload.get("details", {}), dict, path, "'details'"),
            "tool_version": as_kind(payload.get("tool_version", _version), str, path, "'tool_version'"),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a cap2qa report ({type(exc).__name__}: {exc})") from exc
    if not report["details"]:
        del report["details"]
    # Both formats print the report, so a string UTF-8 cannot encode fails here, naming its top-level key.
    for key, value in report.items():
        pending = [value]
        while pending:
            value = pending.pop()
            if isinstance(value, str):
                utf8_text(value, path, repr(key))
            elif isinstance(value, (dict, list)):
                pending += [*value, *value.values()] if isinstance(value, dict) else value
    # An input digest is a string and a metric a number; a bool is neither.
    for section, kinds, kind_name in (("inputs", (str,), "a string"), ("metrics", (int, float), "a number")):
        for key, value in report[section].items():
            if type(value) not in kinds:
                shown = json.dumps(value, ensure_ascii=False)
                raise InputError(f"{path}: {section}[{key!r}] must be {kind_name}, got {shown}")
    return report
