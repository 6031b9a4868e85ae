"""COCO-style annotation ingestion and the instruction-record dataset.

Input side: official COCO caption and instance JSON files. Output side: the
instruction dataset as JSONL, one record per line with a fixed key order
(``image_id``, ``question``, ``answer``, ``source_caption_ids``,
``provenance``) so files diff and hash cleanly. Resume cuts a run's torn
last line with :func:`drop_torn_tail`.

This module also owns the file readers (:func:`load_json`, :func:`iter_jsonl`,
:func:`load_yaml`, :func:`read_text`), which open every input through one
opener, so a missing, unreadable or malformed file is always the same
one-line input error. Every field of those inputs is then read through
:func:`read_field`, so a missing or wrongly typed field is one too. Outputs
have an opener of their own, :func:`_open_output`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator

import yaml

from .errors import InputError, RuntimeFailure

log = logging.getLogger(__name__)

# Field names that identify the image in evaluation and foreign QA JSONL.
IMAGE_KEYS = ("image_id", "image", "img_id")


@dataclass(frozen=True)
class CaptionRecord:
    """One human-written caption of one image."""

    caption_id: int
    image_id: int
    text: str


@dataclass(frozen=True)
class ObjectAnnotation:
    """Positive and negative object categories of one image.

    Negatives are the complement of the positives within the closed
    vocabulary; instance files never list them explicitly.
    """

    image_id: int
    positive_categories: frozenset[str]
    negative_categories: frozenset[str]


@dataclass(frozen=True)
class Provenance:
    model_id: str
    prompt_version: str
    attempt: int
    created_at: datetime


@dataclass(frozen=True)
class QAPair:
    """One question-answer pair parsed from an assistant response."""

    question: str
    answer: str


@dataclass(frozen=True)
class InstructionRecord:
    """A generated question-answer pair tied back to its source captions."""

    image_id: int
    question: str
    answer: str
    source_caption_ids: tuple[int, ...]
    provenance: Provenance


@dataclass(frozen=True)
class DatasetStats:
    n_records: int
    n_distinct_images: int
    avg_answer_words: float
    avg_question_words: float


@contextmanager
def _open_input(path: str | Path, mode: str = "r") -> Iterator[IO]:
    """Open an input file as UTF-8 text, or as bytes with ``mode="rb"``.

    Every input file is opened here, so a path that is missing, a directory
    or not UTF-8 is always one :class:`InputError` line that names it.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise InputError(f"no such file: {path}") from exc
    except IsADirectoryError as exc:
        raise InputError(f"{path}: is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{_first_non_utf8_line(path)}: not UTF-8 ({exc.reason})") from exc


@contextmanager
def _open_output(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open an output file as UTF-8 text, or as bytes with a ``"b"`` mode.

    Every file the package writes is opened here, so an :class:`OSError` while it is open, closing included, is one :class:`RuntimeFailure` that names it.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise RuntimeFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


def _first_non_utf8_line(path: str | Path) -> int:
    """The number of the first line of ``path`` that is not UTF-8; read only after a decode failed."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 0


def load_json(path: str | Path) -> dict:
    with _open_input(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: {exc.msg} at offset {exc.pos}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return data


def iter_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:line", object)`` for each non-blank line of a JSONL file.

    Every line must hold one JSON object; anything else is an
    :class:`InputError` naming the line.
    """
    with _open_input(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{line_no}: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{line_no}: expected a JSON object")
            yield f"{path}:{line_no}", obj


def load_yaml(path: str | Path):
    """Parse a YAML file; a syntax error becomes a one-line input error."""
    with _open_input(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            # PyYAML messages span several lines (context, snippet, caret).
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
            raise InputError(f"{path}: malformed YAML{where}: {problem}") from exc


def read_text(path: str | Path) -> str:
    with _open_input(path) as fh:
        return fh.read()


# For each kind of field: the JSON types it may be converted from besides its
# own, and its name in errors. A bool is never converted: True is not id 1.
_KINDS = {
    str: ((int, float), "a string"),
    int: ((str,), "an integer"),
    float: ((int, str), "a number"),
    list: ((), "a list"),
    dict: ((), "an object"),
}


def as_kind(value, kind: type, where: str, name: str):
    """Convert one input value to ``kind``, or raise a one-line error naming ``where`` and ``name``."""
    if type(value) is kind:
        return value
    sources, kind_name = _KINDS[kind]
    if type(value) in sources:
        try:
            return kind(value)
        except ValueError:
            pass
    shown = json.dumps(value, ensure_ascii=False, default=str)
    raise InputError(f"{where}: {name} must be {kind_name}, got {shown}")


def read_field(obj: dict, keys: str | tuple[str, ...], where: str, kind: type = str):
    """Return the first of ``keys`` present in ``obj``, as ``kind``.

    ``where`` names the place for errors (``file:line`` or ``file: array[i]``).
    A value that already has type ``kind`` is returned as is; otherwise a
    string or number is converted (``"12"`` is id 12, ``5`` is text ``"5"``)
    and anything else (``null``, a bool, a list, an object) is a
    :class:`InputError` naming the key. ``kind=object`` takes any
    value as it is, for callers that check it themselves.
    """
    if type(keys) is str:
        keys = (keys,)
    for key in keys:
        if key in obj:
            value = obj[key]
            if type(value) is kind or kind is object:
                return value
            return as_kind(value, kind, where, repr(key))
    raise InputError(f"{where}: missing {' or '.join(map(repr, keys))}")


def check_keys(obj: dict, known, where: str) -> None:
    """Raise an :class:`InputError` naming the first key of one of our own formats that is not in ``known``: a misspelt key must not be dropped."""
    for key in obj:
        if key not in known:
            raise InputError(f"{where}: unknown key {key!r} (known: {', '.join(known)})")


def sha256_hex(content) -> str:
    """The SHA-256 hex that names ``content``: of a text's UTF-8, or of another JSON value's sorted-key, non-ASCII-escaped ``json.dumps``."""
    if type(content) is not str:
        content = json.dumps(content, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def utf8_text(text: str, where: str, name: str) -> str:
    """Return ``text``, or raise an :class:`InputError` naming ``where`` and ``name`` if UTF-8 cannot encode it.

    Only a lone surrogate, as a JSON escape such as ``\\ud83d`` decodes to, does that.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(f"{where}: {name} holds a lone surrogate {text[exc.start]!r} at index {exc.start}") from exc
    return text


def _objects(path: str | Path, entries: list, name: str) -> Iterator[tuple[str, dict]]:
    """Yield ``("path: name[i]", entry)`` for a JSON array that must hold objects only."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: {name}[{i}] is not an object")
        yield f"{path}: {name}[{i}]", entry


def load_coco_captions(path: str | Path) -> list[CaptionRecord]:
    """Read a COCO caption-annotation JSON into caption records.

    One record per entry of the top-level ``annotations`` array, in file
    order; the returned count always equals the array length.
    """
    data = load_json(path)
    annotations = data.get("annotations")
    if not isinstance(annotations, list):
        raise InputError(f"{path}: missing top-level 'annotations' array")

    records: list[CaptionRecord] = []
    seen_ids: set[int] = set()
    for where, entry in _objects(path, annotations, "annotations"):
        caption_id = read_field(entry, "id", where, int)
        image_id = read_field(entry, "image_id", where, int)
        text = utf8_text(read_field(entry, "caption", where), where, "'caption'")
        if not text.strip():
            raise InputError(f"{where}: empty caption")
        if caption_id in seen_ids:
            raise InputError(f"{where}: reuses caption id {caption_id}")
        seen_ids.add(caption_id)
        records.append(CaptionRecord(caption_id=caption_id, image_id=image_id, text=text))
    return records


def load_object_annotations(instances_path: str | Path, vocabulary: Iterable[str]) -> list[ObjectAnnotation]:
    """Read a COCO instance-annotation JSON into per-image category sets.

    Positives are the categories with at least one instance annotation,
    restricted to the given vocabulary; negatives are the rest of the
    vocabulary. Images listed in the file but without annotations get empty
    positives. Images come in the order of the ``images`` array, then in the
    order annotations first name the rest.
    """
    vocab_set = set(vocabulary)
    data = load_json(instances_path)
    categories = data.get("categories")
    annotations = data.get("annotations")
    images = data.get("images", [])
    if not isinstance(categories, list) or not isinstance(annotations, list):
        raise InputError(
            f"{instances_path}: expected top-level 'categories' and 'annotations' arrays"
        )
    if not isinstance(images, list):
        raise InputError(f"{instances_path}: expected 'images' to be an array")

    id_to_name: dict[int, str] = {}
    for where, cat in _objects(instances_path, categories, "categories"):
        category_id = read_field(cat, "id", where, int)
        if category_id in id_to_name:
            raise InputError(f"{where}: repeated id {category_id}")
        id_to_name[category_id] = read_field(cat, "name", where)

    positives: dict[int, set[str]] = {}
    for where, img in _objects(instances_path, images, "images"):
        positives.setdefault(read_field(img, "id", where, int), set())
    for where, ann in _objects(instances_path, annotations, "annotations"):
        category_id = read_field(ann, "category_id", where, int)
        if category_id not in id_to_name:
            raise InputError(f"{where}: unknown category_id {category_id}")
        found = positives.setdefault(read_field(ann, "image_id", where, int), set())
        name = id_to_name[category_id]
        if name in vocab_set:
            found.add(name)

    return [
        ObjectAnnotation(
            image_id=image_id,
            positive_categories=frozenset(found),
            negative_categories=frozenset(vocab_set - found),
        )
        for image_id, found in positives.items()
    ]


# What JSONEncoder(ensure_ascii=False) calls for a str (the C string encoder) and for an int.
_quote, _int = json.encoder.encode_basestring, int.__repr__
# How every line that record_to_line writes starts.
_RECORD_START = b'{"image_id": '


def record_to_line(record: InstructionRecord) -> str:
    # The bytes of JSONEncoder(ensure_ascii=False).encode over nested dicts in
    # this key order, which defines the on-disk schema; do not reorder. The
    # line is built directly, with the encoder's own string and int writers.
    prov = record.provenance
    return (
        f'{{"image_id": {_int(record.image_id)}, "question": {_quote(record.question)}, '
        f'"answer": {_quote(record.answer)}, '
        f'"source_caption_ids": [{", ".join(map(_int, record.source_caption_ids))}], '
        f'"provenance": {{"model_id": {_quote(prov.model_id)}, "prompt_version": {_quote(prov.prompt_version)}, '
        f'"attempt": {_int(prov.attempt)}, "created_at": {_quote(prov.created_at.isoformat())}}}}}'
    )


def _record_from_dict(obj: dict, where: str) -> InstructionRecord:
    prov = read_field(obj, "provenance", where, dict)
    sources = read_field(obj, "source_caption_ids", where, list)
    in_prov = f"{where}: provenance"
    try:
        created_at = datetime.fromisoformat(read_field(prov, "created_at", in_prov))
    except ValueError as exc:
        raise InputError(f"{in_prov}: bad 'created_at' ({exc})") from exc
    if created_at.tzinfo is None:
        created_at = created_at.replace(tzinfo=timezone.utc)
    record = InstructionRecord(
        image_id=read_field(obj, "image_id", where, int),
        question=read_field(obj, "question", where),
        answer=read_field(obj, "answer", where),
        source_caption_ids=tuple(
            c if type(c) is int else as_kind(c, int, where, f"'source_caption_ids'[{j}]") for j, c in enumerate(sources)
        ),
        provenance=Provenance(
            model_id=read_field(prov, "model_id", in_prov),
            prompt_version=read_field(prov, "prompt_version", in_prov),
            attempt=read_field(prov, "attempt", in_prov, int),
            created_at=created_at,
        ),
    )
    if not record.question.strip() or not record.answer.strip():
        raise InputError(f"{where}: question and answer must be non-empty")
    return record


def write_instructions(path: str | Path, records: Iterable[InstructionRecord]) -> int:
    """Write records as JSONL; returns the number of lines written."""
    count = 0
    with _open_output(path) as fh:
        for count, record in enumerate(records, start=1):
            fh.write(record_to_line(record) + "\n")
    return count


def iter_instructions(path: str | Path) -> Iterator[InstructionRecord]:
    """Yield the records of a file :func:`write_instructions` wrote, each validated as it is read."""
    return (_record_from_dict(obj, where) for where, obj in iter_jsonl(path))


def read_instructions(path: str | Path) -> list[InstructionRecord]:
    """Inverse of :func:`write_instructions`."""
    return list(iter_instructions(path))


def _check_recipe(path: str | Path, recipe: tuple[str, str]) -> None:
    """Raise an :class:`InputError` at the first record of ``path`` not made by ``recipe``, ``(model_id, prompt_version)``; cut nothing."""
    with _open_input(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                provenance = json.loads(line)["provenance"]
                made = (provenance["model_id"], provenance["prompt_version"])
            except (ValueError, TypeError, KeyError):  # a torn line or no record: left to the resume read
                continue
            if made != recipe:
                raise InputError(f"{path}:{line_no}: record made with (model_id, prompt_version) {made!r}, but this run's are {recipe!r}; resume continues one recipe only, so pass --no-resume or a new --out")


def drop_torn_tail(path: str | Path) -> None:
    """Cut an unterminated last line, the trace of a run killed mid-write, off ``path``.

    Resume counts a caption as covered once any of its lines survives, and a
    torn line rarely shows its caption id, which follows the text. So the
    group of complete lines just before it that share one
    ``source_caption_ids`` goes too. That group is the start of the torn
    line's caption or the whole caption before it, so resume regenerates the
    torn caption whole, and at most one finished caption with it. A line
    that is not a record ends a group, is never cut, and fails the resume
    scan. An unterminated last line that :func:`record_to_line` cannot have
    begun is no torn record: it is an :class:`InputError`, and nothing is cut.
    """
    with _open_output(path, "rb+") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) in (b"", b"\n"):
            return
        fh.seek(0)
        group_start = group_ids = None
        group_lines = pos = 0
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                ids = json.loads(line)["source_caption_ids"]
            except (ValueError, TypeError, KeyError):
                ids = None
            if ids is None or ids != group_ids:
                group_start, group_ids, group_lines = pos, ids, 0
            group_lines += 1
            pos += len(line)
        if not (line.startswith(_RECORD_START) or _RECORD_START.startswith(line)):
            raise InputError(f"{path}: the unterminated last line is not a record that generate writes, so resume will not cut it")
        if group_ids is None:
            group_start, group_lines = pos, 0
        fh.truncate(group_start)
    whole_caption = f" and the {group_lines} line(s) of source_caption_ids {group_ids} before it" if group_lines else ""
    log.warning("resume: dropped an unterminated last line of %s (%d bytes)%s", path, len(line), whole_caption)


_NO_IMAGE = object()


def _stats(rows: Iterable[tuple]) -> DatasetStats:
    """One pass over ``(image, question, answer)`` rows; non-string text counts as empty."""
    n = answer_words = question_words = 0
    images: set = set()
    for image, question, answer in rows:
        n += 1
        images.add(image)
        if isinstance(question, str):
            question_words += len(question.split())
        if isinstance(answer, str):
            answer_words += len(answer.split())
    images.discard(_NO_IMAGE)
    if n == 0:
        return DatasetStats(0, 0, 0.0, 0.0)
    return DatasetStats(n, len(images), answer_words / n, question_words / n)


def dataset_stats(records: Iterable[InstructionRecord]) -> DatasetStats:
    """Counts and whitespace-token word averages; zeros for empty input."""
    return _stats((r.image_id, r.question, r.answer) for r in records)


def scan_jsonl_stats(path: str | Path) -> DatasetStats:
    """Tolerant stats over arbitrary QA-style JSONL.

    Accepts records from other toolchains: any of the keys ``image_id``,
    ``image`` or ``img_id`` identifies the image (any value but a list or an
    object); ``question``/``answer`` fields feed the word averages when
    present (otherwise they count as empty). Useful to sanity-check
    externally published datasets.
    """
    rows = iter_jsonl(path)
    return _stats((_lenient_image(obj, where), obj.get("question", ""), obj.get("answer", "")) for where, obj in rows)


def _lenient_image(obj: dict, where: str):
    """The first image key's value, as is unless it is a list or an object, which cannot be counted."""
    key = next((key for key in IMAGE_KEYS if key in obj), None)
    if key is None:
        return _NO_IMAGE
    image = obj[key]
    if type(image) in (list, dict):
        shown = json.dumps(image, ensure_ascii=False)
        raise InputError(f"{where}: {key!r} must not be a list or an object, got {shown}")
    return image
