"""COCO-style annotation ingestion and the instruction-record dataset.

Input side: official COCO caption and instance JSON files. Output side: the
instruction dataset as JSONL, one record per line with a fixed key order
(``image_id``, ``question``, ``answer``, ``source_caption_ids``,
``provenance``) so files diff and hash cleanly.

This module also owns the package's file readers (:func:`load_json`,
:func:`iter_jsonl`, :func:`load_yaml`): every JSON, JSONL and YAML input goes
through one of them, so a missing or malformed file is always the same
one-line input error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import yaml

from .errors import (
    IoFailureError,
    MalformedJsonError,
    MalformedLineError,
    MissingFileError,
    SchemaViolationError,
    UnknownCategoryIdError,
)

if TYPE_CHECKING:
    from .eval_hallucination import Lexicon

SPLITS = ("train", "val")

# Field names that identify the image in evaluation and foreign QA JSONL.
IMAGE_KEYS = ("image_id", "image", "img_id")


@dataclass(frozen=True)
class CaptionRecord:
    """One human-written caption of one image."""

    caption_id: int
    image_id: int
    text: str
    split: str = "train"


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


def load_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingFileError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(path, exc.pos, exc.msg) from exc
    if not isinstance(data, dict):
        raise SchemaViolationError(f"{path}: expected a JSON object at the top level")
    return data


def iter_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:line", object)`` for each non-blank line of a JSONL file.

    Every line must hold one JSON object; anything else raises
    :class:`MalformedLineError` naming the line.
    """
    if not Path(path).exists():
        raise MissingFileError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, line_no, exc.msg) from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(path, line_no, "expected a JSON object")
            yield f"{path}:{line_no}", obj


def load_yaml(path: str | Path):
    """Parse a YAML file; a syntax error becomes a one-line input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc
    except yaml.YAMLError as exc:
        # PyYAML messages span several lines (context, snippet, caret).
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise SchemaViolationError(f"{path}: malformed YAML{where}: {problem}") from exc


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file; a missing file is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc


def _objects(path: str | Path, entries: list, name: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(index, entry)`` for a JSON array that must hold objects only."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"{path}: {name}[{i}] is not an object")
        yield i, entry


def load_coco_captions(path: str | Path, split: str = "train") -> list[CaptionRecord]:
    """Read a COCO caption-annotation JSON into caption records.

    One record per entry of the top-level ``annotations`` array, in file
    order; the returned count always equals the array length.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    data = load_json(path)
    annotations = data.get("annotations")
    if not isinstance(annotations, list):
        raise SchemaViolationError(f"{path}: missing top-level 'annotations' array")

    records: list[CaptionRecord] = []
    seen_ids: set[int] = set()
    for i, entry in _objects(path, annotations, "annotations"):
        for field in ("id", "image_id", "caption"):
            if field not in entry:
                raise SchemaViolationError(f"{path}: annotation {i} missing field {field!r}")
        text = entry["caption"]
        if not isinstance(text, str) or not text.strip():
            raise SchemaViolationError(f"{path}: annotation {i} has an empty caption")
        caption_id = int(entry["id"])
        if caption_id in seen_ids:
            raise SchemaViolationError(f"{path}: annotation {i} reuses caption id {caption_id}")
        seen_ids.add(caption_id)
        records.append(
            CaptionRecord(
                caption_id=caption_id,
                image_id=int(entry["image_id"]),
                text=text,
                split=split,
            )
        )
    return records


def load_object_annotations(
    instances_path: str | Path, vocabulary: "Lexicon | Iterable[str]"
) -> list[ObjectAnnotation]:
    """Read a COCO instance-annotation JSON into per-image category sets.

    Positives are the categories with at least one instance annotation,
    restricted to the given vocabulary; negatives are the rest of the
    vocabulary. Images listed in the file but without annotations get empty
    positives.
    """
    names = getattr(vocabulary, "categories", vocabulary)
    vocab = list(dict.fromkeys(names))
    vocab_set = set(vocab)

    data = load_json(instances_path)
    categories = data.get("categories")
    annotations = data.get("annotations")
    images = data.get("images", [])
    if not isinstance(categories, list) or not isinstance(annotations, list):
        raise SchemaViolationError(
            f"{instances_path}: expected top-level 'categories' and 'annotations' arrays"
        )
    if not isinstance(images, list):
        raise SchemaViolationError(f"{instances_path}: expected 'images' to be an array")

    id_to_name: dict[int, str] = {}
    for i, cat in _objects(instances_path, categories, "categories"):
        if "id" not in cat or "name" not in cat:
            raise SchemaViolationError(f"{instances_path}: category {i} missing 'id' or 'name'")
        id_to_name[int(cat["id"])] = str(cat["name"])

    image_order: list[int] = []
    seen_images: set[int] = set()
    for _, img in _objects(instances_path, images, "images"):
        image_id = int(img["id"]) if "id" in img else None
        if image_id is None:
            raise SchemaViolationError(f"{instances_path}: image entry missing 'id'")
        if image_id not in seen_images:
            seen_images.add(image_id)
            image_order.append(image_id)

    positives: dict[int, set[str]] = {image_id: set() for image_id in image_order}
    for i, ann in _objects(instances_path, annotations, "annotations"):
        if "image_id" not in ann or "category_id" not in ann:
            raise SchemaViolationError(
                f"{instances_path}: annotation {i} missing 'image_id' or 'category_id'"
            )
        category_id = int(ann["category_id"])
        if category_id not in id_to_name:
            raise UnknownCategoryIdError(
                f"{instances_path}: annotation {i} has unknown category_id {category_id}"
            )
        image_id = int(ann["image_id"])
        if image_id not in seen_images:
            seen_images.add(image_id)
            image_order.append(image_id)
            positives[image_id] = set()
        name = id_to_name[category_id]
        if name in vocab_set:
            positives[image_id].add(name)

    return [
        ObjectAnnotation(
            image_id=image_id,
            positive_categories=frozenset(positives[image_id]),
            negative_categories=frozenset(vocab_set - positives[image_id]),
        )
        for image_id in image_order
    ]


def _record_to_dict(record: InstructionRecord) -> dict:
    # Key order here defines the on-disk schema; do not reorder.
    return {
        "image_id": record.image_id,
        "question": record.question,
        "answer": record.answer,
        "source_caption_ids": list(record.source_caption_ids),
        "provenance": {
            "model_id": record.provenance.model_id,
            "prompt_version": record.provenance.prompt_version,
            "attempt": record.provenance.attempt,
            "created_at": record.provenance.created_at.isoformat(),
        },
    }


def record_to_line(record: InstructionRecord) -> str:
    return json.dumps(_record_to_dict(record), ensure_ascii=False)


def _record_from_dict(obj: dict, where: str) -> InstructionRecord:
    try:
        prov = obj["provenance"]
        created_at = datetime.fromisoformat(prov["created_at"])
        if created_at.tzinfo is None:
            created_at = created_at.replace(tzinfo=timezone.utc)
        record = InstructionRecord(
            image_id=int(obj["image_id"]),
            question=str(obj["question"]),
            answer=str(obj["answer"]),
            source_caption_ids=tuple(int(c) for c in obj["source_caption_ids"]),
            provenance=Provenance(
                model_id=str(prov["model_id"]),
                prompt_version=str(prov["prompt_version"]),
                attempt=int(prov["attempt"]),
                created_at=created_at,
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(f"{where}: bad instruction record ({exc})") from exc
    if not record.question.strip() or not record.answer.strip():
        raise SchemaViolationError(f"{where}: question and answer must be non-empty")
    return record


def write_instructions(path: str | Path, records: Iterable[InstructionRecord]) -> int:
    """Write records as JSONL; returns the number of lines written."""
    path = Path(path)
    count = 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(record_to_line(record) + "\n")
                count += 1
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
    return count


def read_instructions(path: str | Path) -> list[InstructionRecord]:
    """Inverse of :func:`write_instructions`."""
    return [_record_from_dict(obj, where) for where, obj in iter_jsonl(path)]


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
    ``image`` or ``img_id`` identifies the image; ``question``/``answer``
    fields feed the word averages when present (otherwise they count as
    empty). Useful to sanity-check externally published datasets.
    """
    return _stats(
        (
            next((obj[key] for key in IMAGE_KEYS if key in obj), _NO_IMAGE),
            obj.get("question", ""),
            obj.get("answer", ""),
        )
        for _, obj in iter_jsonl(path)
    )
