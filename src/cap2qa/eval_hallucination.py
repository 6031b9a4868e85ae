"""Sentence-level object hallucination metrics.

An answer "mentions" a category when any of the category's surface forms
occurs in the text; matching is case-insensitive, longest-surface-form
first, and tolerates naive plurals ("cakes" matches "cake"). An answer
hallucinates when it mentions a category absent from the image. Reported
per corpus:

- hallucination rate: fraction of answers mentioning at least one absent
  category,
- recall: total true-positive mentions over total present categories,
- recall without hallucination: same denominator, but answers that
  hallucinate contribute zero true positives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .corpus import ObjectAnnotation, read_text
from .errors import (
    DuplicateSurfaceFormError,
    MissingAnnotationError,
    UnknownCategoryError,
)

_TOKEN = re.compile(r"[a-z0-9]+")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _plural_variants(word: str) -> tuple[str, ...]:
    # Try the raw token, then naive singular forms.
    variants = [word]
    if word.endswith("s") and len(word) > 1:
        variants.append(word[:-1])
    if word.endswith("es") and len(word) > 2:
        variants.append(word[:-2])
    return tuple(variants)


@dataclass(frozen=True)
class Lexicon:
    """Category vocabulary with surface-form synonyms.

    Every category name is itself a surface form. Surface forms are
    lowercase token sequences; no form may map to two categories.
    """

    categories: tuple[str, ...]
    synonyms: dict[str, frozenset] = field(default_factory=dict)
    surface_to_category: dict[tuple, str] = field(init=False)
    max_window: int = field(init=False)

    def __post_init__(self):
        seen = set()
        for category in self.categories:
            if category != category.lower() or not category.strip():
                raise ValueError(f"category names must be lowercase and non-empty: {category!r}")
            if category in seen:
                raise ValueError(f"duplicate category: {category!r}")
            seen.add(category)
        for category in self.synonyms:
            if category not in seen:
                raise UnknownCategoryError(f"synonyms reference unknown category: {category!r}")

        surface_map: dict[tuple, str] = {}
        window = 1
        for category in self.categories:
            forms = {category} | set(self.synonyms.get(category, ()))
            for form in forms:
                tokens = tuple(_tokenize(form))
                if not tokens:
                    raise ValueError(f"empty surface form for category {category!r}")
                if tokens in surface_map and surface_map[tokens] != category:
                    raise DuplicateSurfaceFormError(
                        f"surface form {' '.join(tokens)!r} maps to both "
                        f"{surface_map[tokens]!r} and {category!r}"
                    )
                surface_map[tokens] = category
                window = max(window, len(tokens))
        object.__setattr__(self, "surface_to_category", surface_map)
        object.__setattr__(self, "max_window", window)

    def category_of(self, surface: str) -> str | None:
        return self.surface_to_category.get(tuple(_tokenize(surface)))


def extract_objects(text: str, lexicon: Lexicon) -> frozenset:
    """Categories mentioned in free text.

    Slides a window over the token stream trying the widest surface form
    first; a match consumes its tokens. The last token of each window also
    matches through naive plural stripping.
    """
    tokens = _tokenize(text)
    found = set()
    i = 0
    while i < len(tokens):
        matched_width = 0
        for width in range(min(lexicon.max_window, len(tokens) - i), 0, -1):
            window = tokens[i : i + width]
            hit = None
            for variant in _plural_variants(window[-1]):
                candidate = tuple(window[:-1]) + (variant,)
                if candidate in lexicon.surface_to_category:
                    hit = lexicon.surface_to_category[candidate]
                    break
            if hit is not None:
                found.add(hit)
                matched_width = width
                break
        i += matched_width if matched_width else 1
    return frozenset(found)


def _parse_lexicon(categories_text: str, synonyms_text: str = "") -> Lexicon:
    """Build a lexicon from the text of a category file and of a synonym file.

    Lines are lowercased; blank lines and ``#`` comments are skipped. A
    synonym line is comma-separated: the category, then extra surface forms;
    a line with no extra form is ignored.
    """

    def entries(text: str) -> list[str]:
        stripped = (raw.strip() for raw in text.splitlines())
        return [line.lower() for line in stripped if line and not line.startswith("#")]

    synonyms: dict[str, frozenset] = {}
    for line in entries(synonyms_text):
        parts = [p.strip() for p in line.split(",") if p.strip()]
        if len(parts) >= 2:
            synonyms[parts[0]] = synonyms.get(parts[0], frozenset()) | frozenset(parts[1:])
    return Lexicon(categories=tuple(entries(categories_text)), synonyms=synonyms)


def build_lexicon(categories_path: str, synonyms_path: str | None = None) -> Lexicon:
    """Load a lexicon from flat files.

    ``categories_path``: one category per line. ``synonyms_path``:
    comma-separated lines, first entry the category, the rest extra
    surface forms.
    """
    synonyms = read_text(synonyms_path) if synonyms_path is not None else ""
    return _parse_lexicon(read_text(categories_path), synonyms)


def default_lexicon() -> Lexicon:
    data = resources.files("cap2qa.data")
    return _parse_lexicon(
        (data / "coco_categories.txt").read_text(encoding="utf-8"),
        (data / "coco_synonyms.txt").read_text(encoding="utf-8"),
    )


@dataclass(frozen=True)
class AnswerRecord:
    image_id: int
    text: str


@dataclass(frozen=True)
class AnswerBreakdown:
    image_id: int
    mentioned: frozenset
    hallucinated: frozenset
    true_positives: frozenset


@dataclass(frozen=True)
class ChairResult:
    chair_s: float
    recall: float
    recall_without_hallucination: float
    n_answers: int
    n_hallucinating: int
    per_answer: tuple[AnswerBreakdown, ...]


def chair_eval(
    answers: list[AnswerRecord],
    annotations: dict[int, ObjectAnnotation],
    lexicon: Lexicon,
) -> ChairResult:
    """Score a corpus of answers against per-image object ground truth.

    Zero denominators (no answers, or no present objects anywhere) yield
    0.0 for the affected rate rather than an error.
    """
    breakdowns: list[AnswerBreakdown] = []
    n_hallucinating = 0
    tp_total = 0
    tp_clean_total = 0
    positive_total = 0
    for answer in answers:
        annotation = annotations.get(answer.image_id)
        if annotation is None:
            raise MissingAnnotationError(answer.image_id)
        mentioned = extract_objects(answer.text, lexicon)
        hallucinated = mentioned & annotation.negative_categories
        true_positives = mentioned & annotation.positive_categories
        breakdowns.append(
            AnswerBreakdown(
                image_id=answer.image_id,
                mentioned=mentioned,
                hallucinated=hallucinated,
                true_positives=true_positives,
            )
        )
        positive_total += len(annotation.positive_categories)
        tp_total += len(true_positives)
        if hallucinated:
            n_hallucinating += 1
        else:
            tp_clean_total += len(true_positives)

    n_answers = len(answers)
    chair_s = n_hallucinating / n_answers if n_answers else 0.0
    recall = tp_total / positive_total if positive_total else 0.0
    recall_wo_h = tp_clean_total / positive_total if positive_total else 0.0
    return ChairResult(
        chair_s=chair_s,
        recall=recall,
        recall_without_hallucination=recall_wo_h,
        n_answers=n_answers,
        n_hallucinating=n_hallucinating,
        per_answer=tuple(breakdowns),
    )
