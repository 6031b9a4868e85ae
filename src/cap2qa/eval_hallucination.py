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

from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .corpus import ObjectAnnotation, read_text
from .errors import InputError
from .eval_caption import tokenize


def _surface_map(categories: list[tuple[str, str]], forms: list[tuple[str, str, str]]) -> dict[tuple, str]:
    """Check the vocabulary and map each form's tokens to its category; an item's ``where`` prefixes its errors."""
    seen = set()
    for where, category in categories:
        if category != category.lower() or not category.strip():
            raise InputError(f"{where}category names must be lowercase and non-empty: {category!r}")
        if category in seen:
            raise InputError(f"{where}duplicate category: {category!r}")
        seen.add(category)
    surface_map: dict[tuple, str] = {}
    for where, category, form in [(where, c, c) for where, c in categories] + forms:
        if category not in seen:
            raise InputError(f"{where}synonyms reference unknown category: {category!r}")
        tokens = tuple(tokenize(form))
        if not tokens:
            raise InputError(f"{where}empty surface form for category {category!r}")
        owner = surface_map.setdefault(tokens, category)
        if owner != category:
            shown = " ".join(tokens)
            raise InputError(f"{where}surface form {shown!r} maps to both {owner!r} and {category!r}")
    return surface_map


@dataclass(frozen=True)
class Lexicon:
    """Category vocabulary with surface-form synonyms.

    Every category name is itself a surface form. Surface forms are
    lowercase token sequences; no form may map to two categories.
    """

    categories: tuple[str, ...]
    synonyms: dict[str, frozenset] = field(default_factory=dict)
    # Surface forms with naive plurals folded in (raw last token, then +"s", then +"es"),
    # and for each first token the widths of its folded forms, widest first.
    folded: dict[tuple, str] = field(init=False, repr=False, compare=False)
    widths: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        surface_map = _surface_map(
            [("", category) for category in self.categories],
            [("", category, form) for category, forms in self.synonyms.items() for form in forms],
        )
        folded: dict[tuple, str] = {}
        for suffix in ("", "s", "es"):
            for tokens, category in surface_map.items():
                folded.setdefault(tokens[:-1] + (tokens[-1] + suffix,), category)
        widths: dict[str, set] = {}
        for key in folded:
            widths.setdefault(key[0], set()).add(len(key))
        object.__setattr__(self, "folded", folded)
        object.__setattr__(self, "widths", {t: tuple(sorted(w, reverse=True)) for t, w in widths.items()})


def extract_objects(text: str, lexicon: Lexicon) -> frozenset:
    """Categories mentioned in free text.

    At each token, tries the widest surface form starting there first; a
    match consumes its tokens. The last token of a form also matches with
    "s" or "es" appended (naive plurals).
    """
    tokens = tokenize(text)
    folded, widths = lexicon.folded, lexicon.widths
    found = set()
    i = 0
    while i < len(tokens):
        step = 1
        for width in widths.get(tokens[i], ()):
            if i + width <= len(tokens) and (hit := folded.get(tuple(tokens[i : i + width]))) is not None:
                found.add(hit)
                step = width
                break
        i += step
    return frozenset(found)


def build_lexicon(categories_path: str, synonyms_path: str | None = None) -> Lexicon:
    """Load a lexicon from flat files.

    ``categories_path``: one category per line. ``synonyms_path``:
    comma-separated lines, first entry the category, the rest extra surface
    forms; a line with no extra form is ignored. Lines are lowercased; blank
    lines and ``#`` comments are skipped, and a category must remain. An
    error starts with the ``path:line:`` of the offending line.
    """

    def entries(path: str | None) -> list[tuple[str, str]]:
        text = read_text(path) if path is not None else ""
        lines = ((f"{path}:{line_no}: ", raw.strip().lower()) for line_no, raw in enumerate(text.splitlines(), start=1))
        return [(where, line) for where, line in lines if line and not line.startswith("#")]

    categories = entries(categories_path)
    if not categories:
        raise InputError(f"{categories_path}: no categories")
    forms = []
    for where, line in entries(synonyms_path):
        parts = [p.strip() for p in line.split(",") if p.strip()]
        forms += [(where, parts[0], form) for form in parts[1:]]
    _surface_map(categories, forms)  # Lexicon checks again, but cannot name the line
    synonyms: dict[str, frozenset] = {}
    for _, category, form in forms:
        synonyms[category] = synonyms.get(category, frozenset()) | {form}
    return Lexicon(categories=tuple(category for _, category in categories), synonyms=synonyms)


def default_lexicon() -> Lexicon:
    data = resources.files("cap2qa.data")
    return build_lexicon(str(data / "coco_categories.txt"), str(data / "coco_synonyms.txt"))


@dataclass(frozen=True, slots=True)
class AnswerRecord:
    image_id: int
    text: str


@dataclass(frozen=True)
class ChairResult:
    chair_s: float
    recall: float
    recall_without_hallucination: float
    n_answers: int
    n_hallucinating: int
    # The report's rows: {"image_id", "mentioned", "hallucinated", "true_positives"}, each object list sorted and shared by equal sets.
    per_answer: list[dict]


def chair_eval(
    answers: list[AnswerRecord],
    annotations: dict[int, ObjectAnnotation],
    lexicon: Lexicon,
) -> ChairResult:
    """Score a corpus of answers against per-image object ground truth.

    Zero denominators (no answers, or no present objects anywhere) yield
    0.0 for the affected rate rather than an error.
    """
    rows: list[dict] = []
    # Many answers share an object set, so each distinct set is sorted once and its list reused.
    names = cache(sorted)
    n_hallucinating = 0
    tp_total = 0
    tp_clean_total = 0
    positive_total = 0
    for answer in answers:
        annotation = annotations.get(answer.image_id)
        if annotation is None:
            raise InputError(f"no object annotation for image_id {answer.image_id}")
        mentioned = extract_objects(answer.text, lexicon)
        hallucinated = mentioned & annotation.negative_categories
        true_positives = mentioned & annotation.positive_categories
        rows.append(
            {
                "image_id": answer.image_id,
                "mentioned": names(mentioned),
                "hallucinated": names(hallucinated),
                "true_positives": names(true_positives),
            }
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
        per_answer=rows,
    )
