"""Open-ended QA scoring with partial credit.

Each item carries up to several reference answers. A reference "matches"
either by containment in the prediction (after light normalization) or by
exact equality (after additionally dropping articles); an empty reference
only by equality. The item score is min(1, matches / 3) kept as an exact
rational; the strict variant counts exact equality only. Raw mode disables
all normalization.

Matching works on precomputed forms: one ``normalize`` call per string
gives both the light and the article-free form, and :func:`evaluate`
computes them once per distinct string in the batch (annotator answers
repeat heavily), in a memo that lives for that call only.
"""

from __future__ import annotations

import re
import string
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InputError

MATCH_CAP = 3
_ARTICLES = frozenset({"a", "an", "the"})
_WS = re.compile(r"\s+")
# Every item score is one of these: Fraction(k, MATCH_CAP) for capped counts k.
_GRID = tuple(Fraction(k, MATCH_CAP) for k in range(MATCH_CAP + 1))


def normalize(text: str) -> str:
    """Lowercase, strip token-edge punctuation, collapse whitespace."""
    return " ".join(filter(None, [token.strip(string.punctuation) for token in _WS.split(text.lower().strip())]))


def _forms(text: str) -> tuple[str, str]:
    """``(loose, exact)``: ``normalize(text)``, and that without the articles.

    The loose form's tokens hold no whitespace, so splitting it on spaces
    gives them back, and dropping the articles yields the exact form.
    """
    loose = normalize(text)
    return loose, " ".join(t for t in loose.split(" ") if t not in _ARTICLES)


def _raw_forms(text: str) -> tuple[str, str]:
    # Raw mode matches the text itself: the match rule below reduces to
    # ``ref in pred`` for a non-empty ref, else (or if strict) to ``==``.
    return text, text


def _match_count(prediction: str, references: Sequence[str], strict: bool, forms: Callable[[str], tuple[str, str]]) -> int:
    """References matching ``prediction``, capped at MATCH_CAP.

    A reference matches on equal exact forms or, unless ``strict``, when
    its loose form is not empty (``""`` occurs in every string) and occurs in
    the prediction's; partial credit is thus a superset of strict credit.
    """
    loose_pred, exact_pred = forms(prediction)
    matched = 0
    for reference in references:
        loose_ref, exact_ref = forms(reference)
        if exact_ref == exact_pred or (not strict and loose_ref and loose_ref in loose_pred):
            matched += 1
    return min(MATCH_CAP, matched)


def pacc_score(prediction: str, references: list[str] | tuple[str, ...], *, raw: bool = False) -> Fraction:
    return _GRID[_match_count(prediction, references, False, _raw_forms if raw else _forms)]


def acc_score(prediction: str, references: list[str] | tuple[str, ...], *, raw: bool = False) -> Fraction:
    return _GRID[_match_count(prediction, references, True, _raw_forms if raw else _forms)]


@dataclass(frozen=True)
class VqaResult:
    mean_score: Fraction
    per_item: dict[str, Fraction]


def evaluate(predictions: Mapping[str, str], references: Mapping[str, Sequence[str]], *, strict: bool = False, raw: bool = False) -> VqaResult:
    """Score each prediction against its id's references; ``per_item`` keeps ``predictions`` order.

    ``strict=False`` gives partial credit by containment, ``strict=True``
    is exact-equality accuracy; the mean is an exact rational, 0 for no
    predictions. An id with missing or empty references is an :class:`InputError`.
    """
    forms = _raw_forms if raw else cache(_forms)
    per_item: dict[str, Fraction] = {}
    total = 0
    for question_id, prediction in predictions.items():
        refs = references.get(question_id)
        if not refs:
            raise InputError(f"question {question_id!r} has no references")
        matched = _match_count(prediction, refs, strict, forms)
        total += matched
        per_item[question_id] = _GRID[matched]
    # The mean of the k_i / MATCH_CAP, as one rational instead of a Fraction sum.
    mean = Fraction(total, MATCH_CAP * len(per_item)) if per_item else Fraction(0)
    return VqaResult(mean_score=mean, per_item=per_item)
