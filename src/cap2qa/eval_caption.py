"""Expressiveness metrics: corpus BLEU-1..4 and CIDEr.

Tokenization is lowercase with splits on non-alphanumeric runs. BLEU uses
modified n-gram precision with per-reference clipping, pooled over the
corpus, a geometric mean up to each order, and the closest-reference-length
brevity penalty. CIDEr builds TF-IDF vectors over Porter-stemmed n-grams
(n = 1..4) with document frequencies taken from this corpus's reference
sets; the per-item score is the mean over n of the average cosine similarity
to each reference, scaled by 10. The CIDEr-D variant (clipped numerator plus
a Gaussian length penalty) is available behind a flag but off by default.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .porter import stem

_TOKEN = re.compile(r"[a-z0-9]+")

NGRAM_ORDERS = 4
CIDER_SCALE = 10.0
CIDER_D_SIGMA = 6.0


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


@lru_cache(maxsize=65536)
def _stem_cached(token: str) -> str:
    return stem(token)


@dataclass(frozen=True)
class CaptionItem:
    image_id: int
    candidate: str
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references:
            raise ValueError(f"item {self.image_id}: references must be non-empty")


@dataclass
class CaptionEvalSet:
    items: list[CaptionItem]


def _ngram_counts(tokens: list[str]) -> Counter:
    """Counts of every n-gram, n = 1..NGRAM_ORDERS, keyed by order then first position."""
    counts: Counter = Counter()
    for n in range(1, NGRAM_ORDERS + 1):
        counts.update(zip(*[tokens[i:] for i in range(n)]))
    return counts


def bleu(eval_set: CaptionEvalSet) -> list[float]:
    """Corpus-level BLEU-1..4.

    An order with zero pooled overlap (or no candidate n-grams at all)
    scores exactly 0 for that order and above; no smoothing is applied.
    """
    if not eval_set.items:
        raise InputError("BLEU needs at least one item")

    correct = [0] * NGRAM_ORDERS
    guess = [0] * NGRAM_ORDERS
    candidate_len = 0
    reference_len = 0
    for item in eval_set.items:
        cand = tokenize(item.candidate)
        refs = [tokenize(r) for r in item.references]
        candidate_len += len(cand)
        # Closest reference length; ties go to the shorter reference.
        reference_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        # Each candidate n-gram is clipped to its highest count in one reference.
        cand_counts = _ngram_counts(cand)
        clip = dict.fromkeys(cand_counts, 0)
        for ref in refs:
            ref_counts = _ngram_counts(ref)
            for ngram, best in clip.items():
                count = ref_counts.get(ngram, 0)
                if count > best:
                    clip[ngram] = count
        for n in range(1, NGRAM_ORDERS + 1):
            guess[n - 1] += max(0, len(cand) - n + 1)
        for ngram, count in cand_counts.items():
            correct[len(ngram) - 1] += min(count, clip[ngram])

    if candidate_len > 0 and candidate_len < reference_len:
        brevity_penalty = math.exp(1.0 - reference_len / candidate_len)
    else:
        brevity_penalty = 1.0

    precisions = [correct[n] / guess[n] if guess[n] > 0 else 0.0 for n in range(NGRAM_ORDERS)]
    scores: list[float] = []
    for k in range(1, NGRAM_ORDERS + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:k]) / k
        scores.append(brevity_penalty * math.exp(log_mean))
    return scores


def _stemmed_ngram_counts(text: str) -> tuple[Counter, int]:
    tokens = [_stem_cached(t) for t in tokenize(text)]
    return _ngram_counts(tokens), len(tokens)


def _tfidf(counts: Counter, idf: dict, log_corpus_size: float) -> tuple[dict, list[float]]:
    """One text's TF-IDF weights (one dict over all orders) and their per-order norms."""
    vec = {}
    norm = [0.0] * NGRAM_ORDERS
    for ngram, term_freq in counts.items():
        weight = vec[ngram] = term_freq * idf.get(ngram, log_corpus_size)
        norm[len(ngram) - 1] += weight**2
    return vec, [math.sqrt(x) for x in norm]


def cider_per_item(eval_set: CaptionEvalSet, *, cider_d: bool = False) -> list[float]:
    if not eval_set.items:
        raise InputError("CIDEr needs at least one item")
    if len(eval_set.items) == 1:
        warnings.warn("CIDEr over a single item: document frequency degenerates and the score is 0", stacklevel=2)

    cand_counts = [_stemmed_ngram_counts(item.candidate) for item in eval_set.items]
    ref_counts = [[_stemmed_ngram_counts(r) for r in item.references] for item in eval_set.items]

    # A document is one item's reference set; an n-gram in none of them gets log N.
    doc_freq: Counter = Counter()
    for refs in ref_counts:
        doc_freq.update(set().union(*(counts for counts, _ in refs)))
    log_corpus_size = math.log(len(eval_set.items))
    idf = {ngram: log_corpus_size - math.log(max(1, df)) for ngram, df in doc_freq.items()}

    scores: list[float] = []
    for (cand, cand_len), refs in zip(cand_counts, ref_counts):
        cand_vec, cand_norm = _tfidf(cand, idf, log_corpus_size)
        per_n_total = [0.0] * NGRAM_ORDERS
        for ref, ref_len in refs:
            ref_vec, ref_norm = _tfidf(ref, idf, log_corpus_size)
            # An n-gram the reference lacks adds 0.0 to the dot product, so it is skipped.
            dot = [0.0] * NGRAM_ORDERS
            if cider_d:
                for ngram, weight in cand_vec.items():
                    if ngram in ref_vec:
                        other = ref_vec[ngram]
                        dot[len(ngram) - 1] += min(weight, other) * other
                penalty = math.exp(-(float(cand_len - ref_len) ** 2) / (2 * CIDER_D_SIGMA**2))
            else:
                for ngram, weight in cand_vec.items():
                    if ngram in ref_vec:
                        dot[len(ngram) - 1] += weight * ref_vec[ngram]
                penalty = 1.0
            for n in range(NGRAM_ORDERS):
                if cand_norm[n] != 0.0 and ref_norm[n] != 0.0:
                    per_n_total[n] += dot[n] / (cand_norm[n] * ref_norm[n]) * penalty
        mean_over_n = sum(total / len(refs) for total in per_n_total) / NGRAM_ORDERS
        scores.append(mean_over_n * CIDER_SCALE)
    return scores


def cider(eval_set: CaptionEvalSet, *, cider_d: bool = False) -> float:
    """Corpus CIDEr: mean of per-item scores."""
    scores = cider_per_item(eval_set, cider_d=cider_d)
    return sum(scores) / len(scores)

