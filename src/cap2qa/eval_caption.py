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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyCorpusError
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


def _ngram_counts(tokens: list[str], max_n: int) -> Counter:
    counts: Counter = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def bleu(eval_set: CaptionEvalSet, max_n: int = NGRAM_ORDERS) -> list[float]:
    """Corpus-level BLEU-1..max_n.

    An order with zero pooled overlap (or no candidate n-grams at all)
    scores exactly 0 for that order and above; no smoothing is applied.
    """
    if not eval_set.items:
        raise EmptyCorpusError("BLEU needs at least one item")

    correct = [0] * max_n
    guess = [0] * max_n
    candidate_len = 0
    reference_len = 0
    for item in eval_set.items:
        cand = tokenize(item.candidate)
        refs = [tokenize(r) for r in item.references]
        candidate_len += len(cand)
        # Closest reference length; ties go to the shorter reference.
        reference_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        cand_counts = _ngram_counts(cand, max_n)
        max_ref_counts: Counter = Counter()
        for ref in refs:
            for ngram, count in _ngram_counts(ref, max_n).items():
                max_ref_counts[ngram] = max(max_ref_counts[ngram], count)
        for n in range(1, max_n + 1):
            guess[n - 1] += max(0, len(cand) - n + 1)
        for ngram, count in cand_counts.items():
            correct[len(ngram) - 1] += min(count, max_ref_counts.get(ngram, 0))

    if candidate_len > 0 and candidate_len < reference_len:
        brevity_penalty = math.exp(1.0 - reference_len / candidate_len)
    else:
        brevity_penalty = 1.0

    precisions = [correct[n] / guess[n] if guess[n] > 0 else 0.0 for n in range(max_n)]
    scores: list[float] = []
    for k in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:k]) / k
        scores.append(brevity_penalty * math.exp(log_mean))
    return scores


def _stemmed_ngram_counts(text: str, max_n: int) -> Counter:
    return _ngram_counts([_stem_cached(t) for t in tokenize(text)], max_n)


def _tfidf_vector(counts: Counter, doc_freq: Counter, log_corpus_size: float, max_n: int):
    """Per-order sparse TF-IDF vectors, their norms, and the token length."""
    vec: list[dict] = [defaultdict(float) for _ in range(max_n)]
    norm = [0.0] * max_n
    length = 0
    for ngram, term_freq in counts.items():
        idf = log_corpus_size - math.log(max(1.0, doc_freq[ngram]))
        n = len(ngram) - 1
        vec[n][ngram] = term_freq * idf
        norm[n] += vec[n][ngram] ** 2
        if n == 0:
            length += term_freq
    return vec, [math.sqrt(x) for x in norm], length


def _cosine(vec_a, vec_b, norm_a, norm_b, delta: float, cider_d: bool, max_n: int) -> list[float]:
    sims = [0.0] * max_n
    for n in range(max_n):
        dot = 0.0
        for ngram, weight in vec_a[n].items():
            other = vec_b[n].get(ngram, 0.0)
            if cider_d:
                dot += min(weight, other) * other
            else:
                dot += weight * other
        if norm_a[n] != 0.0 and norm_b[n] != 0.0:
            sims[n] = dot / (norm_a[n] * norm_b[n])
        if cider_d:
            sims[n] *= math.exp(-(delta**2) / (2 * CIDER_D_SIGMA**2))
    return sims


def cider_per_item(eval_set: CaptionEvalSet, *, cider_d: bool = False, max_n: int = NGRAM_ORDERS) -> list[float]:
    if not eval_set.items:
        raise EmptyCorpusError("CIDEr needs at least one item")
    if len(eval_set.items) == 1:
        warnings.warn("CIDEr over a single item: document frequency degenerates and the score is 0", stacklevel=2)

    cand_counts = [_stemmed_ngram_counts(item.candidate, max_n) for item in eval_set.items]
    ref_counts = [[_stemmed_ngram_counts(r, max_n) for r in item.references] for item in eval_set.items]

    # A document is one item's reference set.
    doc_freq: Counter = Counter()
    for refs in ref_counts:
        for ngram in {ngram for ref in refs for ngram in ref}:
            doc_freq[ngram] += 1
    log_corpus_size = math.log(len(eval_set.items))

    scores: list[float] = []
    for cand, refs in zip(cand_counts, ref_counts):
        cand_vec, cand_norm, cand_len = _tfidf_vector(cand, doc_freq, log_corpus_size, max_n)
        per_n_total = [0.0] * max_n
        for ref in refs:
            ref_vec, ref_norm, ref_len = _tfidf_vector(ref, doc_freq, log_corpus_size, max_n)
            sims = _cosine(cand_vec, ref_vec, cand_norm, ref_norm, float(cand_len - ref_len), cider_d, max_n)
            for n in range(max_n):
                per_n_total[n] += sims[n]
        mean_over_n = sum(total / len(refs) for total in per_n_total) / max_n
        scores.append(mean_over_n * CIDER_SCALE)
    return scores


def cider(eval_set: CaptionEvalSet, *, cider_d: bool = False) -> float:
    """Corpus CIDEr: mean of per-item scores."""
    scores = cider_per_item(eval_set, cider_d=cider_d)
    return sum(scores) / len(scores)

