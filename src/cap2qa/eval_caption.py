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

import logging
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

from .errors import InputError
from .porter import stem

# The package logger, not this module's: the one-item note reads like the CLI's own warnings.
log = logging.getLogger("cap2qa")

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


def _ngrams(t: tuple[str, ...]):
    """Every n-gram, n = 1..4 (NGRAM_ORDERS), by order then first position."""
    return chain(zip(t), zip(t, t[1:]), zip(t, t[1:], t[2:]), zip(t, t[1:], t[2:], t[3:]))


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
        cand = tuple(tokenize(item.candidate))
        # A repeated reference changes neither the closest length nor any clip, so each token sequence is used once.
        refs = list(dict.fromkeys(tuple(tokenize(r)) for r in item.references))
        candidate_len += len(cand)
        # Closest reference length; ties go to the shorter reference.
        reference_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        for n in range(NGRAM_ORDERS):
            guess[n] += max(0, len(cand) - n)
        # Each candidate n-gram is clipped to its highest count in one reference; one in no reference adds 0.
        cand_counts = Counter(_ngrams(cand))
        ref_ngrams = [list(_ngrams(r)) for r in refs]
        for ngram in set().union(*ref_ngrams).intersection(cand_counts):
            count = cand_counts[ngram]
            if count > 1:
                count = min(count, max(r.count(ngram) for r in ref_ngrams))
            correct[len(ngram) - 1] += count

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


def cider_per_item(eval_set: CaptionEvalSet, *, cider_d: bool = False) -> list[float]:
    if not eval_set.items:
        raise InputError("CIDEr needs at least one item")
    if len(eval_set.items) == 1:
        log.warning("CIDEr over a single item: document frequency degenerates and the score is 0")

    # Each distinct text is stemmed once, and each distinct stemmed sequence keeps its n-gram ids,
    # in n-gram order: texts that differ only in case or punctuation share one tuple. The ids are
    # numbered in first-seen order within this call, so each distinct n-gram is stored once.
    ids = defaultdict(count().__next__)
    stemmed: dict[str, tuple[str, ...]] = {}
    id_tuples: dict[tuple[str, ...], tuple[int, ...]] = {}
    for item in eval_set.items:
        for text in (item.candidate, *item.references):
            if text not in stemmed:
                tokens = stemmed[text] = tuple(map(_stem_cached, tokenize(text)))
                if tokens not in id_tuples:
                    id_tuples[tokens] = tuple(map(ids.__getitem__, _ngrams(tokens)))
    # Each id's order, n - 1; the n-gram tuples are not needed past here.
    order = [len(ngram) - 1 for ngram in ids]
    del ids

    # A document is one item's reference set; an n-gram in none of them takes df 1, so its idf is log N.
    ref_sets = (set().union(*(id_tuples[stemmed[r]] for r in item.references)) for item in eval_set.items)
    doc_freq = Counter(chain.from_iterable(ref_sets))
    log_corpus_size = math.log(len(eval_set.items))
    idf = [log_corpus_size - math.log(doc_freq.get(i, 1)) for i in range(len(order))]
    del doc_freq

    # A text's counts, length and per-order TF-IDF norms are made while its item is scored:
    # counts held for every text at once would be most of the call's memory.
    def weighed(text):
        tokens = stemmed[text]
        counts = Counter(id_tuples[tokens])
        norm = [0.0] * NGRAM_ORDERS
        for i, term_freq in counts.items():
            norm[order[i]] += (term_freq * idf[i]) ** 2
        return counts, len(tokens), [math.sqrt(x) for x in norm]

    scores: list[float] = []
    for item in eval_set.items:
        cand, cand_len, cand_norm = weighed(item.candidate)
        cand_vec = [(i, term_freq * idf[i]) for i, term_freq in cand.items()]
        per_n_total = [0.0] * NGRAM_ORDERS
        for ref_text in item.references:
            ref, ref_len, ref_norm = weighed(ref_text)
            ref_get = ref.get
            # An n-gram the reference lacks adds 0.0 to the dot product, so it is skipped.
            # CIDEr-D clips the candidate's weight at the reference's.
            dot = [0.0] * NGRAM_ORDERS
            for i, weight in cand_vec:
                term_freq = ref_get(i)
                if term_freq is not None:
                    other = term_freq * idf[i]
                    dot[order[i]] += (min(weight, other) if cider_d else weight) * other
            penalty = math.exp(-(float(cand_len - ref_len) ** 2) / (2 * CIDER_D_SIGMA**2)) if cider_d else 1.0
            for n in range(NGRAM_ORDERS):
                if cand_norm[n] != 0.0 and ref_norm[n] != 0.0:
                    per_n_total[n] += dot[n] / (cand_norm[n] * ref_norm[n]) * penalty
        mean_over_n = sum(total / len(item.references) for total in per_n_total) / NGRAM_ORDERS
        scores.append(mean_over_n * CIDER_SCALE)
    return scores


def cider(eval_set: CaptionEvalSet, *, cider_d: bool = False) -> float:
    """Corpus CIDEr: mean of per-item scores."""
    scores = cider_per_item(eval_set, cider_d=cider_d)
    return sum(scores) / len(scores)

