import logging
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cap2qa
from cap2qa.errors import InputError
from cap2qa.eval_caption import (
    CaptionEvalSet,
    CaptionItem,
    bleu,
    cider,
    cider_per_item,
    tokenize,
)
from cap2qa.porter import stem


def corpus(*pairs):
    return CaptionEvalSet(
        [CaptionItem(i, cand, tuple(refs)) for i, (cand, refs) in enumerate(pairs)]
    )


class TestTokenize:
    def test_lowercase_alnum_runs(self):
        assert tokenize("A cat, 2 dogs!") == ["a", "cat", "2", "dogs"]

    def test_empty(self):
        assert tokenize("...") == []

    def test_regex_not_ptb_splits_contractions(self):
        # The PTB tokenizer of coco-caption keeps "n't" and "'s" as tokens; this regex drops the apostrophe.
        assert tokenize("The man's dog isn't here.") == ["the", "man", "s", "dog", "isn", "t", "here"]


class TestBleu:
    def test_identity_is_all_ones(self):
        scores = bleu(
            corpus(
                ("a red bird sits on a branch", ["a red bird sits on a branch"]),
                ("two dogs run across the field", ["two dogs run across the field"]),
            )
        )
        assert scores == [1.0, 1.0, 1.0, 1.0]

    def test_repeated_token_clipped(self):
        scores = bleu(corpus(("the the the", ["the cat"])))
        assert scores[0] == pytest.approx(1 / 3)

    def test_per_reference_max_clipping(self):
        # "the" may count twice because one reference has it twice
        scores = bleu(corpus(("the the the cat", ["the cat", "the the dog"])))
        assert scores[0] == pytest.approx(3 / 4)

    def test_zero_precision_is_exact_zero(self):
        # no bigram overlap: orders 2..4 must be exactly 0, no smoothing
        scores = bleu(corpus(("cat dog", ["dog cat"])))
        assert scores[0] == 1.0
        assert scores[1:] == [0.0, 0.0, 0.0]

    def test_brevity_penalty_applied(self):
        scores = bleu(corpus(("the cat sat", ["the cat sat on the mat"])))
        bp = math.exp(1 - 6 / 3)
        assert scores[0] == pytest.approx(bp)
        assert scores[2] == pytest.approx(bp)

    def test_no_penalty_when_candidate_longer(self):
        scores = bleu(corpus(("the cat sat here now", ["the cat sat"])))
        assert scores[0] == pytest.approx(3 / 5)

    def test_closest_reference_tie_prefers_shorter(self):
        scores = bleu(
            corpus(("cat dog bird", ["cat dog", "cat dog bird fish"]))
        )
        # tie between lengths 2 and 4: length 2 wins, so no brevity penalty
        assert scores[0] == 1.0

    def test_multi_item_pooling(self):
        scores = bleu(
            corpus(
                ("the cat sat", ["the cat sat on the mat"]),
                ("a dog", ["a dog runs"]),
            )
        )
        bp = math.exp(1 - 9 / 5)
        assert scores[0] == pytest.approx(bp)
        assert scores[1] == pytest.approx(bp)
        assert scores[2] == pytest.approx(bp)
        assert scores[3] == 0.0

    def test_empty_corpus_raises(self):
        with pytest.raises(InputError, match="^BLEU needs at least one item$"):
            bleu(CaptionEvalSet([]))

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError):
            CaptionItem(1, "x", ())

    def test_monotone_under_positive_precisions(self):
        vocab = "cat dog bird fish mat sat run the a on".split()
        for seed in range(5):
            rng = random.Random(seed)
            items = []
            for i in range(8):
                ref = [rng.choice(vocab) for _ in range(rng.randint(6, 12))]
                cand = list(ref)
                # light corruption keeps overlap at every order
                if rng.random() < 0.5:
                    cand[rng.randrange(len(cand))] = rng.choice(vocab)
                items.append((" ".join(cand), [" ".join(ref)]))
            scores = bleu(corpus(*items))
            for lo, hi in zip(scores[1:], scores[:-1]):
                assert lo <= hi + 1e-12


def oracle_cider(items, max_n=4):
    """Independent TF-IDF reimplementation used as a test oracle."""

    stemmed = {text: [stem(t) for t in tokenize(text)] for cand, refs in items for text in (cand, *refs)}

    def grams(text, n):
        toks = stemmed[text]
        return [tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)]

    n_docs = len(items)
    doc_freqs = {}
    for n in range(1, max_n + 1):
        doc_freqs[n] = Counter()
        for _, refs in items:
            seen = set()
            for ref in refs:
                seen.update(grams(ref, n))
            doc_freqs[n].update(seen)

    scores = []
    for cand, refs in items:
        per_n = []
        for n in range(1, max_n + 1):
            doc_freq = doc_freqs[n]

            def weight_vector(text):
                counts = Counter(grams(text, n))
                return {
                    g: tf * (math.log(n_docs) - math.log(max(1, doc_freq[g])))
                    for g, tf in counts.items()
                }

            cand_vec = weight_vector(cand)
            cand_norm = math.sqrt(sum(w * w for w in cand_vec.values()))
            total = 0.0
            for ref in refs:
                ref_vec = weight_vector(ref)
                ref_norm = math.sqrt(sum(w * w for w in ref_vec.values()))
                dot = sum(w * ref_vec.get(g, 0.0) for g, w in cand_vec.items())
                if cand_norm > 0 and ref_norm > 0:
                    total += dot / (cand_norm * ref_norm)
            per_n.append(total / len(refs))
        scores.append(10.0 * sum(per_n) / max_n)
    return scores


class TestCider:
    def test_identity_distinct_items_maximal(self):
        scores = cider_per_item(
            corpus(
                ("a red bird sits on a branch", ["a red bird sits on a branch"]),
                ("two dogs run across the wide field", ["two dogs run across the wide field"]),
                ("a man rides a blue bicycle downtown", ["a man rides a blue bicycle downtown"]),
            )
        )
        for score in scores:
            assert score == pytest.approx(10.0)

    def test_stemming_unifies_inflections(self):
        scores = cider_per_item(
            corpus(
                ("running dogs", ["run dog"]),
                ("blue bird", ["blue bird"]),
            )
        )
        # unigram and bigram cosines are 1 after stemming; 3- and 4-grams absent
        assert scores[0] == pytest.approx(5.0)

    def test_duplicate_corpus_uniform(self):
        scores = cider_per_item(
            corpus(*[("a cat on a mat", ["a cat on a mat"])] * 4)
        )
        assert len(set(round(s, 12) for s in scores)) == 1

    def test_relabeling_invariance(self):
        items = [
            ("a cat sleeps on the warm mat", ["a cat naps on a mat", "the cat rests"]),
            ("a dog runs in the park", ["the dog sprints through a park"]),
            ("birds fly over the lake", ["a bird flies across the water"]),
        ]
        direct = cider_per_item(corpus(*items))
        rotated = cider_per_item(corpus(*(items[1:] + items[:1])))
        assert direct[0] == pytest.approx(rotated[-1])
        assert direct[1] == pytest.approx(rotated[0])

    def test_against_brute_force_oracle(self):
        items = [
            ("a cat sits on the mat", ["a cat sits on a mat", "the cat is on the mat"]),
            ("a dog runs fast", ["the dog runs", "a brown dog running quickly"]),
            ("two birds fly high over trees", ["birds flying over the tall trees"]),
        ]
        expected = oracle_cider(items)
        actual = cider_per_item(corpus(*items))
        for a, e in zip(actual, expected):
            assert a == pytest.approx(e, abs=1e-9)
        assert cider(corpus(*items)) == pytest.approx(sum(expected) / len(expected), abs=1e-9)

    def test_singleton_warns(self, caplog):
        caplog.set_level(logging.WARNING, logger="cap2qa")
        cider_per_item(corpus(("a cat", ["a cat"])))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("cap2qa", logging.WARNING, "CIDEr over a single item: document frequency degenerates and the score is 0")
        ]

    def test_empty_corpus_raises(self):
        with pytest.raises(InputError, match="^CIDEr needs at least one item$"):
            cider(CaptionEvalSet([]))


class TestCiderD:
    def test_identity_still_maximal(self):
        scores = cider_per_item(
            corpus(
                ("a red bird sits on a branch", ["a red bird sits on a branch"]),
                ("two dogs run across the field", ["two dogs run across the field"]),
            ),
            cider_d=True,
        )
        for score in scores:
            assert score == pytest.approx(10.0)

    def test_repetition_clipped_below_plain(self):
        items = (
            ("dog dog dog dog", ["dog"]),
            ("a cat sleeps", ["a cat sleeps"]),
        )
        plain = cider_per_item(corpus(*items))
        clipped = cider_per_item(corpus(*items), cider_d=True)
        assert clipped[0] < plain[0]

    def test_length_mismatch_penalized(self):
        items = (
            ("a cat", ["a cat sat on the mat near the door"]),
            ("a dog runs", ["a dog runs"]),
        )
        plain = cider_per_item(corpus(*items))
        penalized = cider_per_item(corpus(*items), cider_d=True)
        assert penalized[0] < plain[0]


def oracle_cider_d(items, max_n=4, sigma=6.0):
    """Independent CIDEr-D: clipped TF-IDF numerator and a Gaussian penalty on the token-length gap."""

    def tokens(text):
        return [stem(t) for t in tokenize(text)]

    def grams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    n_docs = len(items)
    doc_freq = Counter()
    for _, refs in items:
        doc_freq.update({g for ref in refs for n in range(1, max_n + 1) for g in grams(tokens(ref), n)})

    def weights(toks, n):
        vec = {g: tf * (math.log(n_docs) - math.log(max(1, doc_freq[g]))) for g, tf in grams(toks, n).items()}
        return vec, math.sqrt(sum(w * w for w in vec.values()))

    scores = []
    for cand, refs in items:
        cand_toks = tokens(cand)
        per_n = []
        for n in range(1, max_n + 1):
            cand_vec, cand_norm = weights(cand_toks, n)
            total = 0.0
            for ref in refs:
                ref_toks = tokens(ref)
                ref_vec, ref_norm = weights(ref_toks, n)
                dot = sum(min(w, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0) for g, w in cand_vec.items())
                if cand_norm > 0 and ref_norm > 0:
                    penalty = math.exp(-((len(cand_toks) - len(ref_toks)) ** 2) / (2 * sigma**2))
                    total += dot / (cand_norm * ref_norm) * penalty
            per_n.append(total / len(refs))
        scores.append(10.0 * sum(per_n) / max_n)
    return scores


def literal_bleu(items, max_n=4):
    """Corpus BLEU from its definition: per-order clipped counts pooled over items, no smoothing."""
    correct, guess = [0] * max_n, [0] * max_n
    cand_len = ref_len = 0
    for cand, refs in items:
        cand_toks, ref_toks = tokenize(cand), [tokenize(r) for r in refs]
        cand_len += len(cand_toks)
        ref_len += len(min(ref_toks, key=lambda r: (abs(len(r) - len(cand_toks)), len(r))))
        for n in range(1, max_n + 1):

            def grams(toks):
                return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

            ref_grams = [grams(r) for r in ref_toks]
            for g, count in grams(cand_toks).items():
                correct[n - 1] += min(count, max(r[g] for r in ref_grams))
            guess[n - 1] += max(0, len(cand_toks) - n + 1)
    bp = math.exp(1.0 - ref_len / cand_len) if 0 < cand_len < ref_len else 1.0
    precisions = [c / g if g else 0.0 for c, g in zip(correct, guess)]
    return [
        0.0 if 0.0 in precisions[:k] else bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k)
        for k in range(1, max_n + 1)
    ]


# Inflections that the Porter stemmer folds together (so stemming matters), and case and punctuation the tokenizer drops.
WORDS = ("a", "the", "on", "red", "cat", "cats", "Cat", "dog", "dogs,", "run", "runs", "running", "sit", "sits", "sitting.", "mat")
texts = st.lists(st.sampled_from(WORDS), max_size=9).map(" ".join)
caption_corpora = st.lists(st.tuples(texts, st.lists(texts, min_size=1, max_size=5)), min_size=2, max_size=12)


@settings(max_examples=200, deadline=None)
@given(items=caption_corpora)
def test_scores_equal_the_oracles(items):
    eval_set = corpus(*items)
    assert bleu(eval_set) == literal_bleu(items)
    assert cider_per_item(eval_set) == pytest.approx(oracle_cider(items), abs=1e-9)
    assert cider_per_item(eval_set, cider_d=True) == pytest.approx(oracle_cider_d(items), abs=1e-9)


# --- the seed scorers, kept verbatim as a bit-for-bit oracle ---------------
#
# `bleu` and `cider_per_item` as of commit 106ece4, before they counted each
# distinct text once. The faster scorers must return `==` lists: the same
# float sums in the same order, not merely values within a tolerance.


def seed_ngram_counts(tokens):
    counts = Counter()
    for n in range(1, 4 + 1):
        counts.update(zip(*[tokens[i:] for i in range(n)]))
    return counts


def seed_bleu(eval_set):
    correct = [0] * 4
    guess = [0] * 4
    candidate_len = 0
    reference_len = 0
    for item in eval_set.items:
        cand = tokenize(item.candidate)
        refs = [tokenize(r) for r in item.references]
        candidate_len += len(cand)
        reference_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        cand_counts = seed_ngram_counts(cand)
        clip = dict.fromkeys(cand_counts, 0)
        for ref in refs:
            ref_counts = seed_ngram_counts(ref)
            for ngram, best in clip.items():
                count = ref_counts.get(ngram, 0)
                if count > best:
                    clip[ngram] = count
        for n in range(1, 4 + 1):
            guess[n - 1] += max(0, len(cand) - n + 1)
        for ngram, count in cand_counts.items():
            correct[len(ngram) - 1] += min(count, clip[ngram])

    if candidate_len > 0 and candidate_len < reference_len:
        brevity_penalty = math.exp(1.0 - reference_len / candidate_len)
    else:
        brevity_penalty = 1.0

    precisions = [correct[n] / guess[n] if guess[n] > 0 else 0.0 for n in range(4)]
    scores = []
    for k in range(1, 4 + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:k]) / k
        scores.append(brevity_penalty * math.exp(log_mean))
    return scores


def seed_stemmed_ngram_counts(text):
    tokens = [stem(t) for t in tokenize(text)]
    return seed_ngram_counts(tokens), len(tokens)


def seed_tfidf(counts, idf, log_corpus_size):
    vec = {}
    norm = [0.0] * 4
    for ngram, term_freq in counts.items():
        weight = vec[ngram] = term_freq * idf.get(ngram, log_corpus_size)
        norm[len(ngram) - 1] += weight**2
    return vec, [math.sqrt(x) for x in norm]


def seed_cider_per_item(eval_set, *, cider_d=False):
    cand_counts = [seed_stemmed_ngram_counts(item.candidate) for item in eval_set.items]
    ref_counts = [[seed_stemmed_ngram_counts(r) for r in item.references] for item in eval_set.items]

    doc_freq = Counter()
    for refs in ref_counts:
        doc_freq.update(set().union(*(counts for counts, _ in refs)))
    log_corpus_size = math.log(len(eval_set.items))
    idf = {ngram: log_corpus_size - math.log(max(1, df)) for ngram, df in doc_freq.items()}

    scores = []
    for (cand, cand_len), refs in zip(cand_counts, ref_counts):
        cand_vec, cand_norm = seed_tfidf(cand, idf, log_corpus_size)
        per_n_total = [0.0] * 4
        for ref, ref_len in refs:
            ref_vec, ref_norm = seed_tfidf(ref, idf, log_corpus_size)
            dot = [0.0] * 4
            if cider_d:
                for ngram, weight in cand_vec.items():
                    if ngram in ref_vec:
                        other = ref_vec[ngram]
                        dot[len(ngram) - 1] += min(weight, other) * other
                penalty = math.exp(-(float(cand_len - ref_len) ** 2) / (2 * 6.0**2))
            else:
                for ngram, weight in cand_vec.items():
                    if ngram in ref_vec:
                        dot[len(ngram) - 1] += weight * ref_vec[ngram]
                penalty = 1.0
            for n in range(4):
                if cand_norm[n] != 0.0 and ref_norm[n] != 0.0:
                    per_n_total[n] += dot[n] / (cand_norm[n] * ref_norm[n]) * penalty
        mean_over_n = sum(total / len(refs) for total in per_n_total) / 4
        scores.append(mean_over_n * 10.0)
    return scores


# Texts come from a small per-corpus pool, so references repeat within an
# item and across items, and a candidate may copy one of its own references
# (as written, or differing only in case and punctuation). Empty and
# punctuation-only texts have no n-grams at all.
NO_TOKENS = ("", "...", "!?")
pool_texts = st.one_of(texts, st.sampled_from(NO_TOKENS), texts.map(lambda t: t.capitalize() + "."))


@st.composite
def repeating_corpora(draw):
    pool = draw(st.lists(pool_texts, min_size=1, max_size=8))
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        refs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        copied = st.sampled_from(refs)
        candidate = draw(st.one_of(copied, copied.map(str.upper), pool_texts))
        items.append((candidate, refs))
    return items


@settings(max_examples=300, deadline=None)
@given(items=st.one_of(repeating_corpora(), caption_corpora))
def test_scores_equal_the_seed_scorers_bit_for_bit(items):
    eval_set = corpus(*items)
    assert bleu(eval_set) == seed_bleu(eval_set)
    assert cider_per_item(eval_set) == seed_cider_per_item(eval_set)
    assert cider_per_item(eval_set, cider_d=True) == seed_cider_per_item(eval_set, cider_d=True)


# --- n-gram ids: edge cases of the id-keyed scorer ---------------------------
#
# `cider_per_item` numbers each distinct n-gram within one call. Each case
# below must equal the seed scorer bit for bit and the TF-IDF oracles to 1e-9,
# for plain CIDEr and CIDEr-D.


def assert_equals_seed_and_oracles(items):
    """The plain and CIDEr-D scores, each checked against the seed scorer and its oracle."""
    eval_set = corpus(*items)
    both = []
    for cider_d, oracle in ((False, oracle_cider), (True, oracle_cider_d)):
        scores = cider_per_item(eval_set, cider_d=cider_d)
        assert scores == seed_cider_per_item(eval_set, cider_d=cider_d)
        assert scores == pytest.approx(oracle(items), abs=1e-9)
        both.append(scores)
    return both


class TestNgramIds:
    def test_a_candidate_ngram_in_no_reference_gets_log_n(self):
        # `zebra` and `cat zebra` are in no reference set: each weighs log 2, as `cat` does,
        # so the unigram cosine is 1/sqrt(2); with idf 0 it would be 1.
        plain, clipped = assert_equals_seed_and_oracles([("cat zebra", ["cat"]), ("dog", ["dog"])])
        assert plain[0] == pytest.approx(10 / (4 * math.sqrt(2)), abs=1e-12)
        assert clipped[0] == pytest.approx(10 / (4 * math.sqrt(2)) * math.exp(-1 / 72), abs=1e-12)

    @pytest.mark.parametrize("empty", ["", "..."])
    def test_a_text_with_no_tokens(self, empty):
        items = [(empty, ["a cat sits"]), ("a dog runs", [empty]), (empty, [empty, "a dog"]), ("a cat sits", ["a cat sits", empty])]
        plain, clipped = assert_equals_seed_and_oracles(items)
        assert plain[:3] == clipped[:3] == [0.0, 0.0, 0.0]

    def test_a_one_item_corpus_scores_0_and_warns_once(self, caplog):
        caplog.set_level(logging.WARNING, logger="cap2qa")
        for cider_d in (False, True):
            caplog.clear()
            assert cider_per_item(corpus(("a cat sits", ["a cat sits", "the cat"])), cider_d=cider_d) == [0.0]
            assert [r.getMessage() for r in caplog.records] == [
                "CIDEr over a single item: document frequency degenerates and the score is 0"
            ]
        assert_equals_seed_and_oracles([("a cat sits", ["a cat sits", "the cat"])])

    def test_no_id_table_is_kept_across_calls(self):
        # The same corpus scored in a fresh process, and here after a corpus whose n-grams
        # would take the low ids first if a table were kept.
        items = [("a dog runs in a park", ["the dog runs", "a dog in the park"]), ("two birds fly", ["birds flying high"])]
        other = [("birds fly over a park", ["a park with birds"]), ("the dog sleeps", ["a dog naps"])]
        script = (
            "from cap2qa.eval_caption import CaptionEvalSet, CaptionItem, cider_per_item\n"
            f"items = [CaptionItem(i, c, tuple(r)) for i, (c, r) in enumerate({items!r})]\n"
            "for d in (False, True): print(*map(float.hex, cider_per_item(CaptionEvalSet(items), cider_d=d)))\n"
        )
        src = str(Path(cap2qa.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True)
        assert_equals_seed_and_oracles(other)
        here = [" ".join(map(float.hex, cider_per_item(corpus(*items), cider_d=d))) for d in (False, True)]
        assert here == fresh.stdout.splitlines()
        assert_equals_seed_and_oracles(items)


# --- memory: what one call holds --------------------------------------------

SCENE_WORDS = {
    "adj": "small large red white black young old wooden busy empty".split(),
    "noun": "cat dog man woman bus train bird horse boy girl".split(),
    "verb": "sits stands runs walks sleeps rides waits plays looks eats".split(),
    "prep": "on in near beside behind under by at".split(),
    "place": "street table field road beach kitchen park bench room grass".split(),
}


def scene_corpus(seed):
    """1000 COCO-like items of 5 references: each text varies up to two words of its image's scene,
    so nearly every text is distinct and n-grams are shared."""
    rng = random.Random(seed)
    items = []
    for image_id in range(1000):
        scene = {slot: rng.choice(words) for slot, words in SCENE_WORDS.items()}
        texts = []
        for _ in range(6):
            slots = {**scene, **{slot: rng.choice(SCENE_WORDS[slot]) for slot in rng.sample(list(SCENE_WORDS), rng.randint(0, 2))}}
            text = "a {adj} {noun} {verb} {prep} the {place}".format(**slots)
            texts.append(text.capitalize() + "." if rng.random() < 0.5 else text)
        items.append(CaptionItem(image_id, texts[0], tuple(texts[1:])))
    return CaptionEvalSet(items)


# A Counter per distinct text, held until the last item is scored, is about
# 1.6 KB a text; the n-gram ids of a text and its share of the id tables are
# about 0.5 KB. The table of distinct n-grams is bounded by the vocabulary here.
def test_cider_holds_under_800_bytes_per_distinct_text():
    eval_set = scene_corpus(0)
    distinct = len({text for item in eval_set.items for text in (item.candidate, *item.references)})
    assert distinct > 5000
    tracemalloc.start()
    try:
        cider_per_item(eval_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / distinct <= 800, f"{peak} bytes traced for {distinct} distinct texts"
