from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa import eval_vqa
from cap2qa.errors import InputError
from cap2qa.eval_vqa import acc_score, evaluate, fraction_text, normalize, pacc_score


class TestNormalize:
    def test_lowercase_and_whitespace(self):
        assert normalize("  A  Red   CAR ") == "a red car"

    def test_edge_punctuation_stripped(self):
        assert normalize("fish!") == "fish"
        assert normalize("'hello,'") == "hello"

    def test_inner_punctuation_kept(self):
        assert normalize("o'clock") == "o'clock"

    def test_articles_dropped_only_on_request(self):
        assert normalize("the red car") == "the red car"


class TestPaccScore:
    def test_substring_counts(self):
        # two of three reference answers occur in the prediction
        assert pacc_score("There are a fish and a boat.", ["fish", "boat", "water"]) == Fraction(2, 3)

    def test_word_prefix_counts(self):
        assert pacc_score("The man is walking.", ["walk", "stroll", "hike"]) == Fraction(1, 3)

    def test_cap_at_one(self):
        refs = ["a", "b", "c", "d"]
        assert pacc_score("a b c d", refs) == Fraction(1)

    def test_score_values_are_thirds(self):
        for k, refs in enumerate((["x", "y", "z"], ["a", "y", "z"], ["a", "b", "z"], ["a", "b", "c"])):
            assert pacc_score("a b c", refs) == Fraction(k, 3)

    def test_no_match(self):
        assert pacc_score("nothing", ["cat", "dog"]) == Fraction(0)

    def test_case_and_punctuation_tolerant(self):
        assert pacc_score("A FISH!", ["fish"]) == Fraction(1, 3)

    def test_raw_mode_is_literal(self):
        assert pacc_score("A FISH", ["fish"], raw=True) == Fraction(0)
        assert pacc_score("a fish", ["fish"], raw=True) == Fraction(1, 3)

    @pytest.mark.parametrize("raw", [False, True])
    def test_an_empty_reference_matches_only_an_empty_prediction(self, raw):
        # "" occurs in every string, so containment alone would credit it to any prediction.
        empty = [""] if raw else ["", "...", "?", "!"]
        assert pacc_score("a red bus", empty, raw=raw) == Fraction(0)
        assert evaluate({"q": "a red bus"}, {"q": empty}, raw=raw).per_item == {"q": Fraction(0)}
        assert pacc_score("", empty, raw=raw) == Fraction(min(3, len(empty)), 3)
        assert pacc_score("a red bus", [*empty, "bus"], raw=raw) == Fraction(1, 3)
        assert acc_score("a red bus", empty, raw=raw) == Fraction(0)


class TestAccScore:
    def test_exact_after_article_drop(self):
        assert acc_score("the fish", ["fish", "a fish", "Fish!"]) == Fraction(1)

    def test_substring_not_enough(self):
        assert acc_score("The man is walking.", ["walk"]) == Fraction(0)

    def test_raw_mode(self):
        assert acc_score("fish", ["fish"], raw=True) == Fraction(1, 3)
        assert acc_score("Fish", ["fish"], raw=True) == Fraction(0)


class TestEvaluate:
    predictions = {"q1": "a fish and a boat", "q2": "nothing useful"}
    references = {"q1": ("fish", "boat", "water"), "q2": ("cat", "dog", "bird")}

    def test_mean_is_exact_rational(self):
        result = evaluate(self.predictions, self.references)
        assert result.mean_score == Fraction(1, 3)  # (2/3 + 0) / 2
        assert result.per_item == {"q1": Fraction(2, 3), "q2": Fraction(0)}

    def test_strict_mode(self):
        result = evaluate({"q": "fish"}, {"q": ("fish", "x", "y")}, strict=True)
        assert result.mean_score == Fraction(1, 3)

    def test_per_item_follows_the_predictions_order(self):
        result = evaluate({"q2": "cat", "q1": "fish"}, self.references)
        assert list(result.per_item) == ["q2", "q1"]

    def test_empty_batch(self):
        assert evaluate({}, self.references).mean_score == Fraction(0)

    @pytest.mark.parametrize("references", [{"q": ()}, {}], ids=["empty", "missing"])
    def test_empty_references_rejected(self, references):
        with pytest.raises(InputError, match="^question 'q' has no references$"):
            evaluate({"q": "a"}, references)


words = st.text(alphabet="bcdfgkmpqvwxz", min_size=1, max_size=8)
phrases = st.lists(words, min_size=1, max_size=5).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(prediction=phrases, references=st.lists(phrases, min_size=1, max_size=6))
def test_partial_credit_dominates_strict(prediction, references):
    assert pacc_score(prediction, references) >= acc_score(prediction, references)


@settings(max_examples=400, deadline=None)
@given(prediction=phrases, extension=phrases, references=st.lists(phrases, min_size=1, max_size=6))
def test_longer_prediction_never_loses_matches(prediction, extension, references):
    # article-free vocabulary: appending words can only add substring matches
    longer = prediction + " " + extension
    assert pacc_score(longer, references) >= pacc_score(prediction, references)


@settings(max_examples=400, deadline=None)
@given(prediction=phrases, references=st.lists(phrases, min_size=1, max_size=9))
def test_scores_live_on_the_third_grid(prediction, references):
    for fn in (pacc_score, acc_score):
        score = fn(prediction, references)
        assert score in {Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)}


def literal_matches(prediction, reference, *, strict, raw):
    """The match rule as defined, with four ``normalize`` calls per pair."""
    if raw:
        return prediction == reference if strict else prediction == reference or bool(reference) and reference in prediction
    exact_pred = " ".join(t for t in normalize(prediction).split() if t not in ("a", "an", "the"))
    exact_ref = " ".join(t for t in normalize(reference).split() if t not in ("a", "an", "the"))
    if strict:
        return exact_pred == exact_ref
    return bool(normalize(reference)) and normalize(reference) in normalize(prediction) or exact_ref == exact_pred


# Tokens over a small alphabet that spells the articles, so containment and
# article-only differences are common; decorated with edge punctuation and
# upper case, and joined by runs of whitespace.
decorated = st.builds(
    lambda lead, core, tail, upper: (lead + core + tail).upper() if upper else lead + core + tail,
    st.sampled_from(["", "'", "(", '"']),
    st.one_of(st.sampled_from(["a", "an", "the", ""]), st.text(alphabet="aehnt", min_size=1, max_size=4)),
    st.sampled_from(["", ".", "!", ",", "?"]),
    st.booleans(),
)
spacing = st.sampled_from([" ", "  ", "\t", " \n "])
messy_phrases = st.builds(
    lambda lead, parts: lead + "".join(token + gap for token, gap in parts),
    st.sampled_from(["", " "]),
    st.lists(st.tuples(decorated, spacing), max_size=4),
)


@st.composite
def batches(draw):
    """``(predictions, references)`` whose strings repeat from a small pool.

    A pick may upper-case its phrase, so a batch also holds strings that
    differ in case alone.
    """
    pool = st.sampled_from(draw(st.lists(messy_phrases, min_size=1, max_size=8)))
    pick = st.builds(lambda phrase, upper: phrase.upper() if upper else phrase, pool, st.booleans())
    ids = [f"q{i}" for i in range(draw(st.integers(0, 6)))]
    predictions = {qid: draw(pick) for qid in ids}
    references = {qid: tuple(draw(st.lists(pick, min_size=1, max_size=10))) for qid in ids}
    return predictions, references


@settings(max_examples=400, deadline=None)
@given(batch=batches(), strict=st.booleans(), raw=st.booleans())
def test_evaluate_equals_the_literal_definition(batch, strict, raw):
    predictions, references = batch
    expected = {
        qid: Fraction(min(3, sum(literal_matches(pred, ref, strict=strict, raw=raw) for ref in references[qid])), 3)
        for qid, pred in predictions.items()
    }
    result = evaluate(predictions, references, strict=strict, raw=raw)
    assert list(result.per_item.items()) == list(expected.items())
    assert result.mean_score == (sum(expected.values(), Fraction(0)) / len(expected) if expected else Fraction(0))
    single = acc_score if strict else pacc_score
    assert {qid: single(pred, references[qid], raw=raw) for qid, pred in predictions.items()} == expected


@pytest.mark.parametrize("strict", [False, True])
def test_evaluate_normalizes_each_distinct_string_once(monkeypatch, strict):
    calls = Counter()
    real = eval_vqa.normalize

    def counting(text, **kwargs):
        calls[text] += 1
        return real(text, **kwargs)

    monkeypatch.setattr(eval_vqa, "normalize", counting)
    predictions = {"q1": "A fish", "q2": "fish"}
    references = {"q1": ("fish", "the fish", "boat"), "q2": ("fish", "A fish", "boat", "boat")}
    evaluate(predictions, references, strict=strict)
    assert calls == Counter({"A fish": 1, "fish": 1, "the fish": 1, "boat": 1})
    calls.clear()
    evaluate(predictions, references, strict=strict, raw=True)
    assert not calls


# --- how acc_score differs from the reference VQA scorer ----------------------
# The VQA accuracy of Antol et al. (ICCV 2015), as the public vqaEval.py computes
# it: each of the ten annotators is left out in turn, the prediction scores
# min(1, matches among the other nine / 3), and the ten scores are averaged.


def official_vqa_accuracy(prediction, references):
    scores = [
        min(Fraction(1), Fraction(sum(other == prediction for other in references[:i] + references[i + 1 :]), 3))
        for i in range(len(references))
    ]
    return sum(scores) / len(scores)


# Two entries of vqaEval.py's answer processing, which it applies to the
# prediction and which the released annotations' answers have already had.
OFFICIAL_PROCESSING = {"two": "2", "isnt": "isn't"}


def official_processed(text):
    return " ".join(OFFICIAL_PROCESSING.get(word, word) for word in text.split())


class TestReferenceScorerDifferences:
    @pytest.mark.parametrize("k, official", [(1, Fraction(3, 10)), (2, Fraction(6, 10)), (3, Fraction(9, 10))])
    def test_matches_count_over_all_references_not_leave_one_out(self, k, official):
        references = ["cat"] * k + ["dog"] * (10 - k)
        assert official_vqa_accuracy("cat", references) == official
        assert acc_score("cat", references) == Fraction(k, 3)

    def test_no_number_word_mapping(self):
        references = ["two"] * 10
        assert official_vqa_accuracy(official_processed("2"), [official_processed(r) for r in references]) == 1
        assert acc_score("2", references) == 0

    def test_no_contraction_mapping(self):
        references = ["isnt"] * 10
        assert official_vqa_accuracy(official_processed("isn't"), [official_processed(r) for r in references]) == 1
        assert acc_score("isn't", references) == 0

    def test_pacc_containment_has_no_reference_scorer(self):
        # Exact match, official or strict, gives a longer prediction nothing;
        # PAcc credits each reference that it contains.
        references = ["cat"] * 10
        assert official_vqa_accuracy("a black cat", references) == 0
        assert acc_score("a black cat", references) == 0
        assert pacc_score("a black cat", references) == 1


# A grid score and an equal Fraction built apart read the same; any other rational is formatted too.
@pytest.mark.parametrize("score", [*eval_vqa._GRID, *(Fraction(k, eval_vqa.MATCH_CAP) for k in range(eval_vqa.MATCH_CAP + 1)), Fraction(5, 12), Fraction(0)])
def test_fraction_text_is_numerator_slash_denominator(score):
    assert fraction_text(score) == f"{score.numerator}/{score.denominator}"
