import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cap2qa
from cap2qa.corpus import ObjectAnnotation
from cap2qa.errors import InputError
from cap2qa.eval_hallucination import (
    AnswerRecord,
    ChairResult,
    Lexicon,
    build_lexicon,
    chair_eval,
    default_lexicon,
    extract_objects,
)


def annotation(image_id, positives, vocabulary):
    positives = frozenset(positives)
    return ObjectAnnotation(
        image_id=image_id,
        positive_categories=positives,
        negative_categories=frozenset(vocabulary) - positives,
    )


LEXICON = Lexicon(
    categories=("cat", "dog", "dining table", "person", "cake", "bird"),
    synonyms={
        "person": frozenset({"man", "woman", "people"}),
        "dining table": frozenset({"table"}),
        "cake": frozenset({"cupcake"}),
    },
)


def category_of(lexicon, surface):
    """The one category that ``extract_objects`` finds in ``surface``, or None."""
    found = extract_objects(surface, lexicon)
    return next(iter(found)) if len(found) == 1 else None


class TestLexicon:
    def test_category_is_own_surface_form(self, lexicon):
        assert category_of(lexicon, "cat") == "cat"

    def test_synonym_maps_to_category(self, lexicon):
        assert category_of(lexicon, "man") == "person"
        assert category_of(lexicon, "table") == "dining table"

    def test_duplicate_surface_form_rejected(self):
        with pytest.raises(InputError, match="^surface form 'pet' maps to both 'cat' and 'dog'$"):
            Lexicon(
                categories=("cat", "dog"),
                synonyms={"cat": frozenset({"pet"}), "dog": frozenset({"pet"})},
            )

    def test_synonym_for_unknown_category_rejected(self):
        with pytest.raises(InputError, match="^synonyms reference unknown category: 'horse'$"):
            Lexicon(categories=("cat",), synonyms={"horse": frozenset({"pony"})})

    def test_uppercase_category_rejected(self):
        with pytest.raises(InputError, match="^category names must be lowercase and non-empty: 'Cat'$"):
            Lexicon(categories=("Cat",))

    def test_duplicate_category_rejected(self):
        with pytest.raises(InputError, match="^duplicate category: 'cat'$"):
            Lexicon(categories=("cat", "cat"))


class TestExtractObjects:
    def test_simple_mention(self, lexicon):
        assert extract_objects("A cat sleeps.", lexicon) == {"cat"}

    def test_case_insensitive(self, lexicon):
        assert extract_objects("A CAT and a Dog.", lexicon) == {"cat", "dog"}

    def test_synonyms_resolve(self, lexicon):
        assert extract_objects("A man near a table.", lexicon) == {"person", "dining table"}

    def test_longest_match_wins(self, lexicon):
        # "dining table" must not double-report via the "table" synonym
        assert extract_objects("Food on the dining table.", lexicon) == {"dining table"}

    def test_plural_naive(self, lexicon):
        assert extract_objects("Two cats and three dogs.", lexicon) == {"cat", "dog"}
        assert extract_objects("Many cupcakes on plates.", lexicon) == {"cake"}

    def test_no_substring_matches(self, lexicon):
        # "cat" inside "catalog" must not match
        assert extract_objects("Reading a catalog about scattering.", lexicon) == frozenset()

    def test_punctuation_boundaries(self, lexicon):
        assert extract_objects("A cat, a dog; a bird!", lexicon) == {"cat", "dog", "bird"}

    def test_empty_text(self, lexicon):
        assert extract_objects("", lexicon) == frozenset()

    def test_duplicates_collapse(self, lexicon):
        assert extract_objects("cat cat cat", lexicon) == {"cat"}

    def test_plural_rank_raw_then_s_then_es(self):
        lex = Lexicon(categories=("glass", "glasse", "bus", "bu"))
        # "glasses" is "glasse" + "s" and "glass" + "es": stripping "s" comes first
        assert extract_objects("Glasses.", lex) == {"glasse"}
        # "bus" is itself a form, so it never falls back to "bu" + "s"
        assert extract_objects("A bus.", lex) == {"bus"}
        assert extract_objects("Two buses.", lex) == {"bus"}

    def test_plural_only_on_the_last_token(self):
        lex = Lexicon(categories=("wine glass",))
        assert extract_objects("wine glasses", lex) == {"wine glass"}
        assert extract_objects("wines glass", lex) == frozenset()

    def test_irregular_plural_needs_a_synonym(self):
        # a lemmatizer would fold "knives" into "knife"; the naive rule only strips "s"/"es"
        assert extract_objects("Two knives and three geese.", default_lexicon()) == {"bird"}

    def test_regex_tokens_split_hyphens_and_apostrophes(self):
        lex = Lexicon(categories=("hot dog", "cat", "bowl"))
        assert extract_objects("A hot-dog stand; the cat's bowl.", lex) == {"hot dog", "cat", "bowl"}


class TestDefaultLexicon:
    def test_eighty_categories(self):
        assert len(default_lexicon().categories) == 80

    def test_common_synonyms_wired(self):
        lex = default_lexicon()
        assert category_of(lex, "sofa") == "couch"
        assert category_of(lex, "plane") == "airplane"
        assert category_of(lex, "bike") == "bicycle"
        assert category_of(lex, "motorbike") == "motorcycle"
        assert category_of(lex, "phone") == "cell phone"
        assert category_of(lex, "ball") == "sports ball"
        assert category_of(lex, "table") == "dining table"


class TestBuildLexicon:
    def test_from_files(self, tmp_path):
        cats = tmp_path / "cats.txt"
        cats.write_text("cat\ndog\n# comment\n\n", encoding="utf-8")
        syns = tmp_path / "syns.txt"
        syns.write_text("cat, kitten, kitty\n", encoding="utf-8")
        lex = build_lexicon(str(cats), str(syns))
        assert lex.categories == ("cat", "dog")
        assert category_of(lex, "kitten") == "cat"

    def test_without_synonyms(self, tmp_path):
        cats = tmp_path / "cats.txt"
        cats.write_text("cat\n", encoding="utf-8")
        lex = build_lexicon(str(cats))
        assert lex.categories == ("cat",)

    def test_bundled_files_give_the_default_lexicon(self, tmp_path):
        data = Path(cap2qa.__file__).parent / "data"
        lex = build_lexicon(str(data / "coco_categories.txt"), str(data / "coco_synonyms.txt"))
        assert lex == default_lexicon()


class TestChairEval:
    VOCAB = ("cat", "dog", "dining table", "person", "cake", "bird")

    def annotations(self):
        return {
            1: annotation(1, {"cat", "dog"}, self.VOCAB),
            2: annotation(2, {"person"}, self.VOCAB),
        }

    def test_clean_answers(self, lexicon):
        answers = [AnswerRecord(1, "A cat and a dog."), AnswerRecord(2, "A man walks.")]
        result = chair_eval(answers, self.annotations(), lexicon)
        assert result.chair_s == 0.0
        assert result.recall == pytest.approx(3 / 3)
        assert result.recall_without_hallucination == pytest.approx(1.0)

    def test_hallucination_rate(self, lexicon):
        answers = [
            AnswerRecord(1, "A cat near a cake."),  # cake not in image 1
            AnswerRecord(2, "A person."),
        ]
        result = chair_eval(answers, self.annotations(), lexicon)
        assert result.chair_s == pytest.approx(0.5)
        assert result.n_hallucinating == 1
        # hallucinating answer keeps its true positive for plain recall
        assert result.recall == pytest.approx(2 / 3)
        # but contributes nothing to the strict variant
        assert result.recall_without_hallucination == pytest.approx(1 / 3)

    def test_mention_both_sets(self, lexicon):
        result = chair_eval([AnswerRecord(1, "cat bird")], self.annotations(), lexicon)
        assert result.per_answer == [{"image_id": 1, "mentioned": ["bird", "cat"], "hallucinated": ["bird"], "true_positives": ["cat"]}]

    def test_only_chair_s_is_reported_not_chair_i(self, lexicon):
        # Rohrbach et al. (2018) also define CHAIR_i, hallucinated mentions over
        # all mentions: 1 of 3 here, against a CHAIR_s of 1 answer in 2.
        result = chair_eval([AnswerRecord(1, "cat bird"), AnswerRecord(1, "cat")], self.annotations(), lexicon)
        rows = result.per_answer
        chair_i = Fraction(sum(len(row["hallucinated"]) for row in rows), sum(len(row["mentioned"]) for row in rows))
        assert (result.chair_s, chair_i) == (0.5, Fraction(1, 3))
        assert [f.name for f in fields(ChairResult) if f.name.startswith("chair")] == ["chair_s"]

    def test_missing_annotation_raises(self, lexicon):
        with pytest.raises(InputError, match="^no object annotation for image_id 99$"):
            chair_eval([AnswerRecord(99, "cat")], self.annotations(), lexicon)

    def test_empty_input_all_zero(self, lexicon):
        result = chair_eval([], self.annotations(), lexicon)
        assert (result.chair_s, result.recall, result.recall_without_hallucination) == (0.0, 0.0, 0.0)

    def test_say_nothing_zero_chair_zero_recall(self, lexicon):
        answers = [AnswerRecord(1, "something vague"), AnswerRecord(2, "hmm")]
        result = chair_eval(answers, self.annotations(), lexicon)
        assert result.chair_s == 0.0
        assert result.recall == 0.0

    def test_no_positives_anywhere_zero_denominator(self, lexicon):
        annotations = {1: annotation(1, set(), self.VOCAB)}
        result = chair_eval([AnswerRecord(1, "nothing here")], annotations, lexicon)
        assert result.recall == 0.0


@st.composite
def chair_fixture(draw):
    vocab = ("cat", "dog", "dining table", "person", "cake", "bird")
    n_images = draw(st.integers(min_value=1, max_value=5))
    annotations = {}
    for image_id in range(n_images):
        positives = draw(st.frozensets(st.sampled_from(vocab), max_size=4))
        annotations[image_id] = ObjectAnnotation(
            image_id=image_id,
            positive_categories=positives,
            negative_categories=frozenset(vocab) - positives,
        )
    n_answers = draw(st.integers(min_value=0, max_value=8))
    answers = []
    for _ in range(n_answers):
        image_id = draw(st.integers(min_value=0, max_value=n_images - 1))
        words = draw(st.lists(st.sampled_from(vocab + ("nothing", "and", "blue")), max_size=5))
        answers.append(AnswerRecord(image_id, " ".join(words)))
    return answers, annotations


@settings(max_examples=200, deadline=None)
@given(chair_fixture())
def test_chair_brute_force_property(fixture):
    answers, annotations = fixture
    result = chair_eval(answers, annotations, LEXICON)

    # independent recomputation from extract_objects
    hallucinating = 0
    tp = clean_tp = positives = 0
    for answer in answers:
        ann = annotations[answer.image_id]
        mentioned = extract_objects(answer.text, LEXICON)
        h = mentioned & ann.negative_categories
        t = mentioned & ann.positive_categories
        hallucinating += bool(h)
        tp += len(t)
        if not h:
            clean_tp += len(t)
        positives += len(ann.positive_categories)

    assert result.n_hallucinating == hallucinating
    assert result.chair_s == (hallucinating / len(answers) if answers else 0.0)
    assert result.recall == (tp / positives if positives else 0.0)
    assert result.recall_without_hallucination == (clean_tp / positives if positives else 0.0)
    # the strict variant can never beat plain recall
    assert result.recall_without_hallucination <= result.recall + 1e-12


def window_scan(text, surface_to_category, max_window):
    """The window-and-variants scan that ``extract_objects`` replaced, kept literally as its oracle."""

    def plural_variants(word):
        variants = [word]
        if word.endswith("s") and len(word) > 1:
            variants.append(word[:-1])
        if word.endswith("es") and len(word) > 2:
            variants.append(word[:-2])
        return tuple(variants)

    tokens = re.findall(r"[a-z0-9]+", text.lower())
    found = set()
    i = 0
    while i < len(tokens):
        matched_width = 0
        for width in range(min(max_window, len(tokens) - i), 0, -1):
            window = tokens[i : i + width]
            hit = None
            for variant in plural_variants(window[-1]):
                candidate = tuple(window[:-1]) + (variant,)
                if candidate in surface_to_category:
                    hit = surface_to_category[candidate]
                    break
            if hit is not None:
                found.add(hit)
                matched_width = width
                break
        i += matched_width if matched_width else 1
    return frozenset(found)


# Words whose "s"/"es" relatives are words too, and forms that share a first token.
WORDS = ("bus", "bu", "buse", "glass", "glasse", "glasses", "wine", "hot", "dog", "es", "s", "e")
FORMS = ("bus", "bu", "buse", "glass", "glasse", "glasses", "wine glass", "wine glasses", "hot", "hot dog", "hot dog bun", "dog")


@st.composite
def lexicon_and_text(draw):
    forms = draw(
        st.lists(
            st.sampled_from(FORMS) | st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    owners = draw(st.lists(st.integers(0, 3), min_size=len(forms), max_size=len(forms)))
    groups: dict = {}
    for form, owner in zip(forms, owners):
        groups.setdefault(owner, []).append(form)
    categories = tuple(group[0] for group in groups.values())
    synonyms = {group[0]: frozenset(group[1:]) for group in groups.values() if len(group) > 1}
    surface_to_category = {tuple(form.split()): group[0] for group in groups.values() for form in group}

    # Each piece of text is a surface form or a word, with a suffix on its last
    # token, in lower, upper or title case, followed by a separator.
    piece = st.tuples(
        st.sampled_from(forms) | st.sampled_from(WORDS + ("a", "on", "the")),
        st.sampled_from(("", "s", "es")),
        st.sampled_from((str.lower, str.upper, str.title)),
        st.sampled_from((" ", ", ", ". ", "!", "-", " (")),
    )
    text = "".join(case(words + suffix) + separator for words, suffix, case, separator in draw(st.lists(piece, max_size=8)))
    return Lexicon(categories=categories, synonyms=synonyms), surface_to_category, text


@settings(max_examples=500, deadline=None)
@given(lexicon_and_text())
def test_extract_objects_equals_the_window_scan(case):
    lex, surface_to_category, text = case
    max_window = max(map(len, surface_to_category))
    assert extract_objects(text, lex) == window_scan(text, surface_to_category, max_window)
