import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa.errors import InputError
from cap2qa.filters import (
    FilterRule,
    check_rules,
    default_rules,
    filter_artifacts,
    load_rules,
)
from cap2qa.generator import QAPair


def pair(question="What is shown?", answer="A dog."):
    return QAPair(question=question, answer=answer)


class TestRuleValidation:
    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            FilterRule(rule_id="x", scope="both", pattern="a")

    def test_bad_regex_rejected(self):
        with pytest.raises(ValueError):
            FilterRule(rule_id="x", scope="either", pattern="(unclosed")

    def test_duplicate_ids_rejected(self):
        rules = [
            FilterRule(rule_id="same", scope="either", pattern="a"),
            FilterRule(rule_id="same", scope="either", pattern="b"),
        ]
        with pytest.raises(ValueError, match="^duplicate rule_id 'same'$"):
            check_rules(rules)

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ValueError, match="^rules must be non-empty$"):
            check_rules([])


class TestDefaultRules:
    def test_caption_mention_rejected_either_field(self):
        report = filter_artifacts(
            [
                pair(question="What does the caption say?"),
                pair(answer="The caption mentions a dog."),
                pair(answer="A dog runs."),
            ],
            default_rules(),
        )
        assert len(report.kept) == 1
        assert len(report.rejected) == 2

    def test_captioning_not_rejected(self):
        # Word boundary: 'captioning' must survive the caption-mention rule.
        report = filter_artifacts([pair(answer="He studies captioning models.")], default_rules())
        assert len(report.kept) == 1

    def test_not_specified_rejected(self):
        report = filter_artifacts([pair(answer="Not specified in the text.")], default_rules())
        assert report.kept == []

    def test_empty_question_rejected(self):
        report = filter_artifacts([pair(question="   ")], default_rules())
        assert report.kept == []

    def test_refusal_answer_rejected(self):
        report = filter_artifacts([pair(answer="As an AI, I cannot see colors.")], default_rules())
        assert report.kept == []

    def test_case_insensitive(self):
        report = filter_artifacts([pair(answer="THE CAPTION SAYS HI")], default_rules())
        assert report.kept == []


class TestReport:
    def test_order_preserved_and_first_rule_recorded(self):
        rules = [
            FilterRule(rule_id="first", scope="answer", pattern="dog"),
            FilterRule(rule_id="second", scope="answer", pattern="dog here"),
        ]
        pairs = [pair(answer="cat"), pair(answer="dog here"), pair(answer="bird")]
        report = filter_artifacts(pairs, rules)
        assert [p.answer for p in report.kept] == ["cat", "bird"]
        assert report.rejected == [(pairs[1], "first")]
        assert report.input_count == 3

    def test_scope_restricts_matching(self):
        rules = [FilterRule(rule_id="q-only", scope="question", pattern="dog")]
        report = filter_artifacts([pair(question="cat?", answer="dog")], rules)
        assert len(report.kept) == 1


qa_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=60
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(qa_text, qa_text), max_size=12))
def test_partition_property(raw_pairs):
    pairs = [QAPair(question=q, answer=a) for q, a in raw_pairs]
    rules = default_rules()
    report = filter_artifacts(pairs, rules)
    # kept + rejected is a partition preserving multiplicity
    assert len(report.kept) + len(report.rejected) == len(pairs)
    assert report.input_count == len(pairs)
    # idempotence: filtering the kept set changes nothing
    again = filter_artifacts(report.kept, rules)
    assert again.kept == report.kept
    assert again.rejected == []


def oracle_filter(pairs, rules):
    """The rule-by-rule scan as first written: compile, then search each scoped field."""
    kept, rejected = [], []
    for p in pairs:
        hit = None
        for rule in rules:
            regex = re.compile(rule.pattern, re.IGNORECASE)
            if (rule.scope in ("question", "either") and regex.search(p.question)) or (
                rule.scope in ("answer", "either") and regex.search(p.answer)
            ):
                hit = rule.rule_id
                break
        if hit is None:
            kept.append(p)
        else:
            rejected.append((p, hit))
    return kept, rejected


# Word-bounded, anchored, blank-field and case-sensitive (?-i:) patterns.
PATTERNS = [r"\bcat\b", "dog", r"\Acat", r"dog\Z", r"^red$", r"\A\s*\Z", r"(?-i:Cat)", r"(?-i:\ADog)", "x|y"]
rule_specs = st.tuples(st.sampled_from(["question", "answer", "either"]), st.sampled_from(PATTERNS))
rule_lists = st.lists(rule_specs, min_size=1, max_size=5).map(
    lambda specs: [FilterRule(rule_id=f"r{i}", scope=scope, pattern=pattern) for i, (scope, pattern) in enumerate(specs)]
)
field_text = st.lists(st.sampled_from(["cat", "Cat", "CAT", "dog", "Dog", "red", "x", "y", " ", "\n", "s"]), max_size=5).map("".join)


@settings(max_examples=300, deadline=None)
@given(rule_lists, st.lists(st.builds(QAPair, field_text, field_text), max_size=8))
def test_filter_equals_the_rule_by_rule_scan(rules, pairs):
    report = filter_artifacts(pairs, rules)
    assert (report.kept, report.rejected) == oracle_filter(pairs, rules)
    assert report.input_count == len(pairs)
    for p in pairs:
        assert [bool(filter_artifacts([p], [r]).rejected) for r in rules] == [bool(oracle_filter([p], [r])[1]) for r in rules]


class TestYamlRoundTrip:
    def test_load_matches_the_defaults(self, tmp_path):
        rules = default_rules()
        path = tmp_path / "rules.yaml"
        fields = ("rule_id", "scope", "pattern", "description")
        doc = {"rules": [{key: getattr(rule, key) for key in fields} for rule in rules]}
        path.write_text(yaml.safe_dump(doc, allow_unicode=True, sort_keys=False), encoding="utf-8")
        assert load_rules(path) == rules

    def test_number_is_read_as_text_and_description_defaults(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("rules:\n  - {rule_id: 5, scope: either, pattern: 1.5}\n", encoding="utf-8")
        assert load_rules(path) == [FilterRule(rule_id="5", scope="either", pattern="1.5", description="")]

    def test_bad_scope_names_the_entry(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("rules:\n  - {rule_id: x, scope: both, pattern: a}\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_rules(path)
        assert str(info.value) == f"{path}: rules[0]: rule 'x': scope must be one of ('question', 'answer', 'either')"

    def test_missing_rules_key(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("nope: []\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"rules\.yaml: expected a top-level 'rules' list$"):
            load_rules(path)
