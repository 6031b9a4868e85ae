"""Artifact filtering: reject generated QA pairs unfit for image-grounded QA.

A pair answering "What objects are in the image?" must read as if the model
saw the image; wording that leaks the text-only setup ("according to the
caption", "not specified") or assistant meta-talk gets dropped. Rules are
data, not code: regex patterns with a scope, loadable from YAML so operators
can extend the set without touching the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import QAPair, _objects, check_keys, load_yaml, read_field
from .errors import InputError

# For each scope, the fields it scans as indices into (question, answer).
_SCANNED = {"question": (0,), "answer": (1,), "either": (0, 1)}
SCOPES = tuple(_SCANNED)
RULE_KEYS = ("rule_id", "scope", "pattern", "description")


@dataclass(frozen=True)
class FilterRule:
    rule_id: str
    scope: str
    pattern: str
    description: str = ""
    # The compiled pattern's bound ``search`` and the fields it scans.
    search: Callable[[str], re.Match | None] = field(init=False, repr=False, compare=False)
    scanned: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"rule {self.rule_id!r}: scope must be one of {SCOPES}")
        try:
            regex = re.compile(self.pattern, re.IGNORECASE)
        except re.error as exc:
            raise ValueError(f"rule {self.rule_id!r}: bad pattern ({exc})") from exc
        object.__setattr__(self, "search", regex.search)
        object.__setattr__(self, "scanned", _SCANNED[self.scope])


@dataclass
class FilterReport:
    kept: list[QAPair]
    rejected: list[tuple[QAPair, str]]

    @property
    def input_count(self) -> int:
        return len(self.kept) + len(self.rejected)


def default_rules() -> list[FilterRule]:
    """The shipped rule set.

    Single-word patterns are word-boundary anchored ('captioning' does not
    trip the caption rule); phrase patterns are anchored at both ends.
    """
    return [
        FilterRule(
            rule_id="mentions-caption",
            scope="either",
            pattern=r"\bcaption\b",
            description="refers to the caption instead of the image",
        ),
        FilterRule(
            rule_id="not-specified-excuse",
            scope="either",
            pattern=r"\bnot specified\b|\baccording to the caption\b|\bin the caption\b",
            description="hedges about what the source text specifies",
        ),
        FilterRule(
            rule_id="empty-field",
            scope="either",
            pattern=r"\A\s*\Z",
            description="blank question or answer",
        ),
        FilterRule(
            rule_id="meta-refusal",
            scope="answer",
            pattern=r"\A\s*(?:as an ai\b|i cannot\b)",
            description="assistant meta-talk instead of an answer",
        ),
    ]


def check_rules(rules: Sequence[FilterRule]) -> None:
    """Raise ValueError unless ``rules`` is non-empty with distinct rule ids."""
    if not rules:
        raise ValueError("rules must be non-empty")
    seen: set[str] = set()
    for rule in rules:
        if rule.rule_id in seen:
            raise ValueError(f"duplicate rule_id {rule.rule_id!r}")
        seen.add(rule.rule_id)


def filter_artifacts(pairs: Iterable[QAPair], rules: Sequence[FilterRule]) -> FilterReport:
    """Partition pairs into kept and rejected, preserving input order.

    A pair is rejected iff at least one rule matches its scoped fields; the
    first matching rule (in rule order) is recorded against it. An empty
    rule list keeps every pair: :func:`check_rules` runs where lists enter.
    """
    kept: list[QAPair] = []
    rejected: list[tuple[QAPair, str]] = []
    for pair in pairs:
        texts = (pair.question, pair.answer)
        hit = next((r.rule_id for r in rules for i in r.scanned if r.search(texts[i])), None)
        if hit is None:
            kept.append(pair)
        else:
            rejected.append((pair, hit))
    return FilterReport(kept=kept, rejected=rejected)


def load_rules(path: str | Path) -> list[FilterRule]:
    """Read a YAML rule file: a top-level ``rules`` list of rule mappings."""
    doc = load_yaml(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise InputError(f"{path}: expected a top-level 'rules' list")
    check_keys(doc, ("rules",), path)
    rules: list[FilterRule] = []
    for where, entry in _objects(path, doc["rules"], "rules"):
        check_keys(entry, RULE_KEYS, where)
        fields = {key: read_field(entry, key, where) for key in RULE_KEYS if key != "description" or key in entry}
        try:
            rules.append(FilterRule(**fields))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
    try:
        check_rules(rules)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return rules
