"""Prompt assembly for caption-grounded QA generation.

A prompt has three parts: bottom rules (hard constraints that pin the
assistant to the given context), a task description, and conditions (further
restrictions on what may be generated). Rendering appends the caption under
a ``Caption:`` delimiter line. Prompt configs carry a content-derived version
tag so that any edit is visible in record provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CaptionRecord, as_kind, check_keys, load_yaml, read_field, utf8_text
from .errors import InputError

DEFAULT_BOTTOM_RULES = (
    "Any content should be included by the given context.",
    "Must answer to what asked. In other word, if not asked, nothing should be "
    "answered such as explanation neither any comment.",
)

DEFAULT_TASK_DESCRIPTION = (
    "Generate question-answer pairs from the following caption. "
    "Must avoid questioning and answering 'not specified in the caption'."
)

DEFAULT_CONDITIONS = (
    "The generated question-answer should be reasonable and question should not imply answer.",
    "Must avoid question-answer if answering the question is not valid due to no specification.",
    "Format each pair as 'Question: ...' and 'Answer: ...'.",
)


def _digest(bottom_rules: tuple[str, ...], task_description: str, conditions: tuple[str, ...]) -> str:
    payload = json.dumps(
        {"bottom_rules": list(bottom_rules), "task": task_description, "conditions": list(conditions)},
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PromptConfig:
    bottom_rules: tuple[str, ...]
    task_description: str
    conditions: tuple[str, ...]
    version_tag: str
    # The rendered prompt up to and including its ``Caption:`` line: the same for every caption.
    head: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lines = ["Rules:", *(f"- {rule}" for rule in self.bottom_rules), "", "Task:", self.task_description, ""]
        lines += ["Conditions:", *(f"- {cond}" for cond in self.conditions), "", "Caption:", ""]
        object.__setattr__(self, "head", "\n".join(lines))

    @classmethod
    def from_parts(
        cls,
        bottom_rules,
        task_description: str,
        conditions,
        label: str = "custom",
    ) -> "PromptConfig":
        """Build a config whose version tag tracks the content hash."""
        bottom_rules = tuple(bottom_rules)
        conditions = tuple(conditions)
        if not bottom_rules or not task_description.strip() or not conditions:
            raise ValueError("prompt config needs non-empty bottom rules, task description and conditions")
        tag = f"{label}-{_digest(bottom_rules, task_description, conditions)[:12]}"
        return cls(bottom_rules, task_description, conditions, tag)


@dataclass(frozen=True)
class PromptBundle:
    rendered: str


def default_prompt_config() -> PromptConfig:
    """The shipped default rule set."""
    return PromptConfig.from_parts(
        DEFAULT_BOTTOM_RULES, DEFAULT_TASK_DESCRIPTION, DEFAULT_CONDITIONS, label="default"
    )


def render(config: PromptConfig, caption: CaptionRecord) -> PromptBundle:
    """Render the full prompt for one caption.

    Byte-deterministic for a given (config, caption): rules block, task
    block, conditions block, then the caption under a ``Caption:`` line.
    """
    if not caption.text.strip():
        raise InputError(f"caption {caption.caption_id} is empty")
    return PromptBundle(rendered=config.head + caption.text + "\n")


def load_prompt_config(path: str | Path) -> PromptConfig:
    """Read a YAML config; the version tag is recomputed from the content."""
    path = Path(path)
    doc = load_yaml(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: prompt config must be a mapping")
    check_keys(doc, ("label", "bottom_rules", "task_description", "conditions"), path)

    # Every string reaches the records or the prompt, so each is checked for UTF-8 under its own name.
    def text(key: str) -> str:
        return utf8_text(read_field(doc, key, path), path, repr(key))

    def strings(key: str) -> list[str]:
        items = enumerate(read_field(doc, key, path, list))
        return [utf8_text(as_kind(v, str, path, f"{key}[{j}]"), path, f"{key}[{j}]") for j, v in items]

    label = text("label") if "label" in doc else utf8_text(path.stem, path, "the file name (the default 'label')")
    try:
        return PromptConfig.from_parts(strings("bottom_rules"), text("task_description"), strings("conditions"), label=label)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
