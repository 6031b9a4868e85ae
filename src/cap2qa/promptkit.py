"""Prompt assembly for caption-grounded QA generation.

A prompt has three parts: bottom rules (hard constraints that pin the
assistant to the given context), a task description, and conditions (further
restrictions on what may be generated). Rendering appends the caption under
a ``Caption:`` delimiter line. Prompt configs carry a content-derived version
tag so that any edit is visible in record provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CaptionRecord, as_kind, check_keys, load_yaml, read_field, sha256_hex, utf8_text
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


@dataclass(frozen=True)
class PromptConfig:
    """A prompt's three parts; its ``version_tag``, ``label`` plus 12 hex digits of their digest, always names them."""

    bottom_rules: tuple[str, ...]
    task_description: str
    conditions: tuple[str, ...]
    label: str = "custom"
    version_tag: str = field(init=False)
    # The rendered prompt up to and including its ``Caption:`` line: the same for every caption.
    head: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rules, task, conds = tuple(self.bottom_rules), self.task_description, tuple(self.conditions)
        if not rules or not task.strip() or not conds:
            raise ValueError("prompt config needs non-empty bottom rules, task description and conditions")
        digest = sha256_hex({"bottom_rules": rules, "task": task, "conditions": conds})
        lines = ["Rules:", *(f"- {rule}" for rule in rules), "", "Task:", task, ""]
        lines += ["Conditions:", *(f"- {cond}" for cond in conds), "", "Caption:", ""]
        derived = {"bottom_rules": rules, "conditions": conds, "version_tag": f"{self.label}-{digest[:12]}", "head": "\n".join(lines)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PromptBundle:
    rendered: str


def default_prompt_config() -> PromptConfig:
    """The shipped default rule set."""
    return PromptConfig(DEFAULT_BOTTOM_RULES, DEFAULT_TASK_DESCRIPTION, DEFAULT_CONDITIONS, label="default")


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
        return PromptConfig(strings("bottom_rules"), text("task_description"), strings("conditions"), label=label)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
