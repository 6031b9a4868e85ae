import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa.corpus import CaptionRecord
from cap2qa.errors import InputError
from cap2qa.promptkit import (
    DEFAULT_BOTTOM_RULES,
    DEFAULT_CONDITIONS,
    DEFAULT_TASK_DESCRIPTION,
    PromptConfig,
    default_prompt_config,
    load_prompt_config,
    render,
)


def caption(text="A cat sits on a mat."):
    return CaptionRecord(caption_id=1, image_id=10, text=text)


class TestDefaults:
    def test_default_has_two_rules_one_task_three_conditions(self):
        config = default_prompt_config()
        assert len(config.bottom_rules) == 2
        assert config.task_description
        assert len(config.conditions) == 3

    def test_all_default_fragments_rendered(self):
        rendered = render(default_prompt_config(), caption()).rendered
        for fragment in DEFAULT_BOTTOM_RULES + (DEFAULT_TASK_DESCRIPTION,) + DEFAULT_CONDITIONS:
            assert fragment in rendered

    def test_caption_text_rendered_last(self):
        rendered = render(default_prompt_config(), caption("zebra crossing")).rendered
        assert rendered.rstrip().endswith("zebra crossing")


class TestRender:
    def test_deterministic(self):
        a = render(default_prompt_config(), caption())
        b = render(default_prompt_config(), caption())
        assert a.rendered == b.rendered

    def test_different_captions_render_differently(self):
        a = render(default_prompt_config(), caption("one"))
        b = render(default_prompt_config(), caption("two"))
        assert a.rendered != b.rendered

    def test_empty_caption_rejected(self):
        with pytest.raises(InputError, match=r"^caption \d+ is empty$"):
            render(default_prompt_config(), caption("   "))

    def test_replace_derives_the_head_again(self):
        config = default_prompt_config()
        changed = dataclasses.replace(config, conditions=("Only one condition.",))
        rendered = render(changed, caption("zebra crossing")).rendered
        assert rendered == seed_render(changed, caption("zebra crossing"))
        assert "- Only one condition.\n\nCaption:\nzebra crossing\n" in rendered
        assert DEFAULT_CONDITIONS[0] not in rendered


def seed_render(config: PromptConfig, record: CaptionRecord) -> str:
    """The prompt as the seed rendered it, one line list per caption: the oracle for render."""
    lines: list[str] = ["Rules:"]
    lines.extend(f"- {rule}" for rule in config.bottom_rules)
    lines.append("")
    lines.append("Task:")
    lines.append(config.task_description)
    lines.append("")
    lines.append("Conditions:")
    lines.extend(f"- {cond}" for cond in config.conditions)
    lines.append("")
    lines.append("Caption:")
    lines.append(record.text)
    return "\n".join(lines) + "\n"


prompt_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)


@settings(max_examples=200, deadline=None)
@given(
    bottom_rules=st.lists(prompt_text, min_size=1, max_size=4),
    task=prompt_text.filter(str.strip),
    conditions=st.lists(prompt_text, min_size=1, max_size=4),
    text=prompt_text.filter(str.strip),
)
def test_render_is_the_seed_line_join(bottom_rules, task, conditions, text):
    config = PromptConfig(bottom_rules, task, conditions)
    record = caption(text)
    assert render(config, record).rendered == seed_render(config, record)


class TestVersionTag:
    def test_tag_tracks_content(self):
        a = PromptConfig(("r1",), "task", ("c1",), label="x")
        b = PromptConfig(("r1",), "task", ("c1", "c2"), label="x")
        same = PromptConfig(("r1",), "task", ("c1",), label="x")
        assert a.version_tag != b.version_tag
        assert a.version_tag == same.version_tag

    # Records name their prompt by this tag; README shows the default's.
    def test_default_tag_is_pinned(self):
        assert default_prompt_config().version_tag == "default-62b0fc0f0232"

    def test_lists_and_tuples_make_one_config(self):
        from_lists = PromptConfig(["r1", "r2"], "task", ["c1"], label="x")
        assert from_lists == PromptConfig(("r1", "r2"), "task", ("c1",), label="x")
        assert (from_lists.bottom_rules, from_lists.conditions) == (("r1", "r2"), ("c1",))

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            PromptConfig((), "task", ("c",))
        with pytest.raises(ValueError):
            PromptConfig(("r",), "  ", ("c",))
        with pytest.raises(ValueError):
            PromptConfig(("r",), "task", ())


class TestYamlRoundTrip:
    def test_load_preserves_content_and_tag(self, tmp_path):
        config = default_prompt_config()
        path = tmp_path / "prompt.yaml"
        doc = {
            "label": "default",
            "bottom_rules": list(config.bottom_rules),
            "task_description": config.task_description,
            "conditions": list(config.conditions),
        }
        path.write_text(yaml.safe_dump(doc, allow_unicode=True, sort_keys=False), encoding="utf-8")
        assert load_prompt_config(path) == config

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "prompt.yaml"
        path.write_text("just a string", encoding="utf-8")
        with pytest.raises(InputError, match=r"prompt\.yaml: prompt config must be a mapping$"):
            load_prompt_config(path)

    def test_number_is_read_as_text_and_label_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "numbers.yaml"
        path.write_text("bottom_rules: [1]\ntask_description: 5\nconditions: [2.5]\n", encoding="utf-8")
        assert load_prompt_config(path) == PromptConfig(("1",), "5", ("2.5",), label="numbers")

    def test_empty_part_rejected(self, tmp_path):
        path = tmp_path / "prompt.yaml"
        path.write_text("bottom_rules: []\ntask_description: t\nconditions: [c]\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_prompt_config(path)
        assert str(info.value) == f"{path}: prompt config needs non-empty bottom rules, task description and conditions"

    def test_missing_part_rejected(self, tmp_path):
        path = tmp_path / "prompt.yaml"
        path.write_text("bottom_rules: [a]\nconditions: [b]\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"prompt\.yaml: missing 'task_description'$"):
            load_prompt_config(path)
