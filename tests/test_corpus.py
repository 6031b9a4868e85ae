import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cap2qa.corpus import (
    CaptionRecord,
    InstructionRecord,
    Provenance,
    dataset_stats,
    iter_instructions,
    iter_jsonl,
    load_coco_captions,
    load_json,
    load_object_annotations,
    load_yaml,
    read_field,
    read_instructions,
    record_to_line,
    scan_jsonl_stats,
    write_instructions,
)
from cap2qa.errors import InputError, RuntimeFailure

from conftest import write_caption_file, write_instance_file, write_jsonl


def make_record(i=0, question="What color?", answer="Red."):
    return InstructionRecord(
        image_id=100 + i,
        question=question,
        answer=answer,
        source_caption_ids=(1000 + i,),
        provenance=Provenance(
            model_id="gpt-3.5-turbo",
            prompt_version="default-abc123def456",
            attempt=1,
            created_at=datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc),
        ),
    )


class TestLoadCaptions:
    def test_counts_match_annotation_array(self, tmp_path):
        path = write_caption_file(
            tmp_path / "c.json",
            [(1, 10, "a cat"), (2, 10, "another cat"), (3, 11, "a dog")],
        )
        records = load_coco_captions(path)
        assert len(records) == 3
        assert records[0] == CaptionRecord(1, 10, "a cat")
        assert records[2].image_id == 11

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match=r"^no such file: .*nope\.json$"):
            load_coco_captions(tmp_path / "nope.json")

    def test_malformed_json_reports_offset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"annotations": [', encoding="utf-8")
        with pytest.raises(InputError, match=r"c\.json: Expecting value at offset 17$"):
            load_coco_captions(path)

    def test_empty_caption_rejected(self, tmp_path):
        path = write_caption_file(tmp_path / "c.json", [(1, 10, "   ")])
        with pytest.raises(InputError, match=r"c\.json: annotations\[0\]: empty caption$"):
            load_coco_captions(path)

    def test_duplicate_caption_id_rejected(self, tmp_path):
        path = write_caption_file(tmp_path / "c.json", [(1, 10, "a"), (1, 11, "b")])
        with pytest.raises(InputError, match=r"c\.json: annotations\[1\]: reuses caption id 1$"):
            load_coco_captions(path)

    def test_missing_annotations_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(InputError, match=r"c\.json: missing top-level 'annotations' array$"):
            load_coco_captions(path)

    def test_lone_surrogate_names_the_entry(self, tmp_path):
        # json.dumps writes the lone surrogate as the escape \ud83d, which json.load decodes back.
        path = write_caption_file(tmp_path / "c.json", [(1, 10, "a cat \U0001f600"), (2, 11, "a dog \ud83d")])
        with pytest.raises(InputError) as info:
            load_coco_captions(path)
        assert str(info.value) == f"{path}: annotations[1]: 'caption' holds a lone surrogate '\\ud83d' at index 6"


class TestLoadObjectAnnotations:
    def test_negatives_are_vocabulary_complement(self, tmp_path):
        path = write_instance_file(
            tmp_path / "i.json",
            categories={1: "cat", 2: "dog", 3: "bird"},
            annotations=[(10, 1), (10, 1), (11, 2)],
        )
        result = {a.image_id: a for a in load_object_annotations(path, ["cat", "dog", "bird"])}
        assert result[10].positive_categories == {"cat"}
        assert result[10].negative_categories == {"dog", "bird"}
        assert result[11].positive_categories == {"dog"}
        assert result[11].negative_categories == {"cat", "bird"}

    def test_image_without_annotations_all_negative(self, tmp_path):
        path = write_instance_file(
            tmp_path / "i.json",
            categories={1: "cat"},
            annotations=[(10, 1)],
            images=[10, 99],
        )
        result = {a.image_id: a for a in load_object_annotations(path, ["cat"])}
        assert result[99].positive_categories == frozenset()
        assert result[99].negative_categories == {"cat"}

    @pytest.mark.parametrize("missing", ["categories", "annotations"])
    def test_missing_array_rejected(self, tmp_path, missing):
        path = write_instance_file(tmp_path / "i.json", categories={1: "cat"}, annotations=[(10, 1)])
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload[missing]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InputError, match=r"i\.json: expected top-level 'categories' and 'annotations' arrays$"):
            load_object_annotations(path, ["cat"])

    def test_unknown_category_id(self, tmp_path):
        path = write_instance_file(
            tmp_path / "i.json", categories={1: "cat"}, annotations=[(10, 7)]
        )
        with pytest.raises(InputError, match=r"i\.json: annotations\[0\]: unknown category_id 7$"):
            load_object_annotations(path, ["cat"])

    @pytest.mark.parametrize("array", ["categories", "images", "annotations"])
    def test_non_object_entry_names_array_and_index(self, tmp_path, array):
        path = write_instance_file(tmp_path / "i.json", categories={1: "cat"}, annotations=[(10, 1)])
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[array].append(5)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InputError, match=rf"{array}\[1\] is not an object$"):
            load_object_annotations(path, ["cat"])

    def test_non_array_images_is_schema_error(self, tmp_path):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"categories": [], "annotations": [], "images": 5}), encoding="utf-8")
        with pytest.raises(InputError, match="expected 'images' to be an array"):
            load_object_annotations(path, ["cat"])

    def test_out_of_vocabulary_category_ignored(self, tmp_path):
        path = write_instance_file(
            tmp_path / "i.json", categories={1: "cat", 2: "lamp"}, annotations=[(10, 2)]
        )
        result = load_object_annotations(path, ["cat"])
        assert result[0].positive_categories == frozenset()
        assert result[0].negative_categories == {"cat"}


class TestInstructionRoundTrip:
    def test_line_key_order_is_fixed(self):
        line = record_to_line(make_record())
        keys = list(json.loads(line).keys())
        assert keys == ["image_id", "question", "answer", "source_caption_ids", "provenance"]
        prov_keys = list(json.loads(line)["provenance"].keys())
        assert prov_keys == ["model_id", "prompt_version", "attempt", "created_at"]

    def test_write_then_read_identity(self, tmp_path):
        records = [make_record(i) for i in range(5)]
        out = tmp_path / "out.jsonl"
        assert write_instructions(out, records) == 5
        assert read_instructions(out) == records

    def test_blank_lines_skipped(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text(record_to_line(make_record()) + "\n\n\n", encoding="utf-8")
        assert len(read_instructions(out)) == 1

    def test_write_to_a_missing_directory_is_a_runtime_failure(self, tmp_path):
        out = tmp_path / "missing" / "out.jsonl"
        with pytest.raises(RuntimeFailure, match=f"^cannot write {re.escape(str(out))}: "):
            write_instructions(out, [make_record()])

    def test_malformed_line_reports_number(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text(record_to_line(make_record()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"out\.jsonl:2: "):
            read_instructions(out)

    def test_iter_instructions_validates_each_record_as_it_is_read(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text(record_to_line(make_record()) + "\n{}\n", encoding="utf-8")
        records = iter_instructions(out)
        assert next(records) == make_record()
        with pytest.raises(InputError, match=r"out\.jsonl:2: missing 'provenance'"):
            next(records)

    def test_missing_field_rejected(self, tmp_path):
        obj = json.loads(record_to_line(make_record()))
        del obj["question"]
        out = tmp_path / "out.jsonl"
        out.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"out\.jsonl:1: missing 'question'$"):
            read_instructions(out)

    def test_empty_answer_rejected(self, tmp_path):
        obj = json.loads(record_to_line(make_record()))
        obj["answer"] = "  "
        out = tmp_path / "out.jsonl"
        out.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"out\.jsonl:1: question and answer must be non-empty$"):
            read_instructions(out)

    def test_naive_timestamp_coerced_to_utc(self, tmp_path):
        obj = json.loads(record_to_line(make_record()))
        obj["provenance"]["created_at"] = "2024-01-02T03:04:05"
        out = tmp_path / "out.jsonl"
        out.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        record = read_instructions(out)[0]
        assert record.provenance.created_at.tzinfo is not None


unicode_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=40
).filter(lambda s: s.strip())


@settings(max_examples=200, deadline=None)
@given(
    image_id=st.integers(min_value=0, max_value=10**9),
    question=unicode_text,
    answer=unicode_text,
    sources=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=4),
    attempt=st.integers(min_value=1, max_value=10),
)
def test_round_trip_property(tmp_path_factory, image_id, question, answer, sources, attempt):
    record = InstructionRecord(
        image_id=image_id,
        question=question,
        answer=answer,
        source_caption_ids=tuple(sources),
        provenance=Provenance("m", "v", attempt, datetime(2024, 6, 1, tzinfo=timezone.utc)),
    )
    out = tmp_path_factory.mktemp("rt") / "r.jsonl"
    write_instructions(out, [record])
    assert read_instructions(out) == [record]


def seed_record_to_line(record: InstructionRecord) -> str:
    """The line as the seed wrote it, from two dicts through one JSONEncoder: the oracle for record_to_line."""
    obj = {
        "image_id": record.image_id,
        "question": record.question,
        "answer": record.answer,
        "source_caption_ids": list(record.source_caption_ids),
        "provenance": {
            "model_id": record.provenance.model_id,
            "prompt_version": record.provenance.prompt_version,
            "attempt": record.provenance.attempt,
            "created_at": record.provenance.created_at.isoformat(),
        },
    }
    return json.JSONEncoder(ensure_ascii=False).encode(obj)


# Text that JSON must escape or may pass through: quotes, backslashes, control
# characters, U+2028/U+2029, non-BMP characters, and anything else but a lone surrogate.
awkward_text = st.text(
    alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029\U0001f600\U0010ffffé/') | st.characters(blacklist_categories=("Cs",)),
    max_size=30,
)
any_int = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**80) | st.integers(max_value=-(2**63) + 2, min_value=-(2**80))
created_at = st.datetimes(
    timezones=st.none() | st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23)))
)


@settings(max_examples=300, deadline=None)
@given(
    image_id=any_int,
    question=awkward_text,
    answer=awkward_text,
    sources=st.lists(any_int, max_size=5),
    model_id=awkward_text,
    prompt_version=awkward_text,
    attempt=any_int,
    created=created_at,
)
@example(-1, '"q\\"\u2028', "\x00\U0001f600\u2029", [1, 2**64, -(2**63) - 1], "m", "v", 2**63, datetime(2024, 5, 1, 0, 0, 0, 1))
@example(0, "", "", [], "", "", -5, datetime(2024, 5, 1, 12, 30, 0, 999999, tzinfo=timezone(timedelta(hours=-5, minutes=-30))))
def test_record_to_line_is_the_seed_encoder_byte_for_byte(image_id, question, answer, sources, model_id, prompt_version, attempt, created):
    record = InstructionRecord(
        image_id, question, answer, tuple(sources), Provenance(model_id, prompt_version, attempt, created)
    )
    assert record_to_line(record) == seed_record_to_line(record)


class TestStats:
    def test_empty_is_zero(self):
        stats = dataset_stats([])
        assert (stats.n_records, stats.n_distinct_images) == (0, 0)
        assert stats.avg_answer_words == 0.0

    def test_counts_and_averages(self):
        records = [
            make_record(0, question="One two three?", answer="Four five."),
            make_record(0, question="Six?", answer="Seven eight nine ten."),
        ]
        stats = dataset_stats(records)
        assert stats.n_records == 2
        assert stats.n_distinct_images == 1
        assert stats.avg_question_words == pytest.approx(2.0)
        assert stats.avg_answer_words == pytest.approx(3.0)

    def test_lenient_scan_accepts_foreign_keys(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"image": 5, "question": "a b", "answer": "c"},
                {"img_id": 6, "answer": "d e f"},
                {"image_id": 5, "question": "x"},
            ],
        )
        stats = scan_jsonl_stats(path)
        assert stats.n_records == 3
        assert stats.n_distinct_images == 2


class TestReaders:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [(12, int, 12), ("12", int, 12), ("q1", str, "q1"), (5, str, "5"), (1, float, 1.0), ("0.5", float, 0.5)],
    )
    def test_read_field_takes_strings_and_numbers(self, value, kind, expected):
        got = read_field({"id": value}, ("question_id", "id"), "f.jsonl:2", kind)
        assert (got, type(got)) == (expected, kind)

    @pytest.mark.parametrize(
        "value, kind, shown",
        [(None, int, "null"), (True, int, "true"), ([1], int, "[1]"), (1.5, int, "1.5"), ("x", int, '"x"'),
         (False, str, "false"), ({}, str, "{}"), ("", float, '""')],
    )
    def test_read_field_rejects_in_one_line(self, value, kind, shown):
        with pytest.raises(InputError) as info:
            read_field({"id": value}, ("question_id", "id"), "f.jsonl:2", kind)
        assert str(info.value).startswith("f.jsonl:2: 'id' must be ")
        assert str(info.value).endswith(f", got {shown}")

    def test_read_field_names_every_key_when_missing(self):
        with pytest.raises(InputError, match=r"^f\.jsonl:2: missing 'image_id' or 'image'$"):
            read_field({"id": 1}, ("image_id", "image"), "f.jsonl:2", int)

    def test_iter_jsonl_names_each_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(f"{path}:1", {"a": 1}), (f"{path}:3", {"a": 2})]

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_iter_jsonl_rejects_non_object_lines(self, tmp_path, line):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"rows\.jsonl:2: expected a JSON object$"):
            list(iter_jsonl(path))

    def test_non_utf8_jsonl_names_the_line_past_the_first_read_chunk(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"text": "caf\xc3\xa9"}\n' * 3000 + b'{"text": "caf\xe9"}\n')
        with pytest.raises(InputError) as info:
            list(iter_jsonl(path))
        assert str(info.value) == f"{path}:3001: not UTF-8 (invalid continuation byte)"

    @pytest.mark.parametrize("read", [lambda p: list(iter_jsonl(p)), load_yaml, load_json])
    def test_missing_file(self, tmp_path, read):
        with pytest.raises(InputError, match=r"^no such file: .*absent$"):
            read(tmp_path / "absent")

    def test_load_yaml_error_is_one_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("key: 'unterminated\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_yaml(path)
        assert str(info.value) == f"{path}: malformed YAML at line 2: found unexpected end of stream"

    def test_load_json_requires_a_top_level_object(self, tmp_path):
        path = tmp_path / "captions.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InputError, match=r"captions\.json: expected a JSON object at the top level$"):
            load_json(path)
        with pytest.raises(InputError, match=r"captions\.json: expected a JSON object at the top level$"):
            load_coco_captions(path)
