import argparse
import hashlib
import json
import logging
import os
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest
import requests
import yaml

import cap2qa
from cap2qa import cli, generator
from cap2qa.cli import main
from cap2qa.clocks import FixedClock
from cap2qa.corpus import CaptionRecord, load_coco_captions, read_instructions
from cap2qa.errors import InputError
from cap2qa.llm_client import BackendSpec, MockScript, prompt_hash
from cap2qa.promptkit import default_prompt_config, load_prompt_config, render

from conftest import write_caption_file, write_instance_file, write_jsonl


def hash_script_rows(captions_and_texts):
    """Mock script entries keyed by each caption's rendered prompt."""
    prompt = default_prompt_config()
    rows = []
    for (cid, iid, text), response in captions_and_texts:
        record = CaptionRecord(caption_id=cid, image_id=iid, text=text)
        rows.append(
            {"response_text": response, "prompt_hash": prompt_hash(render(prompt, record).rendered)}
        )
    return rows


@pytest.fixture
def generated(tmp_path):
    """A small end-to-end generate run; returns (out_path, report_path)."""
    entries = [(1, 10, "A cat sits."), (2, 11, "A dog runs.")]
    captions = write_caption_file(tmp_path / "captions.json", entries)
    script = write_jsonl(
        tmp_path / "script.jsonl",
        hash_script_rows(
            [
                (entries[0], "Question: What sits?\nAnswer: A cat."),
                (entries[1], "Question: What runs?\nAnswer: A dog."),
            ]
        ),
    )
    out = tmp_path / "out.jsonl"
    report = tmp_path / "report.json"
    code = main(
        [
            "generate",
            "--captions", str(captions),
            "--out", str(out),
            "--backend", "mock",
            "--script", str(script),
            "--fixed-clock", "2024-05-01T00:00:00+00:00",
            "--report", str(report),
        ]
    )
    assert code == 0
    return out, report


class TestGenerate:
    def test_end_to_end(self, generated):
        out, report_path = generated
        records = read_instructions(out)
        assert [r.question for r in records] == ["What sits?", "What runs?"]
        report = json.loads(report_path.read_text())
        assert report["command"] == "generate"
        assert report["metrics"]["n_records"] == 2
        assert report["metrics"]["n_covered_images"] == 2
        assert report["metrics"]["n_exhausted"] == 0

    def test_report_metrics_are_what_generate_corpus_returns(self, tmp_path):
        entries = [(1, 10, "A cat sits."), (2, 10, "A cat sleeps."), (3, 11, "A dog runs.")]
        captions = write_caption_file(tmp_path / "captions.json", entries)
        responses = ["Question: What sits?\nAnswer: A cat.", "no pairs here", "Question: What runs?\nAnswer: A dog."]
        script = write_jsonl(tmp_path / "script.jsonl", hash_script_rows(zip(entries, responses)))
        report = tmp_path / "report.json"
        argv = ["generate", "--captions", str(captions), "--out", str(tmp_path / "cli.jsonl"), "--backend", "mock"]
        assert main([*argv, "--script", str(script), "--retry", "1", "--report", str(report)]) == 0
        config = generator.GeneratorConfig(BackendSpec(kind="mock", script=MockScript.from_file(script)), retry=1)
        counts = generator.generate_corpus(load_coco_captions(captions), config, tmp_path / "api.jsonl")
        assert counts == {"n_captions": 3, "n_covered_images": 2, "n_records": 2, "n_exhausted": 1}
        assert json.loads(report.read_text(encoding="utf-8"))["metrics"] == counts

    def test_report_hashes_every_file_it_reads(self, tmp_path, mock_generate):
        config = write_yaml(tmp_path / "cfg.yaml", {"retry": 1})
        prompt = write_yaml(tmp_path / "prompt.yaml", PROMPT)
        inputs = []
        for name, pattern in (("a", "caption"), ("b", "image")):
            rules = write_yaml(tmp_path / f"rules-{name}.yaml", {"rules": [{**RULE, "pattern": pattern}]})
            report = tmp_path / f"report-{name}.json"
            argv = [*mock_generate, "--config", config, "--rules", rules, "--prompt", prompt, "--no-resume", "--report", report]
            assert main([str(a) for a in argv]) == 0
            inputs.append(json.loads(report.read_text(encoding="utf-8"))["inputs"])
        script, captions = mock_generate[mock_generate.index("--script") + 1], mock_generate[mock_generate.index("--captions") + 1]
        for name, run_inputs in zip("ab", inputs):
            paths = (captions, config, tmp_path / f"rules-{name}.yaml", prompt, script)
            assert run_inputs == {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}
        # Two runs that differ only in their rules file report different inputs.
        assert inputs[0] != inputs[1]

    def test_missing_captions_file_is_exit_1(self, tmp_path):
        script = write_jsonl(tmp_path / "s.jsonl", [{"response_text": "unused"}])
        code = main(
            [
                "generate",
                "--captions", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "o.jsonl"),
                "--backend", "mock",
                "--script", str(script),
            ]
        )
        assert code == 1

    def test_http_without_base_url_is_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CAP2QA_BASE_URL", raising=False)
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "x y")])
        code = main(
            ["generate", "--captions", str(captions), "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 1

    def test_script_exhaustion_is_exit_2(self, tmp_path):
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "x y")])
        script = write_jsonl(tmp_path / "s.jsonl", [])
        script.write_text("", encoding="utf-8")
        code = main(
            [
                "generate",
                "--captions", str(captions),
                "--out", str(tmp_path / "o.jsonl"),
                "--backend", "mock",
                "--script", str(script),
            ]
        )
        assert code == 2

    # A failed run has one reporter, the CLI: one ERROR line, and the records before the failure stay in --out.
    def test_a_failed_run_prints_one_error_line(self, tmp_path):
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits."), (2, 11, "A dog runs.")])
        script = write_jsonl(tmp_path / "s.jsonl", [{"response_text": "Question: What sits?\nAnswer: A cat."}])
        out = tmp_path / "o.jsonl"
        proc = run_process(
            "generate", "--captions", captions, "--out", out, "--backend", "mock", "--script", script,
            "--fixed-clock", "2024-05-01T00:00:00+00:00",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"INFO cap2qa: loaded 2 captions from {captions}", "ERROR cap2qa: mock script has no response left"]
        assert len(read_instructions(out)) == 1

    def test_out_under_a_missing_directory_is_exit_2(self, tmp_path, caplog, mock_generate):
        out = tmp_path / "missing" / "o.jsonl"
        code, lines = run_main(caplog, *mock_generate, "--out", out)
        assert code == 2
        assert lines[-1].startswith(f"cannot write {out}: ")

    def test_write_error_mid_run_is_exit_2(self, tmp_path, caplog, monkeypatch):
        def no_space(record):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(generator, "record_to_line", no_space)
        code, lines = run_main(caplog, *write_field_inputs(tmp_path, "generate"), "--workers", "4")
        assert (code, lines[-1]) == (2, f"cannot write {tmp_path / 'out.jsonl'}: No space left on device")

    # A failed cache write names the entry under --cache-dir, not --out, and leaves no temp file.
    def test_a_failed_cache_write_names_the_entry(self, tmp_path, caplog, mock_generate, monkeypatch):
        def no_space(obj, fh, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", no_space)
        cache = tmp_path / "cache"
        code, lines = run_main(caplog, *mock_generate, "--cache-dir", cache)
        assert code == 2
        assert re.fullmatch(rf"cannot write {re.escape(str(cache))}/[0-9a-f]{{64}}\.json: No space left on device", lines[-1])
        assert list(cache.iterdir()) == []

    # requests raises plain OSErrors of its own, as for a missing CA bundle:
    # no retry fixes one, so it fails at once, and the error names the URL, not --out.
    def test_a_raw_os_error_from_http_names_the_url(self, tmp_path, caplog, monkeypatch):
        calls, sleeps = [], []

        def no_bundle(session, url, **kwargs):
            calls.append(url)
            raise OSError("Could not find a suitable TLS CA certificate bundle, invalid path: /nonexistent")

        monkeypatch.setattr(requests.Session, "post", no_bundle)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits.")])
        code, lines = run_main(caplog, "generate", "--captions", captions, "--out", tmp_path / "o.jsonl", "--base-url", "http://127.0.0.1:9/v1")
        assert (code, lines[-1]) == (
            2,
            "http://127.0.0.1:9/v1/chat/completions failed "
            "(OSError: Could not find a suitable TLS CA certificate bundle, invalid path: /nonexistent)",
        )
        assert (len(calls), sleeps) == (1, [])

    def test_corrupt_cache_entry_is_fetched_again(self, tmp_path, mock_generate):
        cache = tmp_path / "cache"
        args = [str(a) for a in mock_generate + ["--cache-dir", cache, "--fixed-clock", "2024-05-01T00:00:00", "--no-resume"]]
        assert main(args) == 0
        out = tmp_path / "o.jsonl"
        expected = out.read_bytes()
        (entry,) = cache.iterdir()
        entry.write_text("[1]", encoding="utf-8")
        assert main(args) == 0
        assert out.read_bytes() == expected
        assert json.loads(entry.read_text(encoding="utf-8")) == {"text": "Question: Q?\nAnswer: A."}

    def test_fixed_clock_freezes_timestamps_but_backs_off_in_real_time(self, tmp_path, monkeypatch):
        class Reply:
            def __init__(self, status_code, text=""):
                self.status_code = status_code
                self.text = text

            def json(self):
                return {"choices": [{"message": {"content": self.text}}]}

        replies = [Reply(503), Reply(200, "Question: What sits?\nAnswer: A cat.")]
        sleeps = []
        monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: replies.pop(0))
        monkeypatch.setattr(time, "sleep", sleeps.append)
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits.")])
        out = tmp_path / "o.jsonl"
        code = main(
            [
                "generate",
                "--captions", str(captions),
                "--out", str(out),
                "--base-url", "http://127.0.0.1:9/v1",
                "--fixed-clock", "2024-05-01T00:00:00+00:00",
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        assert len(sleeps) == 1 and replies == []
        (record,) = read_instructions(out)
        assert record.provenance.created_at.isoformat() == "2024-05-01T00:00:00+00:00"

    def test_lone_surrogate_in_an_http_reply_is_exit_2_and_caches_nothing(self, tmp_path, caplog, monkeypatch):
        class Reply:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": "Question: Q?\nAnswer: \ud83d."}}]}

        monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: Reply())
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits.")])
        cache = tmp_path / "cache"
        code, lines = run_main(
            caplog, "generate", "--captions", captions, "--out", tmp_path / "o.jsonl",
            "--base-url", "http://127.0.0.1:9/v1", "--cache-dir", cache,
        )
        assert code == 2
        assert lines[-1] == "http://127.0.0.1:9/v1/chat/completions: reply holds a lone surrogate '\\ud83d' at index 21"
        assert list(cache.iterdir()) == []

    def test_config_file_with_flag_override(self, tmp_path):
        entries = [(1, 10, "A cat sits.")]
        captions = write_caption_file(tmp_path / "c.json", entries)
        script = write_jsonl(
            tmp_path / "s.jsonl",
            hash_script_rows([(entries[0], "Question: Q?\nAnswer: A.")]),
        )
        config = tmp_path / "cfg.yaml"
        config.write_text(f"backend: mock\nscript: {script}\nretry: 7\n", encoding="utf-8")
        report = tmp_path / "r.json"
        code = main(
            [
                "generate",
                "--captions", str(captions),
                "--out", str(tmp_path / "o.jsonl"),
                "--config", str(config),
                "--report", str(report),
            ]
        )
        assert code == 0
        assert json.loads(report.read_text())["metrics"]["n_records"] == 1

    # --model beats CAP2QA_MODEL, which beats model: in --config; the winner
    # stamps every record and the report.
    @pytest.mark.parametrize(
        "env, flag, winner",
        [(None, None, "from-config"), ("from-env", None, "from-env"), ("from-env", "from-flag", "from-flag")],
        ids=["config", "env-over-config", "flag-over-env"],
    )
    def test_model_setting_reaches_records_and_report(self, tmp_path, monkeypatch, mock_generate, env, flag, winner):
        config = tmp_path / "cfg.yaml"
        config.write_text("model: from-config\n", encoding="utf-8")
        if env:
            monkeypatch.setenv("CAP2QA_MODEL", env)
        else:
            monkeypatch.delenv("CAP2QA_MODEL", raising=False)
        report = tmp_path / "r.json"
        argv = [*mock_generate, "--config", config, "--report", report, *(["--model", flag] if flag else [])]
        assert main([str(a) for a in argv]) == 0
        records = read_instructions(tmp_path / "o.jsonl")
        assert records and {r.provenance.model_id for r in records} == {winner}
        assert json.loads(report.read_text())["details"]["model_id"] == winner


class TestEvalChair:
    def test_end_to_end(self, tmp_path):
        instances = write_instance_file(
            tmp_path / "inst.json",
            categories={1: "cat", 2: "dog"},
            annotations=[(10, 1), (11, 2)],
        )
        cats = tmp_path / "cats.txt"
        cats.write_text("cat\ndog\n", encoding="utf-8")
        answers = write_jsonl(
            tmp_path / "answers.jsonl",
            [
                {"image_id": 10, "answer": "A cat sleeps."},
                {"image_id": 11, "answer": "A cat barks."},  # hallucinated on image 11
            ],
        )
        report = tmp_path / "r.json"
        code = main(
            [
                "eval-chair",
                "--answers", str(answers),
                "--instances", str(instances),
                "--categories", str(cats),
                "--report", str(report),
            ]
        )
        assert code == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["chair_s"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(0.5)
        assert metrics["recall_without_hallucination"] == pytest.approx(0.5)

    def test_default_lexicon_used_when_no_categories(self, tmp_path, capsys):
        instances = write_instance_file(
            tmp_path / "inst.json", categories={1: "cat"}, annotations=[(10, 1)]
        )
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a cat"}])
        code = main(["eval-chair", "--answers", str(answers), "--instances", str(instances)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["chair_s"] == 0.0


# --- the paper's loop: generate a corpus, then audit it with eval-chair -------

# Per caption: (caption_id, image_id, caption, the image's COCO categories, the
# (kind, question, answer) pairs of its reply). A "hallucinated" answer names a
# category absent from the image, which no default rule checks; an "artifact"
# names one too, but a default rule rejects it.
AUDIT_CAPTIONS = [
    (1, 10, "A cat sleeps on a sofa.", ("cat", "couch"), [
        ("grounded", "What is sleeping?", "A cat."),
        ("hallucinated", "What is beside the sofa?", "A dog and a cat."),
        ("artifact", "What does the caption describe?", "A dog on a sofa."),  # mentions-caption
    ]),
    (2, 11, "A man rides a horse.", ("person", "horse"), [
        ("grounded", "Who rides the horse?", "A man on a pony."),
        ("artifact", "What is behind the horse?", "Not specified, maybe a truck."),  # not-specified-excuse
        ("artifact", "What breed is the horse?", "I cannot tell it from a cow."),  # meta-refusal
    ]),
    (3, 12, "A cake on a dining table.", ("cake", "dining table"), [
        ("hallucinated", "What is on the table?", "A cake and a bottle."),
        ("grounded", "Where is the cake?", "On a table."),
        ("artifact", "", "A bottle."),  # empty-field
    ]),
    (4, 13, "Two birds on a bench.", ("bird", "bench"), [
        ("grounded", "How many birds are there?", "Two."),
        ("hallucinated", "What is under the bench?", "An umbrella."),
    ]),
]


def test_eval_chair_audits_a_generated_corpus(tmp_path, capsys):
    entries = [entry[:3] for entry in AUDIT_CAPTIONS]
    captions = write_caption_file(tmp_path / "captions.json", entries)
    replies = ["".join(f"Question: {q}\nAnswer: {a}\n" for _, q, a in pairs) for *_, pairs in AUDIT_CAPTIONS]
    script = write_jsonl(tmp_path / "script.jsonl", hash_script_rows(zip(entries, replies)))
    names = sorted({name for *_, objects, _ in AUDIT_CAPTIONS for name in objects})
    instances = write_instance_file(
        tmp_path / "inst.json",
        categories=dict(enumerate(names, start=1)),
        annotations=[(image_id, names.index(name) + 1) for _, image_id, _, objects, _ in AUDIT_CAPTIONS for name in objects],
    )
    out = tmp_path / "out.jsonl"
    generate = ["generate", "--captions", captions, "--out", out, "--backend", "mock", "--script", script, "--retry", "1", "--fixed-clock", "2024-05-01T00:00:00+00:00"]
    assert main([str(a) for a in generate]) == 0
    capsys.readouterr()

    kept = [(kind, q, a) for *_, pairs in AUDIT_CAPTIONS for kind, q, a in pairs if kind != "artifact"]
    artifacts = {(q, a) for *_, pairs in AUDIT_CAPTIONS for kind, q, a in pairs if kind == "artifact"}
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["question"], r["answer"]) for r in records] == [(q, a) for _, q, a in kept]
    assert not artifacts & {(r["question"], r["answer"]) for r in records}

    assert main(["eval-chair", "--answers", str(out), "--instances", str(instances)]) == 0
    report = json.loads(capsys.readouterr().out)
    n_hallucinating = sum(kind == "hallucinated" for kind, _, _ in kept)
    assert report["metrics"]["n_answers"] == len(kept) == 7
    assert report["metrics"]["n_hallucinating"] == n_hallucinating == 3
    assert report["metrics"]["chair_s"] == n_hallucinating / len(kept)
    assert [bool(row["hallucinated"]) for row in report["details"]["per_answer"]] == [kind == "hallucinated" for kind, _, _ in kept]


class TestEvalVqa:
    def test_end_to_end(self, tmp_path, capsys):
        gt = write_jsonl(
            tmp_path / "gt.jsonl",
            [
                {"question_id": "q1", "references": ["fish", "boat", "water"]},
                {"question_id": "q2", "references": ["red", "blue", "green"]},
            ],
        )
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {"question_id": "q1", "prediction": "there are a fish and a boat"},
                {"question_id": "q2", "prediction": "yellow"},
            ],
        )
        code = main(["eval-vqa", "--pred", str(pred), "--gt", str(gt)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["pacc"] == pytest.approx(1 / 3)
        assert payload["details"]["mean_exact"] == "1/3"

    def test_acc_mode(self, tmp_path, capsys):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q", "answer": "fish"}])
        pred = write_jsonl(tmp_path / "p.jsonl", [{"question_id": "q", "prediction": "a fish"}])
        code = main(["eval-vqa", "--pred", str(pred), "--gt", str(gt), "--mode", "acc"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["acc"] == pytest.approx(1 / 3)

    def test_missing_prediction_is_exit_1(self, tmp_path):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q", "answer": "x"}])
        pred = write_jsonl(tmp_path / "p.jsonl", [])
        assert main(["eval-vqa", "--pred", str(pred), "--gt", str(gt)]) == 1

    def test_unknown_prediction_is_counted_as_ignored(self, tmp_path, capsys):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q", "answer": "fish"}])
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [{"question_id": "q", "prediction": "fish"}, {"question_id": "elsewhere", "prediction": "fish"}],
        )
        assert main(["eval-vqa", "--pred", str(pred), "--gt", str(gt)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert (metrics["n_items"], metrics["n_ignored"]) == (1, 1)

    def test_unknown_predictions_are_logged_in_one_line(self, tmp_path, caplog):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q", "answer": "fish"}])
        rows = [{"question_id": qid, "prediction": "fish"} for qid in ("q", "u1", "u2", "u3", "u4", "u5", "u6")]
        pred = write_jsonl(tmp_path / "p.jsonl", rows)
        code, _ = run_main(caplog, "eval-vqa", "--pred", pred, "--gt", gt)
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            f"6 predictions in {pred} have no question in {gt} and are ignored (first: ['u1', 'u2', 'u3', 'u4', 'u5'])"
        ]

    def test_a_repeated_reference_is_read_as_one_object(self, tmp_path):
        gt = write_jsonl(
            tmp_path / "gt.jsonl",
            [
                {"question_id": "q1", "references": ["two", "one"]},
                {"question_id": "q2", "references": "two"},
                {"question_id": "q3", "references": ["three", "two"]},
            ],
        )
        rows = cli._read_jsonl(gt, cli.QUESTION_KEYS, str, ("references",), object)
        twos = [rows[0][2][0], rows[1][2], rows[2][2][1]]
        assert twos == ["two"] * 3
        assert twos[0] is twos[1] is twos[2]

    # 1, 1.0 and True are equal dict keys: sharing them as text would turn 1.0 into "1" and
    # change these scores, which convert each reference by its own type.
    @pytest.mark.parametrize("mode, scores", [("pacc", ["2/3", "1/1", "1/1"]), ("acc", ["2/3", "2/3", "1/3"])])
    def test_equal_numbers_and_text_in_references_stay_apart(self, tmp_path, capsys, mode, scores):
        gt_rows = [
            {"question_id": "q1", "references": [1, 1.0, "1"]},
            {"question_id": "q2", "references": [1.0, 1, "1.0"]},
            {"question_id": "q3", "references": ["1", 1.0, 1]},
        ]
        gt = write_jsonl(tmp_path / "gt.jsonl", gt_rows)
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [{"question_id": "q1", "prediction": "1"}, {"question_id": "q2", "prediction": "1.0"}, {"question_id": "q3", "prediction": 1.0}],
        )
        rows = cli._read_jsonl(gt, cli.QUESTION_KEYS, str, ("references",), object)
        assert [[(type(v), v) for v in value] for _, _, value in rows] == [[(type(v), v) for v in row["references"]] for row in gt_rows]
        assert main(["eval-vqa", "--pred", str(pred), "--gt", str(gt), "--mode", mode]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert [item["score"] for item in details["per_item"]] == scores

    # A row that holds the first id key and the first value key with the wanted types is read
    # directly; these rows take read_field and the per-item loop, and read as they did before.
    @pytest.mark.parametrize(
        "row, read, refs",
        [
            ({"qid": "q1", "answers": ["a", "b"]}, ("q1", ("a", "b")), {"q1": ("a", "b")}),
            ({"question_id": 5, "references": ["a"]}, ("5", ("a",)), {"5": ("a",)}),
            ({"question_id": "q1", "references": None, "answers": ["a"]}, ("q1", None), "references must be a string or a list"),
            ({"question_id": "q1", "references": []}, ("q1", ()), "references must be non-empty"),
            ({"question_id": "q1", "references": "a"}, ("q1", "a"), {"q1": ("a",)}),
            ({"question_id": "q", "references": ["a", 1, 1.5]}, ("q", ["a", 1, 1.5]), {"q": ("a", "1", "1.5")}),
            ({"question_id": "q", "references": ["a", None]}, ("q", ["a", None]), "references[1] must be a string, got null"),
            ({"question_id": "café\ud83d", "references": ["a"]}, None, "'question_id' holds a lone surrogate '\\ud83d' at index 4"),
        ],
        ids=["second-spelling", "int-id", "null-value", "empty-list", "single-string", "mixed-list", "null-item", "lone-surrogate-id"],
    )
    def test_rows_off_the_direct_read_keep_their_values_and_messages(self, tmp_path, row, read, refs):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(row) + "\n", encoding="utf-8")  # ASCII, so a lone surrogate is a \ud83d escape
        value_keys = ("references", "answers", "answer")
        if read is None:
            with pytest.raises(InputError, match=f"^{re.escape(f'{gt}:1: {refs}')}$"):
                cli._read_jsonl(gt, cli.QUESTION_KEYS, str, value_keys, object)
        else:
            assert cli._read_jsonl(gt, cli.QUESTION_KEYS, str, value_keys, object) == [(f"{gt}:1", *read)]
        if type(refs) is dict:
            assert cli._load_references(gt, cli.QUESTION_KEYS, value_keys, str) == refs
        else:
            with pytest.raises(InputError, match=f"^{re.escape(f'{gt}:1: {refs}')}$"):
                cli._load_references(gt, cli.QUESTION_KEYS, value_keys, str)

    # The items share the grid's few score objects, and each one's text is made once.
    def test_every_grid_score_is_written_as_its_fraction(self, tmp_path, capsys):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": f"q{k}", "references": ["cat"] * k + ["dog"] * (4 - k)} for k in range(5)])
        pred = write_jsonl(tmp_path / "p.jsonl", [{"question_id": f"q{k}", "prediction": "cat"} for k in (4, 0, 1, 2, 3)])
        assert main(["eval-vqa", "--pred", str(pred), "--gt", str(gt)]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert [item["score"] for item in details["per_item"]] == ["1/1", "0/1", "1/3", "2/3", "1/1"]
        assert details["mean_exact"] == "3/5"


class TestEvalCaption:
    def test_identity_scores(self, tmp_path, capsys):
        refs = write_jsonl(
            tmp_path / "refs.jsonl",
            [
                {"image_id": 1, "captions": ["a red bird sits on a branch"]},
                {"image_id": 2, "captions": ["two dogs run across the field"]},
            ],
        )
        pred = write_jsonl(
            tmp_path / "pred.jsonl",
            [
                {"image_id": 1, "caption": "a red bird sits on a branch"},
                {"image_id": 2, "caption": "two dogs run across the field"},
            ],
        )
        code = main(["eval-caption", "--pred", str(pred), "--refs", str(refs)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["bleu_1"] == 1.0
        assert metrics["bleu_4"] == 1.0
        assert metrics["cider"] == pytest.approx(10.0)

    def test_missing_refs_is_exit_1(self, tmp_path, caplog):
        refs = write_jsonl(tmp_path / "refs.jsonl", [{"image_id": 1, "captions": ["a"]}])
        pred = write_jsonl(tmp_path / "pred.jsonl", [{"image_id": 1, "caption": "a"}, {"image_id": 2, "caption": "b"}])
        code, lines = run_main(caplog, "eval-caption", "--pred", pred, "--refs", refs)
        assert (code, lines) == (1, [f"{pred}:2: no references for image_id 2 in {refs}"])

    def test_reference_without_prediction_is_counted_as_ignored(self, tmp_path, capsys, caplog):
        rows = [
            {"image_id": 1, "captions": ["a red bird sits on a branch"]},
            {"image_id": 2, "captions": ["two dogs run across the field"]},
            {"image_id": 3, "captions": ["a red car on the road"]},
        ]
        pred = write_jsonl(
            tmp_path / "pred.jsonl",
            [{"image_id": 1, "caption": "a red bird on a branch"}, {"image_id": 2, "caption": "two dogs run"}],
        )
        metrics = []
        for name, refs_rows in (("all", rows), ("scored", rows[:2])):
            refs = write_jsonl(tmp_path / f"{name}.jsonl", refs_rows)
            assert main(["eval-caption", "--pred", str(pred), "--refs", str(refs)]) == 0
            metrics.append(json.loads(capsys.readouterr().out)["metrics"])
        assert (metrics[0]["n_items"], metrics[0]["n_ignored"], metrics[1]["n_ignored"]) == (2, 1, 0)
        # The ignored image enters neither the score nor CIDEr's document frequencies.
        assert {k: v for k, v in metrics[0].items() if k != "n_ignored"} == {k: v for k, v in metrics[1].items() if k != "n_ignored"}
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"1 images in {tmp_path / 'all.jsonl'} have no prediction and are ignored (first: [3])"]

    def test_single_item_cider_warning_is_one_log_line(self, tmp_path):
        refs = write_jsonl(tmp_path / "refs.jsonl", [{"image_id": 10, "captions": ["a cat on a mat"]}])
        pred = write_jsonl(tmp_path / "pred.jsonl", [{"image_id": 10, "caption": "a cat sits on a mat"}])
        proc = run_process("eval-caption", "--pred", pred, "--refs", refs)
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "WARNING cap2qa: CIDEr over a single item: document frequency degenerates and the score is 0"
        ]
        assert json.loads(proc.stdout)["metrics"]["cider"] == 0.0


class TestStats:
    def test_strict_on_generated_corpus(self, generated, capsys):
        out, _ = generated
        code = main(["stats", "--dataset", str(out)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["n_records"] == 2
        assert metrics["n_distinct_images"] == 2

    def test_lenient_accepts_foreign_schema(self, tmp_path, capsys):
        data = write_jsonl(
            tmp_path / "foreign.jsonl",
            [{"image": "xyz.jpg", "question": "Q?", "answer": "A B C"}],
        )
        code = main(["stats", "--dataset", str(data), "--lenient"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["n_records"] == 1
        assert metrics["avg_answer_words"] == pytest.approx(3.0)

    def test_strict_streams_its_records(self, generated, capsys, monkeypatch):
        out, _ = generated
        seen = []
        count = cli.dataset_stats
        monkeypatch.setattr(cli, "dataset_stats", lambda records: seen.append(records) or count(records))
        assert main(["stats", "--dataset", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"]["n_records"] == 2
        assert not isinstance(seen[0], (list, tuple))

    def test_strict_names_a_bad_last_line(self, generated, caplog):
        out, _ = generated
        with open(out, "a", encoding="utf-8") as fh:
            fh.write('{"image_id": 1}\n')
        code, lines = run_main(caplog, "stats", "--dataset", out)
        assert code == 1
        assert lines[-1].startswith(f"{out}:3: ")

    def test_strict_names_a_created_at_that_is_not_iso(self, generated, caplog):
        out, _ = generated
        out.write_text(out.read_text(encoding="utf-8").replace("2024-05-01T00:00:00+00:00", "yesterday", 1), encoding="utf-8")
        code, lines = run_main(caplog, "stats", "--dataset", out)
        assert code == 1
        assert lines == [f"{out}:1: provenance: bad 'created_at' (Invalid isoformat string: 'yesterday')"]

    # A row with no image key counts as a record and adds no image.
    def test_lenient_counts_a_row_without_an_image(self, tmp_path, capsys):
        data = write_jsonl(tmp_path / "foreign.jsonl", [{"image": "a.jpg", "question": "Q?", "answer": "A B"}, {"question": "Why not?", "answer": "C"}])
        assert main(["stats", "--dataset", str(data), "--lenient"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics == {"n_records": 2, "n_distinct_images": 1, "avg_answer_words": 1.5, "avg_question_words": 1.5}

    def test_strict_rejects_foreign_schema(self, tmp_path):
        data = write_jsonl(tmp_path / "foreign.jsonl", [{"image": 1, "answer": "x"}])
        assert main(["stats", "--dataset", str(data)]) == 1


class TestReportCommand:
    def test_markdown_render_uses_display_names(self, tmp_path, capsys):
        report = tmp_path / "vqa-report.json"
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q", "answer": "A cat."}])
        pred = write_jsonl(tmp_path / "p.jsonl", [{"question_id": "q", "prediction": "A cat."}])
        assert main(["eval-vqa", "--pred", str(pred), "--gt", str(gt), "--report", str(report)]) == 0
        code = main(["report", "--in", str(report), "--format", "markdown"])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "PAcc" in rendered
        assert "| metric | value |" in rendered

    def test_json_round_trip(self, generated, capsys):
        _, report_path = generated
        assert main(["report", "--in", str(report_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "generate"

    def test_json_prints_back_the_bytes_of_every_saved_report(self, tmp_path, caplog, capsys):
        for command in FIELD_COMMANDS:
            path = tmp_path / f"{command}.json"
            assert run_main(caplog, *write_field_inputs(tmp_path, command), "--report", path)[0] == 0
            capsys.readouterr()
            assert run_main(caplog, "report", "--in", path, "--format", "json")[0] == 0
            assert capsys.readouterr().out == path.read_text(encoding="utf-8")

    # A saved report that UTF-8 cannot print fails before either format prints anything.
    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_a_lone_surrogate_in_a_saved_report_is_exit_1(self, tmp_path, caplog, capsys, fmt):
        path = tmp_path / "report.json"
        assert run_main(caplog, *write_field_inputs(tmp_path, "eval-vqa"), "--report", path)[0] == 0
        capsys.readouterr()
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["details"]["per_item"][0]["question_id"] = "q\ud83d"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, lines = run_main(caplog, "report", "--in", path, "--format", fmt)
        assert (code, capsys.readouterr().out) == (1, "")
        assert lines[-1] == f"{path}: 'details' holds a lone surrogate '\\ud83d' at index 1"

    # The report is written to a temporary file renamed over --report, so a
    # report that cannot be encoded leaves the one from an earlier run as it was.
    def test_a_report_that_cannot_be_encoded_keeps_the_earlier_one(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "report.json"
        assert run_main(caplog, *write_field_inputs(tmp_path, "eval-vqa"), "--report", path)[0] == 0
        before = path.read_bytes()
        monkeypatch.setattr(cli, "report_render", lambda report, fmt, out=None: out.write("\ud83d"))
        assert run_main(caplog, *write_field_inputs(tmp_path, "eval-vqa"), "--report", path)[0] == 1
        assert path.read_bytes() == before

    # A path is named in the report with each byte that is not UTF-8 escaped;
    # the file itself is still read and hashed.
    def test_a_path_that_is_not_utf8_is_escaped(self, tmp_path, caplog):
        argv = write_field_inputs(tmp_path, "generate")
        for flag, name in (("--captions", b"cap\xff.json"), ("--out", b"out\xfe.jsonl")):
            path = str(tmp_path / os.fsdecode(name))
            if os.path.exists(argv[argv.index(flag) + 1]):
                os.rename(argv[argv.index(flag) + 1], path)
            argv[argv.index(flag) + 1] = path
        report = tmp_path / "run.json"
        assert run_main(caplog, *argv, "--report", report)[0] == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        captions_bytes = (tmp_path / os.fsdecode(b"cap\xff.json")).read_bytes()
        script_bytes = (tmp_path / "script.jsonl").read_bytes()
        assert payload["inputs"] == {
            f"{tmp_path}/cap\\xff.json": hashlib.sha256(captions_bytes).hexdigest(),
            f"{tmp_path}/script.jsonl": hashlib.sha256(script_bytes).hexdigest(),
        }
        assert payload["details"]["out"] == f"{tmp_path}/out\\xfe.jsonl"
        assert run_main(caplog, "report", "--in", report)[0] == 0


def test_every_report_is_the_indented_json_dumps_of_its_payload(tmp_path, caplog):
    for command in FIELD_COMMANDS:
        argv = write_field_inputs(tmp_path, command)
        assert run_main(caplog, *argv, "--report", tmp_path / f"{command}.json")[0] == 0
    stats_argv = ["stats", "--dataset", tmp_path / "out.jsonl", "--report", tmp_path / "stats.json"]
    assert run_main(caplog, *stats_argv)[0] == 0
    for command in [*FIELD_COMMANDS, "stats"]:
        text = (tmp_path / f"{command}.json").read_text(encoding="utf-8")
        assert json.loads(text)["command"] == command
        assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


class TestArgErrors:
    def test_unknown_command_is_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_is_exit_0(self):
        assert main(["--help"]) == 0

    def test_missing_required_flag_is_exit_1(self):
        assert main(["generate", "--out", "x.jsonl"]) == 1


# --- input errors: exit 1 with one line -----------------------------------

BAD_YAML = "a: [1\n"


def run_main(caplog, *argv):
    """Run the CLI in process; returns the exit code and the logged lines."""
    caplog.set_level(logging.INFO)
    code = main([str(a) for a in argv])
    return code, [line for r in caplog.records for line in r.getMessage().splitlines()]


def run_process(*argv, memory_cap_mb=None, preexec_fn=None):
    """Run the CLI as ``python -m cap2qa.cli``, so its stderr is what a user sees.

    ``memory_cap_mb`` caps the child's address space, so that a run that
    reads without end fails with a ``MemoryError`` instead of filling memory.
    ``preexec_fn`` runs in the child before it starts, as for ``subprocess.run``.
    """
    src = str(Path(cap2qa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [str(a) for a in argv]
    entry = ["-m", "cap2qa.cli"]
    if memory_cap_mb is not None:
        cap = f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({memory_cap_mb} << 20,) * 2)"
        entry = ["-c", f"{cap}; from cap2qa.cli import main; sys.exit(main())"]
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.fixture
def device_nodes_stay():
    """The machine's device nodes that these tests write to are still character devices, before and after.

    An opener that renamed a file over its target would replace the node for
    every process on the machine; this names the node in the failing test.
    """
    nodes = [node for node in ("/dev/full", "/dev/zero", "/dev/null") if os.path.exists(node)]

    def replaced():
        return [node for node in nodes if not stat.S_ISCHR(os.stat(node).st_mode)]

    assert replaced() == []
    yield
    assert replaced() == []


@pytest.mark.usefixtures("device_nodes_stay")
class TestDeviceOutputs:
    """A device as an output is written, never read back, and a failed write is one ERROR line naming it."""

    @staticmethod
    def error_lines(proc):
        return [line for line in proc.stderr.splitlines() if not line.startswith("INFO ")]

    @needs_dev_full
    @pytest.mark.parametrize("resume", ["--resume", "--no-resume"])
    def test_generate_into_dev_full_is_exit_2_naming_it(self, mock_generate, resume):
        argv = [str(a) for a in mock_generate]
        argv[argv.index("--out") + 1] = "/dev/full"
        proc = run_process(*argv, resume, memory_cap_mb=512)
        assert (proc.returncode, self.error_lines(proc)) == (2, ["ERROR cap2qa: cannot write /dev/full: No space left on device"])

    # /dev/zero reads as NUL bytes without end: resume must not read it back.
    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_generate_into_dev_zero_with_resume_is_exit_0(self, mock_generate):
        argv = [str(a) for a in mock_generate]
        argv[argv.index("--out") + 1] = "/dev/zero"
        proc = run_process(*argv, memory_cap_mb=512)
        assert (proc.returncode, self.error_lines(proc)) == (0, [])

    @needs_dev_full
    def test_a_report_into_dev_full_is_exit_2_naming_it(self, tmp_path):
        proc = run_process(*write_field_inputs(tmp_path, "eval-vqa"), "--report", "/dev/full")
        assert (proc.returncode, self.error_lines(proc)) == (2, ["ERROR cap2qa: cannot write /dev/full: No space left on device"])


class TestReportReplaced:
    """``--report`` is written to a temporary file beside the file it names, then renamed over it."""

    # The file-size limit cuts the second run's write short: exit 2 naming the
    # report, which keeps the first run's bytes, and no temporary file is left.
    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
    def test_a_failed_write_keeps_the_earlier_report(self, tmp_path):
        import resource

        report = tmp_path / "r.json"
        argv = [*write_field_inputs(tmp_path, "eval-vqa"), "--report", report]
        assert run_process(*argv).returncode == 0
        before = report.read_bytes()

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2,) * 2)

        proc = run_process(*argv, preexec_fn=limit_file_size)
        assert (proc.returncode, TestDeviceOutputs.error_lines(proc)) == (2, [f"ERROR cap2qa: cannot write {report}: File too large"])
        assert report.read_bytes() == before
        assert list(tmp_path.glob("r.json.tmp-*")) == []

    # A symlink is followed: the link stays, and the file it points to, in
    # another directory, gets the new report.
    def test_a_symlinked_report_replaces_the_file_it_points_to(self, tmp_path, caplog):
        (tmp_path / "reports").mkdir()
        real, link = tmp_path / "reports" / "r.json", tmp_path / "link.json"
        real.write_text("earlier\n", encoding="utf-8")
        link.symlink_to(Path("reports", "r.json"))
        assert run_main(caplog, *write_field_inputs(tmp_path, "eval-vqa"), "--report", link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(Path("reports", "r.json"))
        assert json.loads(real.read_text(encoding="utf-8"))["command"] == "eval-vqa"
        assert [p.name for p in real.parent.iterdir()] == ["r.json"]

    # A FIFO is written in place, since a rename over it would replace the
    # node. The reader opens first, without blocking; the small report fits
    # the pipe's buffer.
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_report_is_written_in_place(self, tmp_path, caplog):
        fifo = tmp_path / "r.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_main(caplog, *write_field_inputs(tmp_path, "eval-vqa"), "--report", fifo)[0] == 0
            report = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert fifo.is_fifo()
        assert json.loads(report)["command"] == "eval-vqa"


class TestReportInPieces:
    """A report is written to its handle in pieces: neither its whole text nor its encoded bytes is held."""

    @pytest.mark.parametrize("command", ["eval-chair", "eval-vqa", "eval-caption"])
    def test_stdout_gets_the_bytes_of_the_report_file(self, tmp_path, caplog, capsysbinary, monkeypatch, command):
        monkeypatch.setattr(cli, "_clock", lambda args: FixedClock(datetime(2024, 1, 1, tzinfo=timezone.utc)))
        argv = write_field_inputs(tmp_path, command)
        assert run_main(caplog, *argv)[0] == 0
        printed = capsysbinary.readouterr().out
        assert run_main(caplog, *argv, "--report", tmp_path / "r.json")[0] == 0
        assert printed == (tmp_path / "r.json").read_bytes()

    # stdout is not a file that can be replaced whole, so the pieces before the
    # one that cannot be encoded may reach it; the run is still exit 1, in one line.
    def test_a_report_stdout_cannot_encode_is_exit_1_in_one_error_line(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        argv = write_field_inputs(tmp_path, "eval-vqa")
        write_jsonl(tmp_path / "vqa-pred.jsonl", [{"question_id": "q\u00e9", "prediction": "cat"}])
        write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q\u00e9", "answers": ["cat"]}])
        proc = run_process(*argv)
        errors = TestDeviceOutputs.error_lines(proc)
        assert (proc.returncode, len(errors)) == (1, 1)
        assert errors[0].startswith("ERROR cap2qa: 'ascii' codec can't encode character '\\xe9'")

    # A report over 1 MB is written while the traced heap grows by under half
    # its size; rendered whole and then written, it took about 3.5 times it.
    def test_a_large_report_is_written_without_holding_it(self, tmp_path):
        names = ["baseball glove", "tennis racket", "traffic light", "fire hydrant", "parking meter", "dining table"]
        rows = [{"image_id": i, "mentioned": names, "hallucinated": names[:3], "true_positives": names[3:]} for i in range(2400)]
        args = argparse.Namespace(command="eval-chair", report=str(tmp_path / "r.json"))
        clock = FixedClock(datetime(2024, 1, 1, tzinfo=timezone.utc))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cli._emit(args, clock.now(), clock, [], {"n_answers": len(rows)}, {"per_answer": rows})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = (tmp_path / "r.json").stat().st_size
        assert size >= 1 << 20
        assert peak < size / 2, f"{peak} bytes traced writing a {size}-byte report"
        assert json.loads((tmp_path / "r.json").read_bytes())["details"]["per_answer"] == rows


@pytest.fixture
def mock_generate(tmp_path):
    """Arguments of a valid mock-backend generate run, for error cases to extend."""
    captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits.")])
    script = write_jsonl(tmp_path / "script.jsonl", [{"response_text": "Question: Q?\nAnswer: A."}])
    return ["generate", "--captions", captions, "--out", tmp_path / "o.jsonl", "--backend", "mock", "--script", script]


# A line nested past the parser's recursion limit is one error line, not a RecursionError traceback.
def test_a_deeply_nested_prediction_line_is_exit_1_in_one_line(tmp_path):
    argv = write_field_inputs(tmp_path, "eval-vqa")
    pred = tmp_path / "vqa-pred.jsonl"
    pred.write_text("[" * 100000 + "\n", encoding="utf-8")
    proc = run_process(*argv)
    assert (proc.returncode, proc.stderr.splitlines()) == (1, [f"ERROR cap2qa: {pred}:1: nested too deeply"])


# PyYAML costs about 1 MB and 10-16 ms to import; a run that reads no YAML file never pays either.
def test_importing_the_cli_leaves_pyyaml_unimported():
    src = str(Path(cap2qa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, cap2qa.cli; print('yaml' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestInputErrors:
    @pytest.mark.parametrize("flag", ["--config", "--rules", "--prompt"])
    @pytest.mark.parametrize("content", [None, BAD_YAML], ids=["missing", "malformed"])
    def test_bad_yaml_is_exit_1_in_one_line(self, tmp_path, caplog, mock_generate, flag, content):
        path = tmp_path / "bad.yaml"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code, lines = run_main(caplog, *mock_generate, flag, path)
        assert code == 1
        assert len(lines) == 1
        if content is None:
            assert lines[0] == f"no such file: {path}"
        else:
            assert lines[0].startswith(f"{path}: malformed YAML at line 2: ")

    def test_malformed_config_prints_one_stderr_line(self, tmp_path, mock_generate):
        config = tmp_path / "bad.yaml"
        config.write_text(BAD_YAML, encoding="utf-8")
        proc = run_process(*mock_generate, "--config", config)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR cap2qa: {config}: malformed YAML at line 2: expected ',' or ']', but got '<stream end>'"
        ]

    # PyYAML composes 1000 nested flow sequences past Python's recursion limit, in about 0.1 s in process.
    def test_deeply_nested_config_is_exit_1_in_one_line(self, tmp_path, caplog, mock_generate):
        config = tmp_path / "deep.yaml"
        config.write_text("[" * 1000 + "\n", encoding="utf-8")
        code, lines = run_main(caplog, *mock_generate, "--config", config)
        assert (code, lines) == (1, [f"{config}: nested too deeply"])

    # A second entry for one prompt would silently replace the first: exit 1 naming it, before --out is touched.
    def test_repeated_prompt_hash_is_exit_1_naming_the_second_entry(self, tmp_path, caplog, mock_generate):
        caption = (1, 10, "A cat sits.")
        rows = hash_script_rows([(caption, "Question: Q?\nAnswer: A."), (caption, "Question: R?\nAnswer: B.")])
        script = write_jsonl(tmp_path / "script.jsonl", rows)
        code, lines = run_main(caplog, *mock_generate)
        assert (code, lines) == (1, [f"{script}:2: repeated 'prompt_hash' {rows[0]['prompt_hash']}, which an earlier entry answers"])
        assert not (tmp_path / "o.jsonl").exists()

    def test_config_that_is_not_a_mapping_is_exit_1(self, tmp_path, caplog, mock_generate):
        config = tmp_path / "cfg.yaml"
        config.write_text("- retry\n", encoding="utf-8")
        code, lines = run_main(caplog, *mock_generate, "--config", config)
        assert (code, lines) == (1, [f"{config}: config must be a mapping"])

    def test_mock_backend_without_script_is_exit_1(self, tmp_path, caplog, mock_generate):
        argv = mock_generate[: mock_generate.index("--script")]
        code, lines = run_main(caplog, *argv)
        assert (code, lines) == (1, ["mock backend requires --script"])
        assert not (tmp_path / "o.jsonl").exists()

    # requests cannot send to a URL without an http(s) scheme and a host, and
    # the client would retry that as an outage: exit 1 at once, from any source.
    @pytest.mark.parametrize("source", ["flag", "environment", "config"])
    def test_malformed_base_url_is_exit_1_before_out_is_touched(self, tmp_path, caplog, monkeypatch, source):
        posts = []
        monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: posts.append(url))
        monkeypatch.delenv("CAP2QA_BASE_URL", raising=False)
        captions = write_caption_file(tmp_path / "c.json", [(1, 10, "A cat sits.")])
        argv = ["generate", "--captions", captions, "--out", tmp_path / "o.jsonl", "--retry", "1"]
        if source == "flag":
            argv += ["--base-url", "localhost:8000/v1"]
            where = "command line: --base-url"
        elif source == "environment":
            monkeypatch.setenv("CAP2QA_BASE_URL", "localhost:8000/v1")
            where = "environment: CAP2QA_BASE_URL"
        else:
            config = tmp_path / "cfg.yaml"
            config.write_text("base_url: localhost:8000/v1\n", encoding="utf-8")
            argv += ["--config", config]
            where = f"{config}: 'base_url'"
        code, lines = run_main(caplog, *argv)
        assert (code, lines) == (1, [f"{where} must be an http:// or https:// URL with a host, got 'localhost:8000/v1'"])
        assert not (tmp_path / "o.jsonl").exists()
        assert posts == []

    def test_missing_script_is_exit_1(self, tmp_path, caplog, mock_generate):
        script = Path(mock_generate[mock_generate.index("--script") + 1])
        script.unlink()
        code, lines = run_main(caplog, *mock_generate)
        assert (code, lines) == (1, [f"no such file: {script}"])

    def test_non_object_script_line_is_exit_1(self, tmp_path, caplog, mock_generate):
        script = Path(mock_generate[mock_generate.index("--script") + 1])
        script.write_text("5\n", encoding="utf-8")
        code, lines = run_main(caplog, *mock_generate)
        assert (code, lines) == (1, [f"{script}:1: expected a JSON object"])

    @pytest.mark.parametrize("flag", ["--categories", "--synonyms"])
    def test_missing_lexicon_file_is_exit_1(self, tmp_path, caplog, flag):
        instances = write_instance_file(tmp_path / "inst.json", categories={1: "cat"}, annotations=[(10, 1)])
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a cat"}])
        cats = tmp_path / "cats.txt"
        cats.write_text("cat\n", encoding="utf-8")
        missing = tmp_path / "absent.txt"
        lexicon = {"--categories": cats, flag: missing}
        argv = ["eval-chair", "--answers", answers, "--instances", instances]
        code, lines = run_main(caplog, *argv, *(arg for pair in lexicon.items() for arg in pair))
        assert (code, lines) == (1, [f"no such file: {missing}"])

    def test_synonyms_without_categories_is_exit_1(self, tmp_path, caplog):
        instances = write_instance_file(tmp_path / "inst.json", categories={1: "cat"}, annotations=[(10, 1)])
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a moggy"}])
        synonyms = tmp_path / "syns.txt"
        synonyms.write_text("cat, moggy\n", encoding="utf-8")
        argv = ["eval-chair", "--answers", answers, "--instances", instances, "--synonyms", synonyms]
        code, lines = run_main(caplog, *argv)
        assert (code, lines) == (1, ["--synonyms requires --categories"])

    @pytest.mark.parametrize(
        "categories, synonyms, where, message",
        [
            ("cat\ndog\ncat\n", "", "cats.txt:3", "duplicate category: 'cat'"),
            ("cat\n---\n", "", "cats.txt:2", "empty surface form for category '---'"),
            ("cat\n", "# extras\ncat, kitty\ndog, puppy\n", "syns.txt:3", "synonyms reference unknown category: 'dog'"),
            ("cat\ndog\n", "cat, pet\n\ndog, pet\n", "syns.txt:3", "surface form 'pet' maps to both 'cat' and 'dog'"),
            ("table\ndining table\n", "dining table, table\n", "syns.txt:1", "surface form 'table' maps to both 'table' and 'dining table'"),
            ("cat\n", "cat, kitty, ...\n", "syns.txt:1", "empty surface form for category 'cat'"),
            ("# none yet\n\n", "", "cats.txt", "no categories"),
        ],
        ids=["duplicate-category", "empty-category", "unknown-category", "shared-synonym", "synonym-is-category", "empty-synonym", "comments-only"],
    )
    def test_bad_lexicon_line_is_exit_1_naming_it(self, tmp_path, caplog, categories, synonyms, where, message):
        instances = write_instance_file(tmp_path / "inst.json", categories={1: "cat"}, annotations=[(10, 1)])
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a cat"}])
        (tmp_path / "cats.txt").write_text(categories, encoding="utf-8")
        (tmp_path / "syns.txt").write_text(synonyms, encoding="utf-8")
        argv = ["eval-chair", "--answers", answers, "--instances", instances]
        lexicon = ["--categories", tmp_path / "cats.txt", "--synonyms", tmp_path / "syns.txt"]
        code, lines = run_main(caplog, *argv, *lexicon)
        assert (code, lines) == (1, [f"{tmp_path / where}: {message}"])

    # With the second name kept, "cat" would count as hallucinated.
    def test_repeated_category_id_is_exit_1(self, tmp_path, caplog):
        instances = tmp_path / "inst.json"
        payload = {
            "images": [{"id": 10}],
            "categories": [{"id": 1, "name": "cat"}, {"id": 1, "name": "dog"}],
            "annotations": [{"image_id": 10, "category_id": 1}],
        }
        instances.write_text(json.dumps(payload), encoding="utf-8")
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a cat and a dog"}])
        code, lines = run_main(caplog, "eval-chair", "--answers", answers, "--instances", instances)
        assert (code, lines) == (1, [f"{instances}: categories[1]: repeated id 1"])

    def test_repeated_gt_question_id_is_exit_1(self, tmp_path, caplog):
        gt = write_jsonl(
            tmp_path / "gt.jsonl",
            [{"question_id": 1, "answer": "dog"}, {"question_id": 1, "answer": "cat"}],
        )
        pred = write_jsonl(tmp_path / "p.jsonl", [{"question_id": 1, "prediction": "dog"}])
        code, lines = run_main(caplog, "eval-vqa", "--pred", pred, "--gt", gt)
        assert (code, lines) == (1, [f"{gt}:2: repeated id '1'"])

    def test_repeated_pred_question_id_is_exit_1(self, tmp_path, caplog):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q1", "answer": "dog"}, {"question_id": "q2", "answer": "cat"}])
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {"question_id": "q1", "prediction": "dog"},
                {"question_id": "q2", "prediction": "cat"},
                {"qid": "q1", "prediction": "cat"},
            ],
        )
        code, lines = run_main(caplog, "eval-vqa", "--pred", pred, "--gt", gt)
        assert (code, lines) == (1, [f"{pred}:3: repeated id 'q1'"])

    # One repeat rule for every prediction row: an id that --gt lacks is not counted twice as ignored.
    def test_repeated_pred_question_id_not_in_gt_is_exit_1(self, tmp_path, caplog):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": "q1", "answer": "dog"}])
        pred = write_jsonl(
            tmp_path / "p.jsonl",
            [{"question_id": "9", "prediction": "dog"}, {"question_id": "9", "prediction": "cat"}, {"question_id": "q1", "prediction": "dog"}],
        )
        code, lines = run_main(caplog, "eval-vqa", "--pred", pred, "--gt", gt)
        assert (code, lines) == (1, [f"{pred}:2: repeated id '9'"])

    def test_empty_caption_predictions_is_exit_1(self, tmp_path, caplog):
        refs = write_jsonl(tmp_path / "refs.jsonl", [{"image_id": 1, "captions": ["a red bird"]}])
        pred = write_jsonl(tmp_path / "pred.jsonl", [])
        code, lines = run_main(caplog, "eval-caption", "--pred", pred, "--refs", refs)
        assert (code, lines) == (1, [f"{pred}: no predictions to score"])

    # A bad setting fails before --out is touched, even where --no-resume
    # would empty it, and the error names the setting.
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--temperature", "5", "temperature must be in [0, 2], got 5.0"),
            ("--max-output-tokens", "0", "max_output_tokens must be positive, got 0"),
            ("--rate-limit-rpm", "0", "rate_limit_rpm must be >= 1, got 0"),
            ("--rate-limit-rpm", "-1", "rate_limit_rpm must be >= 1, got -1"),
            ("--retry", "0", "retry must be >= 1"),
            ("--workers", "0", "workers must be >= 1"),
            ("--fixed-clock", "yesterday", "--fixed-clock: Invalid isoformat string: 'yesterday'"),
            ("--rules", "{tmp}/empty-rules.yaml", "{tmp}/empty-rules.yaml: rules must be non-empty"),
        ],
        ids=["temperature", "max-output-tokens", "rpm-zero", "rpm-negative", "retry", "workers", "fixed-clock", "empty-rules"],
    )
    def test_bad_generate_setting_leaves_out_untouched(self, tmp_path, caplog, mock_generate, flag, value, message):
        (tmp_path / "empty-rules.yaml").write_text("rules: []\n", encoding="utf-8")
        value, message = value.format(tmp=tmp_path), message.format(tmp=tmp_path)
        assert main([str(a) for a in mock_generate]) == 0
        out = tmp_path / "o.jsonl"
        before = out.read_bytes()
        assert before
        caplog.clear()
        code, lines = run_main(caplog, *mock_generate, "--no-resume", flag, value)
        assert (code, lines) == (1, [message])
        assert out.read_bytes() == before

    # A JSON escape such as \ud83d decodes to a lone surrogate, which no
    # UTF-8 file can hold: bad input, named where it enters, before --out.
    @pytest.mark.parametrize(
        "flag, text, where",
        [
            ("--captions", '{"annotations": [{"id": 1, "image_id": 10, "caption": "A cat \\ud83d."}]}', ": annotations[0]: 'caption'"),
            ("--script", '{"response_text": "Question: Q?\\nAnswer: \\ud83d."}\n', ":1: 'response_text'"),
        ],
        ids=["captions", "script"],
    )
    def test_lone_surrogate_is_exit_1_before_out_is_touched(self, tmp_path, caplog, mock_generate, flag, text, where):
        assert main([str(a) for a in mock_generate]) == 0
        out = tmp_path / "o.jsonl"
        before = out.read_bytes()
        path = Path(mock_generate[mock_generate.index(flag) + 1])
        path.write_text(text, encoding="utf-8")
        caplog.clear()
        code, lines = run_main(caplog, *mock_generate, "--no-resume", "--cache-dir", tmp_path / "cache")
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"{path}{where} holds a lone surrogate '\\ud83d' at index ")
        assert out.read_bytes() == before
        assert not (tmp_path / "cache").exists()

    # The same holds for a text setting given by the environment or a flag,
    # where a non-UTF-8 byte decodes to a lone surrogate such as \udcff.
    @pytest.mark.parametrize(
        "env, flag, source",
        [
            ("CAP2QA_MODEL", None, "environment: CAP2QA_MODEL"),
            ("CAP2QA_BASE_URL", None, "environment: CAP2QA_BASE_URL"),
            (None, "--model", "command line: --model"),
            (None, "--base-url", "command line: --base-url"),
        ],
        ids=["env-model", "env-base-url", "flag-model", "flag-base-url"],
    )
    def test_lone_surrogate_in_a_text_setting_is_exit_1_before_out_is_touched(
        self, tmp_path, caplog, monkeypatch, mock_generate, env, flag, source
    ):
        assert main([str(a) for a in mock_generate]) == 0
        out = tmp_path / "o.jsonl"
        before = out.read_bytes()
        if env:
            monkeypatch.setenv(env, "gpt\udcff")
        caplog.clear()
        code, lines = run_main(caplog, *mock_generate, "--no-resume", *([flag, "gpt\udcff"] if flag else []))
        assert (code, lines) == (1, [f"{source} holds a lone surrogate '\\udcff' at index 3"])
        assert out.read_bytes() == before

    # An empty path setting would mean the working directory (or no file):
    # exit 1 naming its source, before --out is touched or a cache entry written.
    @pytest.mark.parametrize("key", ["cache_dir", "rules", "prompt", "script"])
    @pytest.mark.parametrize("source", ["command line", "config"])
    def test_empty_path_setting_is_exit_1_before_out_is_touched(self, tmp_path, caplog, monkeypatch, mock_generate, key, source):
        monkeypatch.chdir(tmp_path)
        assert main([str(a) for a in mock_generate]) == 0
        out = tmp_path / "o.jsonl"
        before = out.read_bytes()
        flag = "--" + key.replace("_", "-")
        if source == "config":
            config = tmp_path / "cfg.yaml"
            config.write_text(f'{key}: ""\n', encoding="utf-8")
            extra, expected = ["--config", config], f"{config}: {key!r} must not be empty"
        else:
            extra, expected = [flag, ""], f"command line: {flag} must not be empty"
        before_files = sorted(os.listdir(tmp_path))
        caplog.clear()
        code, lines = run_main(caplog, *mock_generate, "--no-resume", *extra)
        assert (code, lines) == (1, [expected])
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == before_files

    # A config string may hold a lone surrogate, which no file name can.
    @pytest.mark.parametrize("key, value", [("cache_dir", "c\ud83d"), ("rules", "r\ud83d.yaml")])
    def test_path_setting_that_is_not_a_file_name_is_exit_1_naming_the_key(self, tmp_path, caplog, mock_generate, key, value):
        config = tmp_path / "cfg.yaml"
        config.write_text(f"{key}: {json.dumps(value)}\n", encoding="utf-8")
        code, lines = run_main(caplog, *mock_generate, "--config", config)
        assert (code, lines) == (1, [f"{config}: {key!r} is not a file name: it holds '\\ud83d' at index 1"])
        assert not (tmp_path / "o.jsonl").exists()

    def test_unknown_backend_flag_is_exit_1_naming_it(self, caplog, mock_generate):
        argv = list(mock_generate)
        argv[argv.index("--backend") + 1] = "foo"
        code, lines = run_main(caplog, *argv)
        assert (code, lines) == (1, ["command line: --backend must be http or mock, got 'foo'"])

    # An empty reply from a backend stops the run with exit 2; an empty one in
    # a script is bad input, named when the script is loaded.
    @pytest.mark.parametrize("keyed", [False, True], ids=["ordered", "hash-keyed"])
    def test_empty_response_text_is_exit_1_before_out_is_touched(self, tmp_path, caplog, keyed):
        entries = [(1, 10, "A cat sits."), (2, 11, "A dog runs.")]
        captions = write_caption_file(tmp_path / "c.json", entries)
        rows = hash_script_rows(zip(entries, ["Question: What sits?\nAnswer: A cat.", ""]))
        script = write_jsonl(tmp_path / "s.jsonl", rows if keyed else [{"response_text": r["response_text"]} for r in rows])
        out = tmp_path / "o.jsonl"
        code, lines = run_main(caplog, "generate", "--captions", captions, "--out", out, "--backend", "mock", "--script", script)
        assert (code, lines) == (1, [f"{script}:2: 'response_text' must be non-empty"])
        assert not out.exists()

    # A question id reaches the report, so one with a lone surrogate is bad
    # input, named where it is read, before an earlier report is touched.
    @pytest.mark.parametrize("name", ["gt.jsonl", "vqa-pred.jsonl"])
    def test_lone_surrogate_in_a_question_id_is_exit_1_and_keeps_the_report(self, tmp_path, caplog, name):
        argv = write_field_inputs(tmp_path, "eval-vqa")
        report = tmp_path / "report.json"
        assert run_main(caplog, *argv, "--report", report)[0] == 0
        before = report.read_bytes()
        row = {**FIELD_INPUTS[name][0], "question_id": "q\ud83d"}
        (tmp_path / name).write_text(json.dumps(row) + "\n", encoding="utf-8")
        caplog.clear()
        code, lines = run_main(caplog, *argv, "--report", report)
        assert (code, lines) == (1, [f"{tmp_path / name}:1: 'question_id' holds a lone surrogate '\\ud83d' at index 1"])
        assert report.read_bytes() == before

    def test_repeated_refs_image_id_is_exit_1(self, tmp_path, caplog):
        refs = write_jsonl(
            tmp_path / "refs.jsonl",
            [
                {"image_id": 1, "captions": ["a red bird"]},
                {"image_id": 2, "captions": ["two dogs"]},
                {"image": 1, "caption": "a blue bird"},
            ],
        )
        pred = write_jsonl(tmp_path / "pred.jsonl", [{"image_id": 1, "caption": "a red bird"}])
        code, lines = run_main(caplog, "eval-caption", "--pred", pred, "--refs", refs)
        assert (code, lines) == (1, [f"{refs}:3: repeated id 1"])

    def test_repeated_pred_image_id_is_exit_1(self, tmp_path, caplog):
        refs = write_jsonl(
            tmp_path / "refs.jsonl",
            [{"image_id": 1, "captions": ["a red bird"]}, {"image_id": 2, "captions": ["two dogs"]}],
        )
        pred = write_jsonl(
            tmp_path / "pred.jsonl",
            [
                {"image_id": 1, "caption": "a red bird"},
                {"image_id": 2, "caption": "two dogs"},
                {"image": 1, "caption": "a blue bird"},
            ],
        )
        code, lines = run_main(caplog, "eval-caption", "--pred", pred, "--refs", refs)
        assert (code, lines) == (1, [f"{pred}:3: repeated id 1"])

    @pytest.mark.parametrize(
        "command, ref_file, ref_row, pred_row",
        [
            ("eval-caption", "--refs", {"image_id": 1, "captions": []}, {"image_id": 1, "caption": "a red bird"}),
            ("eval-vqa", "--gt", {"question_id": 1, "answers": []}, {"question_id": 1, "prediction": "dog"}),
        ],
    )
    def test_empty_reference_list_is_exit_1(self, tmp_path, caplog, command, ref_file, ref_row, pred_row):
        refs = write_jsonl(tmp_path / "refs.jsonl", [ref_row])
        pred = write_jsonl(tmp_path / "pred.jsonl", [pred_row])
        code, lines = run_main(caplog, command, "--pred", pred, ref_file, refs)
        assert (code, lines) == (1, [f"{refs}:1: references must be non-empty"])

    def test_answer_without_annotation_is_exit_1(self, tmp_path, caplog):
        instances = write_instance_file(tmp_path / "inst.json", categories={1: "cat"}, annotations=[(10, 1)])
        answers = write_jsonl(tmp_path / "a.jsonl", [{"image_id": 10, "answer": "a cat"}, {"image_id": 2, "answer": "a dog"}])
        code, lines = run_main(caplog, "eval-chair", "--answers", answers, "--instances", instances)
        assert (code, lines) == (1, [f"{answers}:2: no object annotation for image_id 2 in {instances}"])

    @pytest.mark.parametrize("key, value", [("image_id", [1]), ("image", {"id": 1}), ("img_id", [])])
    def test_lenient_stats_list_or_object_image_id_is_exit_1(self, tmp_path, caplog, key, value):
        data = write_jsonl(tmp_path / "foreign.jsonl", [{"image": "a.jpg", "answer": "x"}, {key: value, "answer": "y"}])
        code, lines = run_main(caplog, "stats", "--dataset", data, "--lenient")
        shown = json.dumps(value)
        assert (code, lines) == (1, [f"{data}:2: {key!r} must not be a list or an object, got {shown}"])

    def test_non_list_reference_is_exit_1(self, tmp_path, caplog):
        gt = write_jsonl(tmp_path / "gt.jsonl", [{"question_id": 1, "answer": 5}])
        pred = write_jsonl(tmp_path / "p.jsonl", [{"question_id": 1, "prediction": "5"}])
        code, lines = run_main(caplog, "eval-vqa", "--pred", pred, "--gt", gt)
        assert (code, lines) == (1, [f"{gt}:1: references must be a string or a list"])

    @pytest.mark.parametrize(
        "payload",
        [
            {"command": "x"},
            {"command": "x", "started_at": "yesterday", "finished_at": "2024-05-01T00:00:00+00:00"},
            ["not", "a", "report"],
            {"command": "x", "started_at": "2024-05-01T00:00:00", "finished_at": "2024-05-01T00:00:00", "metrics": [1]},
            {"command": "x", "started_at": "2024-05-01T00:00:00", "finished_at": "2024-05-01T00:00:00", "inputs": ["a"]},
            {"command": ["x"], "started_at": "2024-05-01T00:00:00", "finished_at": "2024-05-01T00:00:00"},
            {"command": "x", "started_at": "2024-05-01T00:00:00", "finished_at": "2024-05-01T00:00:00", "tool_version": [1]},
            {"command": "x", "started_at": "2024-05-01T00:00:00", "finished_at": "2024-05-01T00:00:00", "details": []},
        ],
        ids=[
            "missing-fields",
            "bad-timestamp",
            "not-an-object",
            "metrics-not-an-object",
            "inputs-not-an-object",
            "command-not-a-string",
            "tool-version-not-a-string",
            "details-not-an-object",
        ],
    )
    def test_bad_report_is_exit_1_in_one_line(self, tmp_path, caplog, payload):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, lines = run_main(caplog, "report", "--in", path)
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"{path}: ")


# --- wrongly typed fields: exit 1 with one line naming the file and the key ---

# Valid inputs for every command, about image 1 (and 2 for CIDEr), question 1 and category 1.
FIELD_INPUTS = {
    "captions.json": {"images": [{"id": 1}], "annotations": [{"id": 1, "image_id": 1, "caption": "A cat sits."}]},
    "instances.json": {
        "images": [{"id": 1}],
        "categories": [{"id": 1, "name": "cat"}],
        "annotations": [{"image_id": 1, "category_id": 1}],
    },
    "answers.jsonl": [{"image_id": 1, "answer": "a cat"}],
    "vqa-pred.jsonl": [{"question_id": 1, "prediction": "cat"}],
    "gt.jsonl": [{"question_id": 1, "answers": ["cat"]}],
    "caption-pred.jsonl": [{"image_id": 1, "caption": "a cat"}, {"image_id": 2, "caption": "a dog"}],
    "refs.jsonl": [{"image_id": 1, "captions": ["a cat"]}, {"image_id": 2, "captions": ["a dog"]}],
    "script.jsonl": [{"response_text": "Question: What sits?\nAnswer: A cat."}],
}
FIELD_COMMANDS = {
    "generate": ["generate", "--captions", "captions.json", "--out", "out.jsonl", "--backend", "mock", "--script", "script.jsonl"],
    "eval-chair": ["eval-chair", "--answers", "answers.jsonl", "--instances", "instances.json"],
    "eval-vqa": ["eval-vqa", "--pred", "vqa-pred.jsonl", "--gt", "gt.jsonl"],
    "eval-caption": ["eval-caption", "--pred", "caption-pred.jsonl", "--refs", "refs.jsonl"],
}
# (command, file, array of the JSON file or None for the first JSONL row, key)
ID_FIELDS = [
    ("generate", "captions.json", "annotations", "id"),
    ("generate", "captions.json", "annotations", "image_id"),
    ("eval-chair", "instances.json", "categories", "id"),
    ("eval-chair", "instances.json", "images", "id"),
    ("eval-chair", "instances.json", "annotations", "image_id"),
    ("eval-chair", "instances.json", "annotations", "category_id"),
    ("eval-chair", "answers.jsonl", None, "image_id"),
    ("eval-vqa", "vqa-pred.jsonl", None, "question_id"),
    ("eval-vqa", "gt.jsonl", None, "question_id"),
    ("eval-caption", "caption-pred.jsonl", None, "image_id"),
    ("eval-caption", "refs.jsonl", None, "image_id"),
]
BAD_FIELDS = [
    pytest.param(command, name, array, key, value, id=f"{name}-{array or 'row'}-{key}-{label}")
    for command, name, array, key in ID_FIELDS
    for label, value in (("null", None), ("true", True), ("list", [1]))
] + [pytest.param("generate", "script.jsonl", None, "response_text", None, id="script.jsonl-row-response_text-null")]


def write_field_inputs(tmp_path, command, name=None, array=None, key=None, value=None):
    """Write FIELD_INPUTS with one field replaced; return the command's argv."""
    for file_name, payload in FIELD_INPUTS.items():
        payload = json.loads(json.dumps(payload))
        if file_name == name:
            (payload[array] if array else payload)[0][key] = value
        if file_name.endswith(".jsonl"):
            write_jsonl(tmp_path / file_name, payload)
        else:
            (tmp_path / file_name).write_text(json.dumps(payload), encoding="utf-8")
    return [str(tmp_path / a) if "." in a else a for a in FIELD_COMMANDS[command]]


class TestFieldErrors:
    @pytest.mark.parametrize("command", FIELD_COMMANDS)
    def test_valid_inputs_pass(self, tmp_path, caplog, command):
        code, _ = run_main(caplog, *write_field_inputs(tmp_path, command))
        assert code == 0

    @pytest.mark.parametrize("command, name, array, key, value", BAD_FIELDS)
    def test_bad_field_is_exit_1_naming_file_and_key(self, tmp_path, caplog, command, name, array, key, value):
        code, lines = run_main(caplog, *write_field_inputs(tmp_path, command, name, array, key, value))
        assert code == 1
        assert len(lines) == 1
        assert str(tmp_path / name) in lines[0] and f"'{key}'" in lines[0]

    @pytest.mark.parametrize(
        "content, key",
        [
            ("worker: 8\n", "worker"),
            ("workers: [2]\n", "workers"),
            ("retry: null\n", "retry"),
            ("rules: [a]\n", "rules"),
            ("backend: foo\n", "backend"),
            ("backend: foo\nbase_url: http://localhost:1\n", "backend"),
            ('model: "gpt\\ud83d"\n', "model"),
            ('base_url: "http://localhost:1/\\ud83d"\n', "base_url"),
        ],
    )
    def test_bad_config_is_exit_1_naming_file_and_key(self, tmp_path, caplog, content, key):
        config = tmp_path / "cfg.yaml"
        config.write_text(content, encoding="utf-8")
        code, lines = run_main(caplog, *write_field_inputs(tmp_path, "generate"), "--config", config)
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith(f"{config}: ") and f"'{key}'" in lines[0]


# The benchmark wraps ``cli._read_jsonl`` and counts the rows it returns; a reader that bypassed it would read 0 there.
@pytest.mark.parametrize("command", ["eval-chair", "eval-vqa", "eval-caption"])
def test_every_eval_jsonl_input_is_read_once_through_read_jsonl(tmp_path, caplog, monkeypatch, command):
    calls = []
    read_jsonl = cli._read_jsonl

    def spy(path, *args):
        rows = read_jsonl(path, *args)
        calls.append((path, len(rows)))
        return rows

    monkeypatch.setattr(cli, "_read_jsonl", spy)
    argv = write_field_inputs(tmp_path, command)
    assert run_main(caplog, *argv)[0] == 0
    jsonl_inputs = [arg for arg in argv if arg.endswith(".jsonl")]
    assert sorted(calls) == sorted((path, len(FIELD_INPUTS[Path(path).name])) for path in jsonl_inputs)


# --- rule and prompt files: each field is read through the checked reader ---

RULE = {"rule_id": "no-caption", "scope": "either", "pattern": "caption"}
PROMPT = {"bottom_rules": ["Stay on the caption."], "task_description": "Ask about it.", "conditions": ["One pair."]}
BAD_VALUES = [("null", None), ("true", True), ("list", ["x"]), ("object", {"x": 1})]


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "flag, doc, key",
    [
        pytest.param("--rules", {"rules": [{**RULE, key: value}]}, key, id=f"rules-{key}-{label}")
        for key in ("rule_id", "scope", "pattern", "description")
        for label, value in BAD_VALUES
    ]
    + [
        pytest.param("--prompt", {**PROMPT, key: value}, key, id=f"prompt-{key}-{label}")
        for key in ("task_description", "label")
        for label, value in BAD_VALUES
    ]
    + [
        pytest.param("--prompt", {**PROMPT, key: [value]}, key, id=f"prompt-{key}-item-{label}")
        for key in ("bottom_rules", "conditions")
        for label, value in BAD_VALUES
    ],
)
def test_bad_rule_or_prompt_field_is_exit_1_naming_file_and_key(tmp_path, caplog, mock_generate, flag, doc, key):
    path = write_yaml(tmp_path / "file.yaml", doc)
    code, lines = run_main(caplog, *mock_generate, flag, path)
    assert code == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"{path}: ")
    assert f"'{key}' must be" in lines[0] or f"{key}[0] must be" in lines[0]


# Our own settings formats name a misspelt key instead of dropping it; --config is TestFieldErrors' 'worker' case.
@pytest.mark.parametrize(
    "flag, name, doc, where, key, known",
    [
        ("--rules", "rules.yaml", {"rules": [RULE], "extra_top": 1}, "", "extra_top", "rules"),
        ("--rules", "rules.yaml", {"rules": [{**RULE, "descripton": "x", "flags": "i"}]}, ": rules[0]", "descripton", "rule_id, scope, pattern, description"),
        ("--prompt", "prompt.yaml", {**PROMPT, "lable": "mine"}, "", "lable", "label, bottom_rules, task_description, conditions"),
        ("--script", "script.jsonl", {"response_text": "Question: Q?\nAnswer: A.", "promt_hash": "0" * 64}, ":1", "promt_hash", "response_text, prompt_hash"),
    ],
    ids=["rules-top-level", "rules-entry", "prompt", "script-row"],
)
def test_unknown_key_is_exit_1_naming_file_and_key(tmp_path, caplog, mock_generate, flag, name, doc, where, key, known):
    path = tmp_path / name
    if name.endswith(".jsonl"):
        write_jsonl(path, [doc])
    else:
        write_yaml(path, doc)
    code, lines = run_main(caplog, *mock_generate, flag, path)
    assert (code, lines) == (1, [f"{path}{where}: unknown key {key!r} (known: {known})"])
    assert not (tmp_path / "o.jsonl").exists()


# A prompt string reaches every record through the version tag or the
# prompt, so one with a lone surrogate is named by its key. Without a
# 'label' the tag takes the file name, which may hold a non-UTF-8 byte.
@pytest.mark.parametrize(
    "file_name, doc, name",
    [
        ("prompt.yaml", {**PROMPT, "bottom_rules": ["Stay \ud83d."]}, "bottom_rules[0]"),
        ("prompt.yaml", {**PROMPT, "conditions": ["One \ud83d."]}, "conditions[0]"),
        ("prompt.yaml", {**PROMPT, "task_description": "Ask \ud83d."}, "'task_description'"),
        ("prompt.yaml", {**PROMPT, "label": "v\ud83d"}, "'label'"),
        (os.fsdecode(b"\xff.yaml"), PROMPT, "the file name (the default 'label')"),
    ],
    ids=["bottom-rules", "conditions", "task-description", "label", "file-name"],
)
def test_lone_surrogate_in_a_prompt_names_its_key(tmp_path, caplog, mock_generate, file_name, doc, name):
    path = tmp_path / file_name
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, lines = run_main(caplog, *mock_generate, "--prompt", path)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(f"{path}: {name} holds a lone surrogate '\\ud")
    assert not (tmp_path / "o.jsonl").exists()


# --- unreadable input files: exit 1 with one line naming the path ----------

# Every flag that names an input file, by command.
INPUT_FLAGS = [
    ("generate", "--captions"),
    ("generate", "--script"),
    ("generate", "--config"),
    ("generate", "--rules"),
    ("generate", "--prompt"),
    ("eval-chair", "--answers"),
    ("eval-chair", "--instances"),
    ("eval-chair", "--categories"),
    ("eval-chair", "--synonyms"),
    ("eval-vqa", "--pred"),
    ("eval-vqa", "--gt"),
    ("eval-caption", "--pred"),
    ("eval-caption", "--refs"),
    ("stats", "--dataset"),
    ("report", "--in"),
]


def argv_naming(tmp_path, command, flag, path):
    """A valid run of ``command`` whose ``flag`` names ``path``, added when the run does not use the flag."""
    argv = write_field_inputs(tmp_path, command) if command in FIELD_COMMANDS else [command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        argv += [flag, str(path)]
    if flag == "--synonyms":
        cats = tmp_path / "cats.txt"
        cats.write_text("cat\n", encoding="utf-8")
        argv += ["--categories", str(cats)]
    return argv


class TestUnreadableInputs:
    @pytest.mark.parametrize("command, flag", INPUT_FLAGS)
    def test_directory_is_exit_1_naming_it(self, tmp_path, caplog, command, flag):
        path = tmp_path / "a-directory"
        path.mkdir()
        code, lines = run_main(caplog, *argv_naming(tmp_path, command, flag, path))
        assert (code, lines) == (1, [f"{path}: is a directory, not a file"])

    @pytest.mark.parametrize("command, flag", INPUT_FLAGS)
    def test_non_utf8_file_is_exit_1_naming_file_and_line(self, tmp_path, caplog, command, flag):
        path = tmp_path / "latin-1.txt"
        path.write_bytes(b"\ncaf\xe9\n")
        code, lines = run_main(caplog, *argv_naming(tmp_path, command, flag, path))
        assert (code, lines) == (1, [f"{path}:2: not UTF-8 (invalid continuation byte)"])

    def test_directory_as_out_is_exit_2(self, tmp_path, caplog):
        argv = write_field_inputs(tmp_path, "generate")
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir()
        code, lines = run_main(caplog, *argv)
        assert code == 2 and lines[-1].startswith(f"cannot write {out}: ")

    # An empty path flag would name the working directory or no file: exit 1
    # naming the flag, before any input is read or --out or --report is touched.
    @pytest.mark.parametrize(
        "command, flag",
        INPUT_FLAGS
        + [("generate", "--out"), ("generate", "--cache-dir")]
        + [(command, "--report") for command in ("generate", "eval-chair", "eval-vqa", "eval-caption", "stats")],
    )
    def test_empty_path_flag_is_exit_1_naming_it(self, tmp_path, caplog, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)
        argv = argv_naming(tmp_path, command, flag, "")
        if command == "stats" and flag != "--dataset":
            argv += ["--dataset", write_jsonl(tmp_path / "empty.jsonl", [])]
        before = sorted(os.listdir(tmp_path))
        code, lines = run_main(caplog, *argv)
        assert (code, lines) == (1, [f"command line: {flag} must not be empty"])
        assert sorted(os.listdir(tmp_path)) == before

    # A --report that cannot be a file fails before the command starts: no
    # backend call, and --out is never opened.
    @pytest.mark.parametrize(
        "report, problem",
        [("a-directory", "is a directory"), ("missing/r.json", "no such directory {tmp}/missing")],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_report_is_exit_2_before_the_run(self, tmp_path, caplog, report, problem):
        (tmp_path / "a-directory").mkdir()
        argv = write_field_inputs(tmp_path, "generate")
        out = Path(argv[argv.index("--out") + 1])
        code, lines = run_main(caplog, *argv, "--report", tmp_path / report)
        assert (code, lines) == (2, [f"--report {tmp_path / report}: {problem.format(tmp=tmp_path)}"])
        assert not out.exists()

    def test_file_as_cache_dir_is_exit_2(self, tmp_path, caplog):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        code, lines = run_main(caplog, *write_field_inputs(tmp_path, "generate"), "--cache-dir", blocker)
        assert (code, lines[-1]) == (2, f"cache directory {blocker}: must be a directory, not a file")

    # Resume would cut a torn --out; a --cache-dir that cannot be made fails before that.
    def test_file_as_cache_dir_leaves_a_torn_out_alone(self, tmp_path, caplog):
        argv = write_field_inputs(tmp_path, "generate")
        assert run_main(caplog, *argv)[0] == 0
        out = Path(argv[argv.index("--out") + 1])
        out.write_bytes(out.read_bytes()[:-5])
        before = out.read_bytes()
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        code, lines = run_main(caplog, *argv, "--cache-dir", blocker)
        assert (code, lines[-1]) == (2, f"cache directory {blocker}: must be a directory, not a file")
        assert out.read_bytes() == before

    def test_cache_dir_below_a_file_is_exit_2(self, tmp_path, caplog):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        cache_dir = blocker / "sub"
        code, lines = run_main(caplog, *write_field_inputs(tmp_path, "generate"), "--cache-dir", cache_dir)
        assert (code, lines[-1]) == (2, f"cache directory {cache_dir}: Not a directory")


class TestNoRunOverwritesItsInput:
    """``--out`` or ``--report`` naming a file the run reads is exit 1 before any byte is written."""

    # Parameters: flags added to a valid run whose inputs are named by
    # absolute paths (later flags win; these are relative to its directory),
    # the file named in the error line, and the two names it gives. cfg.yaml
    # names rules.yaml; link.jsonl is a link to answers.jsonl; new.jsonl does
    # not exist, and --report would overwrite the corpus --out writes there.
    @pytest.mark.parametrize(
        "command, extra, named, names",
        [
            ("generate", ["--out", "script.jsonl", "--no-resume"], "{tmp}/script.jsonl", "command line: --script and --out"),
            ("generate", ["--report", "out.jsonl"], "{tmp}/out.jsonl", "command line: --out and --report"),
            ("eval-chair", ["--report", "answers.jsonl"], "{tmp}/answers.jsonl", "command line: --answers and --report"),
            ("generate", ["--out", "captions.json"], "{tmp}/captions.json", "command line: --captions and --out"),
            ("generate", ["--config", "cfg.yaml", "--out", "./rules.yaml"], "{tmp}/rules.yaml", "cfg.yaml: 'rules' and --out"),
            ("eval-chair", ["--report", "link.jsonl"], "{tmp}/answers.jsonl", "command line: --answers and --report"),
            ("generate", ["--out", "new.jsonl", "--report", "./new.jsonl", "--no-resume"], "new.jsonl", "command line: --out and --report"),
        ],
        ids=["script-as-out", "out-as-report", "answers-as-report", "captions-as-out", "config-rules-as-out", "link-as-report", "report-as-new-out"],
    )
    def test_output_naming_an_input_is_exit_1_and_keeps_it(self, tmp_path, caplog, monkeypatch, command, extra, named, names):
        monkeypatch.chdir(tmp_path)
        argv = write_field_inputs(tmp_path, command)
        write_yaml(tmp_path / "rules.yaml", {"rules": [RULE]})
        write_yaml(tmp_path / "cfg.yaml", {"rules": str(tmp_path / "rules.yaml")})
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "answers.jsonl")
        if command == "generate":
            assert run_main(caplog, *argv)[0] == 0  # out.jsonl exists, and resume reads it
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        caplog.clear()
        code, lines = run_main(caplog, *argv, *extra)
        named = named.format(tmp=tmp_path)
        assert (code, lines) == (1, [f"{names} name one file, {named}: the run would overwrite what it reads"])
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    # Writing to a file that is not regular destroys nothing.
    @pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
    @pytest.mark.usefixtures("device_nodes_stay")
    def test_dev_null_may_be_read_and_written(self, caplog):
        assert run_main(caplog, "stats", "--dataset", "/dev/null", "--report", "/dev/null")[0] == 0


class TestEmptyModel:
    """An empty model id would reach every record and the HTTP body: exit 1 naming its source."""

    @pytest.mark.parametrize("source", ["command line", "config"])
    def test_empty_model_is_exit_1_before_out_is_touched(self, tmp_path, caplog, mock_generate, source):
        if source == "config":
            config = write_yaml(tmp_path / "cfg.yaml", {"model": ""})
            extra, expected = ["--config", config], f"{config}: 'model' must not be empty"
        else:
            extra, expected = ["--model", ""], "command line: --model must not be empty"
        code, lines = run_main(caplog, *mock_generate, *extra)
        assert (code, lines) == (1, [expected])
        assert not (tmp_path / "o.jsonl").exists()

    def test_empty_environment_model_means_unset(self, tmp_path, caplog, monkeypatch, mock_generate):
        monkeypatch.setenv("CAP2QA_MODEL", "")
        assert run_main(caplog, *mock_generate)[0] == 0
        assert {r.provenance.model_id for r in read_instructions(tmp_path / "o.jsonl")} == {"gpt-3.5-turbo"}


class TestResumeRecipe:
    """A resume continues only the recipe, ``(model_id, prompt_version)``, of the records already in --out."""

    ENTRIES = [(1, 10, "A cat sits."), (2, 11, "A dog runs."), (3, 12, "A bird flies.")]
    REPLIES = ["Question: What sits?\nAnswer: A cat.", "Question: What runs?\nAnswer: A dog.", "Question: What flies?\nAnswer: A bird."]

    @pytest.fixture
    def failed_run(self, tmp_path):
        """``model-a`` writes two of three captions, then its script runs out (exit 2); returns the resume's argv and --out."""
        captions = write_caption_file(tmp_path / "c.json", self.ENTRIES)
        two = write_jsonl(tmp_path / "two.jsonl", [{"response_text": reply} for reply in self.REPLIES[:2]])
        script = write_jsonl(tmp_path / "s.jsonl", hash_script_rows(zip(self.ENTRIES, self.REPLIES)))
        out = tmp_path / "o.jsonl"
        argv = ["generate", "--captions", captions, "--out", out, "--backend", "mock", "--retry", "1", "--fixed-clock", "2024-05-01T00:00:00+00:00"]
        assert main([str(a) for a in [*argv, "--script", two, "--model", "model-a"]]) == 2
        assert len(read_instructions(out)) == 2
        return [*argv, "--script", script], out

    @staticmethod
    def mismatch(out, made, run, line=1):
        return (
            f"{out}:{line}: record made with (model_id, prompt_version) {made!r}, but this run's are {run!r}; "
            "resume continues one recipe only, so pass --no-resume or a new --out"
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_another_model_is_exit_1_and_out_keeps_its_bytes(self, caplog, failed_run, workers):
        argv, out = failed_run
        before = out.read_bytes()
        code, lines = run_main(caplog, *argv, "--model", "model-b", "--workers", workers)
        tag = default_prompt_config().version_tag
        assert (code, lines[-1]) == (1, self.mismatch(out, ("model-a", tag), ("model-b", tag)))
        assert out.read_bytes() == before

    def test_another_model_is_one_error_line_in_a_process(self, failed_run):
        argv, out = failed_run
        before = out.read_bytes()
        proc = run_process(*argv, "--model", "model-b")
        tag = default_prompt_config().version_tag
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("INFO ")]
        assert (proc.returncode, errors) == (1, [f"ERROR cap2qa: {self.mismatch(out, ('model-a', tag), ('model-b', tag))}"])
        assert out.read_bytes() == before

    def test_another_prompt_is_exit_1(self, tmp_path, caplog, failed_run):
        argv, out = failed_run
        before = out.read_bytes()
        prompt = write_yaml(tmp_path / "prompt.yaml", PROMPT)
        code, lines = run_main(caplog, *argv, "--model", "model-a", "--prompt", prompt)
        made, run = default_prompt_config().version_tag, load_prompt_config(prompt).version_tag
        assert (code, lines[-1]) == (1, self.mismatch(out, ("model-a", made), ("model-a", run)))
        assert out.read_bytes() == before

    # The check reads the lines as they are, before resume cuts a torn one.
    def test_a_torn_out_of_another_model_is_not_cut(self, caplog, failed_run):
        argv, out = failed_run
        out.write_bytes(out.read_bytes()[:-20])
        before = out.read_bytes()
        code, lines = run_main(caplog, *argv, "--model", "model-b")
        assert (code, lines[-1].split(": record made")[0]) == (1, f"{out}:1")
        assert out.read_bytes() == before

    def test_the_same_recipe_resumes(self, caplog, failed_run):
        argv, out = failed_run
        assert run_main(caplog, *argv, "--model", "model-a")[0] == 0
        assert [r.source_caption_ids for r in read_instructions(out)] == [(1,), (2,), (3,)]

    # The check reads the unterminated last line too: a whole record of
    # another model there is exit 1, though the line before it matches.
    def test_an_unterminated_record_of_another_model_is_exit_1(self, caplog, failed_run):
        argv, out = failed_run
        first, second = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(first + second.rstrip(b"\n").replace(b'"model-a"', b'"model-b"'))
        before = out.read_bytes()
        code, lines = run_main(caplog, *argv, "--model", "model-a")
        tag = default_prompt_config().version_tag
        assert (code, lines[-1]) == (1, self.mismatch(out, ("model-b", tag), ("model-a", tag), line=2))
        assert out.read_bytes() == before

    # The cut reads source_caption_ids apart from provenance: a complete line
    # whose provenance is not an object shows no recipe, and goes with the
    # torn line after it as its caption's group, so the resume reads it no more.
    def test_a_line_with_a_malformed_provenance_goes_with_the_torn_line(self, caplog, failed_run):
        argv, out = failed_run
        assert run_main(caplog, *argv, "--model", "model-a")[0] == 0
        full = out.read_bytes()
        lines = full.splitlines(keepends=True)
        malformed = re.sub(rb'"provenance": \{.*\}\}\n$', b'"provenance": "model-b"}\n', lines[1])
        assert malformed != lines[1]
        out.write_bytes(lines[0] + malformed + lines[2][:30])
        caplog.clear()
        code, logged = run_main(caplog, *argv, "--model", "model-a")
        assert code == 0
        assert f"resume: dropped an unterminated last line of {out} (30 bytes) and the 1 line(s) of source_caption_ids [2] before it" in logged
        assert out.read_bytes() == full

    # The check opens --out read-only, and only the cut reopens it to write,
    # so a torn, read-only --out of another model is exit 1, not a failed
    # write (exit 2). Root ignores file modes, so the test needs another user.
    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0, reason="needs a user that file modes bind")
    def test_a_read_only_out_of_another_model_is_exit_1(self, caplog, failed_run):
        argv, out = failed_run
        out.write_bytes(out.read_bytes()[:-20])
        before = out.read_bytes()
        out.chmod(0o444)
        code, lines = run_main(caplog, *argv, "--model", "model-b")
        tag = default_prompt_config().version_tag
        assert (code, lines[-1]) == (1, self.mismatch(out, ("model-a", tag), ("model-b", tag)))
        assert out.read_bytes() == before


# --- an integer past Python's digit limit -----------------------------------

# json and PyYAML convert integer text with int(), which refuses more digits than
# sys.get_int_max_str_digits(); that refusal is one error line naming the file.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="this Python converts integers of any length")
class TestIntegerPastTheDigitLimit:
    digits = "7" * (INT_DIGIT_LIMIT + 1)

    def refusal(self) -> str:
        with pytest.raises(ValueError) as info:
            int(self.digits)
        return str(info.value)

    def test_in_a_prediction_line_names_file_and_line(self, tmp_path, caplog):
        argv = write_field_inputs(tmp_path, "eval-vqa")
        pred = tmp_path / "vqa-pred.jsonl"
        pred.write_text('{"question_id": 1, "prediction": "a"}\n{"question_id": 2, "prediction": ' + self.digits + "}\n", encoding="utf-8")
        assert run_main(caplog, *argv) == (1, [f"{pred}:2: {self.refusal()}"])

    def test_in_a_caption_file_names_it(self, tmp_path, caplog, mock_generate):
        captions = Path(mock_generate[mock_generate.index("--captions") + 1])
        captions.write_text('{"annotations": [{"id": ' + self.digits + ', "image_id": 10, "caption": "A cat."}]}', encoding="utf-8")
        assert run_main(caplog, *mock_generate) == (1, [f"{captions}: {self.refusal()}"])
        assert not (tmp_path / "o.jsonl").exists()

    def test_in_a_config_file_names_it(self, tmp_path, caplog, mock_generate):
        config = tmp_path / "cfg.yaml"
        config.write_text(f"retry: {self.digits}\n", encoding="utf-8")
        assert run_main(caplog, *mock_generate, "--config", config) == (1, [f"{config}: {self.refusal()}"])


# PyYAML reads 2024-13-45 as a date and raises the ValueError of datetime.date.
def test_a_date_that_does_not_exist_in_a_config_file_names_it(tmp_path, caplog, mock_generate):
    config = tmp_path / "cfg.yaml"
    config.write_text("retry: 1\nwhen: 2024-13-45\n", encoding="utf-8")
    assert run_main(caplog, *mock_generate, "--config", config) == (1, [f"{config}: month must be in 1..12"])
