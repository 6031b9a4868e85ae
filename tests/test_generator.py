import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa import generator
from cap2qa.clocks import FixedClock
from cap2qa.corpus import CaptionRecord, read_instructions
from cap2qa.errors import InputError, RuntimeFailure, ScriptExhaustedError
from cap2qa.filters import default_rules
from cap2qa.generator import (
    GeneratorConfig,
    QAPair,
    generate_corpus,
    generate_for_caption,
    parse_qas,
)
from cap2qa.llm_client import BackendSpec, MockScript, prompt_hash
from cap2qa.promptkit import default_prompt_config, render

NOW = datetime(2024, 5, 1, 12, 0, 0, tzinfo=timezone.utc)


def caption(cid=1, image_id=10, text="A cat sits on a mat."):
    return CaptionRecord(caption_id=cid, image_id=image_id, text=text)


def config(*responses, by_hash=None, **kwargs):
    backend = BackendSpec(kind="mock", script=MockScript(responses, by_hash))
    return GeneratorConfig(backend=backend, **kwargs)


def scripted_by_caption(captions, response, config_obj=None):
    """Map each caption's rendered prompt hash to a response."""
    prompt = (config_obj.prompt if config_obj else default_prompt_config())
    by_hash = {}
    for cap, text in zip(captions, response):
        by_hash[prompt_hash(render(prompt, cap).rendered)] = text
    return by_hash


class TestParseQas:
    def test_single_pair(self):
        pairs = parse_qas("Question: What animal?\nAnswer: A cat.")
        assert pairs == [QAPair("What animal?", "A cat.")]

    def test_multiple_pairs(self):
        raw = (
            "Question: First?\nAnswer: One.\n\n"
            "Question: Second?\nAnswer: Two.\n"
        )
        assert [p.answer for p in parse_qas(raw)] == ["One.", "Two."]

    def test_numbered_markers(self):
        raw = "1. Question: A?\nAnswer: B.\n2) Question: C?\nAnswer: D."
        assert len(parse_qas(raw)) == 2

    def test_case_insensitive_markers(self):
        assert len(parse_qas("QUESTION: a?\nanswer: b")) == 1

    def test_preamble_ignored(self):
        raw = "Sure, here are the pairs:\nQuestion: Q?\nAnswer: A."
        assert parse_qas(raw) == [QAPair("Q?", "A.")]

    def test_trailing_question_dropped(self):
        raw = "Question: Q?\nAnswer: A.\nQuestion: Dangling?"
        assert len(parse_qas(raw)) == 1

    def test_unparseable_is_empty(self):
        assert parse_qas("no structure at all") == []
        assert parse_qas("") == []

    def test_multiline_answer(self):
        raw = "Question: Q?\nAnswer: line one\nline two\n\nQuestion: R?\nAnswer: S."
        assert parse_qas(raw)[0].answer == "line one\nline two"

    def test_answer_before_question_ignored(self):
        assert parse_qas("Answer: orphan\nQuestion: Q?\nAnswer: A.") == [QAPair("Q?", "A.")]


marker_free = st.text(alphabet="abcdefghij ", min_size=1, max_size=30).filter(lambda s: s.strip())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(marker_free, marker_free), min_size=1, max_size=8))
def test_parse_round_trip_property(qa_texts):
    raw = "".join(f"Question: {q}\nAnswer: {a}\n" for q, a in qa_texts)
    parsed = parse_qas(raw)
    assert [(p.question, p.answer) for p in parsed] == [
        (q.strip(), a.strip()) for q, a in qa_texts
    ]


# The parser as first written, before the marker regex gained its lookahead.
SEED_MARKER = re.compile(r"(?i)(?:\d+\s*[.)]\s*)?\b(question|answer)\s*:\s*")


def seed_parse_qas(raw):
    matches = list(SEED_MARKER.finditer(raw))
    pairs = []
    pending_question = None
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
        content = raw[match.end() : end].strip().rstrip(",").strip()
        if match.group(1).lower() == "question":
            pending_question = content
        elif pending_question is not None:
            pairs.append(QAPair(question=pending_question, answer=content))
            pending_question = None
    return pairs


# Markers: numbering with ASCII and Arabic-Indic digits, marker words in
# several cases (one with a long s), separators with no-break spaces and
# newlines; between them, filler that may itself hold marker pieces.
FRAGMENTS = ["Question", "ANSWER", "answer", "İ", "ſ", "Q", "a", "x", ":", ",", "?", ".", ")", "3", "٣", "\n", "\u00a0", " "]
filler = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=2)), max_size=6).map("".join)
marker = st.tuples(
    st.sampled_from(["", "1.", "2)", "12 .", "٣)", "٣.", "x."]),
    st.sampled_from(["", " ", "\n", "\u00a0"]),
    st.sampled_from(["Question", "question", "QUESTION", "Answer", "answer", "ANSWER", "queſtion"]),
    st.sampled_from([":", " : ", "\u00a0:", ":\n", "", " "]),
).map("".join)
marker_texts = st.lists(st.one_of(marker, filler), max_size=10).map("".join)


@settings(max_examples=300, deadline=None)
@given(marker_texts)
def test_parse_qas_equals_the_seed_parser(raw):
    assert parse_qas(raw) == seed_parse_qas(raw)


class TestGenerateForCaption:
    def test_first_attempt_success(self):
        cfg = config("Question: What sits?\nAnswer: A cat.")
        outcome = generate_for_caption(caption(), cfg, clock=FixedClock(NOW))
        assert len(outcome.records) == 1
        record = outcome.records[0]
        assert record.image_id == 10
        assert record.source_caption_ids == (1,)
        assert record.provenance.attempt == 1
        assert record.provenance.model_id == cfg.model_id
        assert record.provenance.prompt_version == cfg.prompt.version_tag
        assert record.provenance.created_at == NOW

    def test_unparseable_then_success_uses_second_attempt(self):
        cfg = config("no structure", "Question: Q?\nAnswer: A.", retry=3)
        outcome = generate_for_caption(caption(), cfg, clock=FixedClock(NOW))
        assert outcome.attempts_used == 2
        assert outcome.records[0].provenance.attempt == 2

    def test_fully_filtered_attempt_retries(self):
        bad = "Question: What does the caption say?\nAnswer: Words."
        good = "Question: What runs?\nAnswer: A dog."
        outcome = generate_for_caption(caption(), config(bad, good, retry=2), clock=FixedClock(NOW))
        assert outcome.attempts_used == 2
        assert outcome.records[0].answer == "A dog."

    def test_partial_filter_keeps_survivors_same_attempt(self):
        mixed = (
            "Question: What does the caption say?\nAnswer: Meta.\n"
            "Question: What color?\nAnswer: Red."
        )
        outcome = generate_for_caption(caption(), config(mixed), clock=FixedClock(NOW))
        assert outcome.attempts_used == 1
        assert [r.question for r in outcome.records] == ["What color?"]

    def test_exhaustion_returns_empty(self):
        cfg = config("junk", "junk", "junk", retry=3)
        outcome = generate_for_caption(caption(), cfg, clock=FixedClock(NOW))
        assert outcome.records == []
        assert outcome.attempts_used == 3

    def test_retry_lower_bound(self):
        with pytest.raises(ValueError):
            config("x", retry=0)

    def test_cache_enabled_needs_a_cache_dir(self):
        with pytest.raises(ValueError, match="^cache_enabled requires cache_dir$"):
            config("x", cache_enabled=True)

    @pytest.mark.parametrize(
        "rules, message",
        [([], "rules must be non-empty"), (default_rules()[:1] * 2, "duplicate rule_id 'mentions-caption'")],
        ids=["empty", "repeated-id"],
    )
    def test_bad_rules_fail_when_the_config_is_built(self, rules, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config("x", rules=rules)


class TestGenerateCorpus:
    def test_output_in_input_order(self, tmp_path):
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(6)]
        cfg = config()
        by_hash = scripted_by_caption(
            captions, [f"Question: Q{i}?\nAnswer: A{i}." for i in range(6)], cfg
        )
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        out = tmp_path / "out.jsonl"
        summary = generate_corpus(captions, cfg, out, clock=FixedClock(NOW))
        records = read_instructions(out)
        assert [r.source_caption_ids[0] for r in records] == [0, 1, 2, 3, 4, 5]
        assert summary["n_records"] == 6
        assert summary["n_captions"] == 6
        assert summary["n_covered_images"] == 6
        assert summary["n_exhausted"] == 0

    def test_exhausted_counted_not_written(self, tmp_path):
        captions = [caption(cid=0, text="first"), caption(cid=1, image_id=11, text="second")]
        cfg = config()
        by_hash = scripted_by_caption(captions, ["junk", "Question: Q?\nAnswer: A."], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        cfg.retry = 1
        out = tmp_path / "out.jsonl"
        summary = generate_corpus(captions, cfg, out, clock=FixedClock(NOW))
        assert summary["n_exhausted"] == 1
        assert summary["n_records"] == 1
        assert [r.source_caption_ids[0] for r in read_instructions(out)] == [1]

    def test_resume_skips_covered(self, tmp_path):
        captions = [caption(cid=0, text="first"), caption(cid=1, image_id=11, text="second")]
        cfg = config()
        by_hash = scripted_by_caption(
            captions, ["Question: Q0?\nAnswer: A0.", "Question: Q1?\nAnswer: A1."], cfg
        )
        out = tmp_path / "out.jsonl"
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        generate_corpus(captions[:1], cfg, out, clock=FixedClock(NOW))

        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        summary = generate_corpus(captions, cfg, out, resume=True, clock=FixedClock(NOW))
        records = read_instructions(out)
        assert [r.source_caption_ids[0] for r in records] == [0, 1]
        assert summary["n_records"] == 1  # only the new caption this run
        assert summary["n_covered_images"] == 2  # including the resumed one

    def test_no_resume_overwrites(self, tmp_path):
        captions = [caption(cid=0)]
        cfg = config("Question: Q?\nAnswer: A.")
        out = tmp_path / "out.jsonl"
        generate_corpus(captions, cfg, out, resume=False, clock=FixedClock(NOW))
        cfg.backend = BackendSpec(kind="mock", script=MockScript(["Question: R?\nAnswer: B."]))
        generate_corpus(captions, cfg, out, resume=False, clock=FixedClock(NOW))
        records = read_instructions(out)
        assert len(records) == 1
        assert records[0].question == "R?"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_backend_failure_keeps_partial_output(self, tmp_path, workers):
        captions = [caption(cid=0, text="first"), caption(cid=1, image_id=11, text="second")]
        cfg = config(workers=workers)
        first = scripted_by_caption(captions[:1], ["Question: Q?\nAnswer: A."], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), first))
        cfg.retry = 1
        out = tmp_path / "out.jsonl"
        # second caption has no scripted response and no queue: exhausts the script
        with pytest.raises(ScriptExhaustedError):
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW))
        records = read_instructions(out)
        assert [r.source_caption_ids[0] for r in records] == [0]

        # resuming after the failure completes the corpus
        both = scripted_by_caption(captions, ["unused", "Question: R?\nAnswer: B."], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), both))
        summary = generate_corpus(captions, cfg, out, clock=FixedClock(NOW))
        assert [r.source_caption_ids[0] for r in read_instructions(out)] == [0, 1]
        assert summary["n_records"] == 1
        # ... to the bytes of an unbroken run with the same replies
        replies = scripted_by_caption(captions, ["Question: Q?\nAnswer: A.", "Question: R?\nAnswer: B."], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), replies))
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW))
        assert out.read_bytes() == full.read_bytes()

    # The caller reports a failure, so the driver raises it without logging it.
    def test_backend_failure_is_raised_unlogged(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="cap2qa")
        with pytest.raises(ScriptExhaustedError, match="^mock script has no response left$"):
            generate_corpus([caption()], config(), tmp_path / "out.jsonl", clock=FixedClock(NOW))
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        captions = [caption(cid=i, image_id=100 + i, text=f"unique text {i}") for i in range(20)]
        outputs = []
        for workers in (1, 4):
            cfg = config(workers=workers)
            by_hash = scripted_by_caption(
                captions, [f"Question: Q{i}?\nAnswer: A{i}." for i in range(20)], cfg
            )
            cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
            out = tmp_path / f"out-{workers}.jsonl"
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_one_worker_runs_in_the_calling_thread(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not start a thread pool")

        threads = set()
        real = generator.generate_for_caption

        def record_thread(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(generator, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(generator, "generate_for_caption", record_thread)
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(6)]
        cfg = config(workers=1)
        by_hash = scripted_by_caption(captions, [f"Question: Q{i}?\nAnswer: A{i}." for i in range(6)], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        summary = generate_corpus(captions, cfg, tmp_path / "out.jsonl", clock=FixedClock(NOW))
        assert summary["n_records"] == 6
        assert threads == {threading.get_ident()}

    # In the calling thread the window holds one caption: the failure of
    # caption 2 ends the run before any caption after it reaches the backend.
    # The pool case is TestPoolWindow.test_failure_cancels_the_queued_captions.
    def test_backend_failure_drains_the_window(self, tmp_path):
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(8)]
        cfg = config(workers=1, retry=1)
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW), client=ScriptedClient(cfg, captions))

        def fail_at_2(cid):
            if cid == 2:
                raise ScriptExhaustedError("mock script has no response left")

        client = ScriptedClient(cfg, captions, fail_at_2)
        out = tmp_path / "out.jsonl"
        with pytest.raises(ScriptExhaustedError):
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
        assert client.calls == [0, 1, 2]
        assert out.read_bytes() == b"".join(full.read_bytes().splitlines(keepends=True)[:2])

    def test_one_worker_reraises_the_very_exception_of_the_caption(self, tmp_path, monkeypatch):
        error = ScriptExhaustedError("mock script has no response left")

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(generator, "generate_for_caption", fail)
        with pytest.raises(ScriptExhaustedError) as info:
            generate_corpus([caption()], config(workers=1), tmp_path / "out.jsonl", clock=FixedClock(NOW))
        assert info.value is error


# Every wait in a scheduling test is bounded, so a broken pool fails the test
# instead of hanging it.
TIMEOUT = 10
# The pool's reorder window, in captions per worker (README, "Workers").
WINDOW_PER_WORKER = 64


class ScriptedClient:
    """Answers caption ``i`` with pair ``Q{i}``/``A{i}`` after calling ``hook(i)``, and logs the calls."""

    def __init__(self, cfg, captions, hook=lambda cid: None):
        self.ids = {render(cfg.prompt, c).rendered: c.caption_id for c in captions}
        self.hook = hook
        self.calls = []

    def complete(self, request):
        cid = self.ids[request.prompt_text]
        self.calls.append(cid)
        self.hook(cid)
        return f"Question: Q{cid}?\nAnswer: A{cid}."


def watch_pool(monkeypatch, done_callbacks=None):
    """Make the generator's pool log each submitted caption id and hang callbacks on chosen futures."""
    submitted = []
    done_callbacks = done_callbacks or {}

    class WatchedPool(ThreadPoolExecutor):
        def submit(self, fn, caption, *args, **kwargs):
            submitted.append(caption.caption_id)
            future = super().submit(fn, caption, *args, **kwargs)
            if caption.caption_id in done_callbacks:
                future.add_done_callback(done_callbacks[caption.caption_id])
            return future

    monkeypatch.setattr(generator, "ThreadPoolExecutor", WatchedPool)
    return submitted


class TestPoolWindow:
    def lines(self, tmp_path, cfg, captions):
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW), client=ScriptedClient(cfg, captions))
        return full.read_bytes().splitlines(keepends=True)

    # Two workers. Caption 1 fails once caption 2 has started; caption 2 runs
    # until the captions behind it are cancelled. A done callback holds the
    # worker that ran caption 1 until then too, so no worker is free to start
    # a queued caption before the cancel. Every exception, a backend failure
    # or Ctrl-C alike, propagates at once: caption 2, which was running, is
    # not written, so a resumed run restores the bytes of an unbroken one.
    @pytest.mark.parametrize(
        "error",
        [ScriptExhaustedError("mock script has no response left"), RuntimeError("a bug"), KeyboardInterrupt("ctrl-c")],
        ids=["backend-failure", "other-exception", "interrupt"],
    )
    def test_failure_cancels_the_queued_captions(self, tmp_path, monkeypatch, error):
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(6)]
        cfg = config(workers=2, retry=1)
        lines = self.lines(tmp_path, cfg, captions)
        two_started, queue_cancelled = threading.Event(), threading.Event()

        def hook(cid):
            if cid == 1:
                two_started.wait(TIMEOUT)
                raise error
            if cid == 2:
                two_started.set()
                queue_cancelled.wait(TIMEOUT)

        watch_pool(monkeypatch, {
            1: lambda future: queue_cancelled.wait(TIMEOUT),
            5: lambda future: future.cancelled() and queue_cancelled.set(),
        })
        client = ScriptedClient(cfg, captions, hook)
        out = tmp_path / "out.jsonl"
        with pytest.raises(type(error), match=str(error)):
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
        assert queue_cancelled.is_set()
        assert sorted(client.calls) == [0, 1, 2]
        assert out.read_bytes() == lines[0]

        generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=ScriptedClient(cfg, captions))
        assert out.read_bytes() == b"".join(lines)

    # The same holds for a failure in the writer: caption 1's record cannot be
    # written once caption 2 has started. The queued captions are cancelled,
    # caption 2 is not written, and the error propagates as a RuntimeFailure
    # that names the output.
    def test_a_write_error_cancels_the_queued_captions(self, tmp_path, monkeypatch):
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(6)]
        cfg = config(workers=2, retry=1)
        lines = self.lines(tmp_path, cfg, captions)
        two_started, queue_cancelled = threading.Event(), threading.Event()

        def hook(cid):
            if cid == 1:
                two_started.wait(TIMEOUT)
            if cid == 2:
                two_started.set()
                queue_cancelled.wait(TIMEOUT)

        real = generator.record_to_line

        def fail_at_1(record):
            if record.source_caption_ids == (1,):
                raise OSError(28, "No space left on device")
            return real(record)

        watch_pool(monkeypatch, {
            1: lambda future: queue_cancelled.wait(TIMEOUT),
            5: lambda future: future.cancelled() and queue_cancelled.set(),
        })
        monkeypatch.setattr(generator, "record_to_line", fail_at_1)
        client = ScriptedClient(cfg, captions, hook)
        out = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeFailure, match=f"^cannot write {re.escape(str(out))}: No space left on device$"):
            try:
                generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
            finally:
                # Read as the error leaves the run: nothing else has closed it yet.
                at_exit = (queue_cancelled.is_set(), sorted(client.calls))
        assert at_exit == (True, [0, 1, 2])
        assert out.read_bytes() == lines[0]

    # Caption 0 stands for a caption sleeping in retry backoff: it returns only
    # once the other worker has served every other caption the window admits.
    # A window of 4 captions per worker would idle the other worker after 7
    # captions, so neither event would fire.
    def test_a_caption_in_backoff_does_not_stall_the_pool(self, tmp_path, monkeypatch):
        workers = 2
        window = WINDOW_PER_WORKER * workers
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(3 * window)]
        cfg = config(workers=workers, retry=1)
        lines = self.lines(tmp_path, cfg, captions)
        past_old_window, window_served = threading.Event(), threading.Event()
        at_release = []

        def hook(cid):
            if cid == 0:
                at_release.extend([past_old_window.wait(TIMEOUT), window_served.wait(TIMEOUT), len(submitted)])
                return
            served = sum(1 for c in client.calls if c != 0)
            if served > 4 * workers:
                past_old_window.set()
            if served == window - 1:
                window_served.set()

        submitted = watch_pool(monkeypatch)
        client = ScriptedClient(cfg, captions, hook)
        out = tmp_path / "out.jsonl"
        summary = generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
        # Both events fired, and while caption 0 waited no caption beyond the
        # window was submitted: memory stays bounded.
        assert at_release == [True, True, window]
        assert submitted == list(range(len(captions)))
        assert summary["n_records"] == len(captions)
        assert out.read_bytes() == b"".join(lines)


class TestTornTail:
    """Resume after a run killed mid-write, which leaves an unterminated last line."""

    def full_run(self, tmp_path, n):
        captions = [caption(cid=i, image_id=100 + i, text=f"caption {i}") for i in range(n)]
        cfg = config()
        by_hash = scripted_by_caption(captions, [f"Question: Q{i}?\nAnswer: A{i}." for i in range(n)], cfg)
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), by_hash))
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW))
        return captions, cfg, full.read_bytes()

    # The torn line takes the caption before it along, when there is one.
    @pytest.mark.parametrize(
        "n, written, before",
        [(3, 2, " and the 1 line(s) of source_caption_ids [1] before it"), (1, 1, "")],
        ids=["3", "1"],
    )
    def test_resume_drops_an_unterminated_last_line(self, tmp_path, caplog, n, written, before):
        captions, cfg, full = self.full_run(tmp_path, n)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(full[:-40])
        dropped = len(full.splitlines(keepends=True)[-1]) - 40
        with caplog.at_level(logging.WARNING, logger="cap2qa.corpus"):
            summary = generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert torn.read_bytes() == full
        assert summary["n_records"] == written
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"resume: dropped an unterminated last line of {torn} ({dropped} bytes){before}"]

    def test_malformed_terminated_line_is_still_an_error(self, tmp_path):
        captions, cfg, full = self.full_run(tmp_path, 3)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(full[:-40] + b"\n")
        with pytest.raises(InputError, match=r"torn\.jsonl:3: Invalid control character"):
            generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert torn.read_bytes() == full[:-40] + b"\n"

    # The line before the torn one ends in a newline but is not a record. A
    # record there would be cut with the torn line; this line is kept, and
    # the resume scan fails naming it (exit 1).
    @pytest.mark.parametrize(
        "malformed, message",
        [(b'{"image_id": 101, "question": "Q1?\n', "Invalid control character"), (b'{"image_id": 101}\n', "missing 'provenance'")],
        ids=["not-json", "not-a-record"],
    )
    def test_malformed_line_before_the_torn_line_is_kept(self, tmp_path, malformed, message):
        captions, cfg, full = self.full_run(tmp_path, 3)
        lines = full.splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(lines[0] + malformed + lines[2][:5])
        with pytest.raises(InputError, match=rf"torn\.jsonl:2: {message}"):
            generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert torn.read_bytes() == lines[0] + malformed

    # Every line generate writes starts with {"image_id": , so an
    # unterminated last line that does not, and is not a start of it either,
    # is no torn record: exit 1 naming the file, and nothing is cut.
    @pytest.mark.parametrize("kept, tail", [(0, b"some notes, no newline"), (1, b"notes"), (1, b'{"image": 1'), (3, b" ")], ids=["text", "after-a-record", "other-json", "space"])
    def test_unterminated_line_that_is_not_a_record_is_exit_1(self, tmp_path, kept, tail):
        captions, cfg, full = self.full_run(tmp_path, 3)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(full.splitlines(keepends=True)[:kept]) + tail)
        before = torn.read_bytes()
        with pytest.raises(InputError) as info:
            generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert str(info.value) == f"{torn}: the unterminated last line is not a record that generate writes, so resume will not cut it"
        assert torn.read_bytes() == before

    # A kill can tear a caption after some of its lines are written. Captions
    # 0 and 2 get two records each, caption 1 one; captions 0 and 1 show the
    # same image. Lines: 0 and 1 (caption 0), 2 (caption 1), 3 and 4
    # (caption 2). Parameters: torn line, bytes of it kept, records written on
    # resume. A torn first line of a caption takes the caption before it
    # along, whether or not the torn line shows its image id (30 bytes in) or
    # that image differs from the one before.
    @pytest.mark.parametrize("line, kept, written", [(4, 30, 2), (3, 30, 3), (3, 5, 3), (2, 30, 5), (1, 30, 5)])
    def test_resume_regenerates_the_torn_caption_whole(self, tmp_path, line, kept, written):
        captions = [caption(0, 10, "first"), caption(1, 10, "second"), caption(2, 11, "third")]
        responses = [
            "Question: Q0a?\nAnswer: A0a.\nQuestion: Q0b?\nAnswer: A0b.",
            "Question: Q1?\nAnswer: A1.",
            "Question: Q2a?\nAnswer: A2a.\nQuestion: Q2b?\nAnswer: A2b.",
        ]
        cfg = config()
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), scripted_by_caption(captions, responses, cfg)))
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW))
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 5
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:line]) + lines[line][:kept])
        summary = generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert torn.read_bytes() == full.read_bytes()
        assert summary["n_records"] == written

    # Each record of caption 1 is longer than 64 KiB; torn deep inside its
    # second line, the caption is regenerated whole.
    def test_resume_regenerates_a_caption_longer_than_64_kib(self, tmp_path):
        captions = [caption(0, 10, "first"), caption(1, 11, "second")]
        long = "x" * (1 << 16)
        responses = ["Question: Q0?\nAnswer: A0.", f"Question: Q1a?\nAnswer: a{long}.\nQuestion: Q1b?\nAnswer: b{long}."]
        cfg = config()
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), scripted_by_caption(captions, responses, cfg)))
        full = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, full, clock=FixedClock(NOW))
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3 and min(len(line) for line in lines[1:]) > 1 << 16
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(lines[0] + lines[1] + lines[2][: 1 << 15])
        summary = generate_corpus(captions, cfg, torn, clock=FixedClock(NOW))
        assert torn.read_bytes() == full.read_bytes()
        assert summary["n_records"] == 2

    # A finished corpus cut at every byte offset and resumed. Captions get 2,
    # 1, 3, 1, 2 and 3 records of 226 bytes each, and captions 0 and 1, and 3
    # and 4, show one image. Every resume restores the uninterrupted bytes but
    # for the documented gap: a cut just after a newline inside a caption
    # with several records tears no line, so resume counts that caption as
    # covered and keeps only its records written so far.
    def test_every_cut_point_resumes_to_the_same_bytes(self, tmp_path, caplog):
        caplog.set_level(logging.ERROR, logger="cap2qa")  # not a warning per torn cut
        counts, images = [2, 1, 3, 1, 2, 3], [10, 10, 11, 12, 12, 13]
        captions = [caption(i, image_id, f"caption {i}") for i, image_id in enumerate(images)]
        responses = ["\n".join(f"Question: Q{i}{k}?\nAnswer: A{i}{k}." for k in "abc"[:n]) for i, n in enumerate(counts)]
        cfg = config()
        cfg.backend = BackendSpec(kind="mock", script=MockScript((), scripted_by_caption(captions, responses, cfg)))
        path = tmp_path / "full.jsonl"
        generate_corpus(captions, cfg, path, clock=FixedClock(NOW))
        full = path.read_bytes()
        assert [len(line) for line in full.splitlines(keepends=True)] == [226] * 12
        differ = []
        for offset in range(len(full) + 1):
            path.write_bytes(full[:offset])
            generate_corpus(captions, cfg, path, clock=FixedClock(NOW))
            if path.read_bytes() != full:
                differ.append(offset)
        assert differ == [226, 904, 1130, 1808, 2260, 2486]
