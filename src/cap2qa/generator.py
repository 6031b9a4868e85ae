"""Caption-to-QA generation pipeline.

Per caption: render the prompt, ask the assistant, parse ``Question:`` /
``Answer:`` pairs out of the raw text, filter artifacts, and retry up to a
bounded number of attempts until at least one pair survives. Captions whose
attempts all come back empty are reported as exhausted rather than failing
the run.

The corpus driver fans captions out to a worker pool (or, with one worker,
runs them in the calling thread) but writes output JSONL strictly in caption
input order through a bounded reorder window: 4 captions in the calling
thread, 64 per worker in a pool, so that a caption in retry backoff does not
idle the other workers. A failed or interrupted pool run cancels the
captions that have not started. The driver can resume an interrupted run by
skipping captions already present in the output.
"""

from __future__ import annotations

import json
import logging
import os
import re
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from .clocks import Clock, SystemClock
from .corpus import (
    CaptionRecord,
    InstructionRecord,
    Provenance,
    image_id_of_prefix,
    read_instructions,
    record_to_line,
)
from .errors import Cap2qaError, IoFailureError
from .filters import FilterRule, default_rules, filter_artifacts
from .llm_client import AssistantClient, AssistantRequest, BackendSpec
from .promptkit import PromptConfig, default_prompt_config, render

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QAPair:
    question: str
    answer: str


@dataclass
class GeneratorConfig:
    backend: BackendSpec
    prompt: PromptConfig = field(default_factory=default_prompt_config)
    rules: list[FilterRule] = field(default_factory=default_rules)
    retry: int = 3
    workers: int = 1
    cache_enabled: bool = False
    cache_dir: Path | None = None
    rate_limit_rpm: int | None = None
    model_id: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_output_tokens: int = 512
    keep_raw: bool = False

    def __post_init__(self):
        if self.retry < 1:
            raise ValueError("retry must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cache_enabled and self.cache_dir is None:
            raise ValueError("cache_enabled requires cache_dir")


@dataclass
class GenerationOutcome:
    records: list[InstructionRecord]
    attempts_used: int
    raw_responses: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RunSummary:
    n_captions: int
    n_covered_images: int
    n_records: int
    n_exhausted: int


# A match starts at a digit or at q/a (only qQaA match (?i)[qa]); the
# lookahead lets the regex engine skip every other position without trying
# the optional numbering group there.
_MARKER = re.compile(r"(?i)(?=[\dqa])(?:\d+\s*[.)]\s*)?\b(question|answer)\s*:\s*")


def parse_qas(raw: str) -> list[QAPair]:
    """Extract question-answer pairs from raw assistant text.

    Scans for alternating ``Question:`` / ``Answer:`` markers
    (case-insensitive, optional ``1.`` style numbering) and pairs each
    question with the next answer. Text before the first marker is ignored,
    as is a trailing question with no answer. Unparseable text simply yields
    an empty list; the retry loop deals with it.
    """
    matches = list(_MARKER.finditer(raw))
    pairs: list[QAPair] = []
    pending_question: str | None = None
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
        content = raw[match.end() : end].strip().rstrip(",").strip()
        if match.group(1).lower() == "question":
            pending_question = content
        elif pending_question is not None:
            pairs.append(QAPair(question=pending_question, answer=content))
            pending_question = None
    return pairs


def make_client(config: GeneratorConfig, clock: Clock | None = None, **kwargs) -> AssistantClient:
    return AssistantClient(
        config.backend,
        cache_dir=config.cache_dir if config.cache_enabled else None,
        rate_limit_rpm=config.rate_limit_rpm,
        clock=clock,
        **kwargs,
    )


def generate_for_caption(
    caption: CaptionRecord,
    config: GeneratorConfig,
    *,
    client: AssistantClient | None = None,
    clock: Clock | None = None,
) -> GenerationOutcome:
    """Run the retry loop for one caption.

    Breaks on the first attempt whose filtered pair set is non-empty; each
    surviving pair becomes a record whose provenance carries the attempt
    index. After the last attempt the outcome may legitimately hold zero
    records (the caption is then uncovered). Backend failures propagate;
    content problems never raise.
    """
    clock = clock or SystemClock()
    client = client or make_client(config, clock)
    bundle = render(config.prompt, caption)
    request = AssistantRequest(
        prompt_text=bundle.rendered,
        model_id=config.model_id,
        temperature=config.temperature,
        max_output_tokens=config.max_output_tokens,
    )

    raw_responses: list[str] = []
    attempts_used = 0
    for attempt in range(1, config.retry + 1):
        attempts_used = attempt
        response = client.complete(request)
        if config.keep_raw:
            raw_responses.append(response.text)
        report = filter_artifacts(parse_qas(response.text), config.rules)
        if report.kept:
            records = [
                InstructionRecord(
                    image_id=caption.image_id,
                    question=pair.question,
                    answer=pair.answer,
                    source_caption_ids=(caption.caption_id,),
                    provenance=Provenance(
                        model_id=config.model_id,
                        prompt_version=config.prompt.version_tag,
                        attempt=attempt,
                        created_at=clock.now(),
                    ),
                )
                for pair in report.kept
            ]
            return GenerationOutcome(records=records, attempts_used=attempt, raw_responses=raw_responses)
    return GenerationOutcome(records=[], attempts_used=attempts_used, raw_responses=raw_responses)


def _run_inline(fn, *args, **kwargs) -> Future:
    """Call ``fn`` now and return a finished future holding its result or exception."""
    future: Future = Future()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        future.set_exception(exc)
    else:
        future.set_result(result)
    return future


def _lines_backwards(fh, end: int):
    """Yield the lines of binary file ``fh`` before byte ``end``, last first, without newlines."""
    pos, head = end, []
    while pos > 0:
        start = max(0, pos - (1 << 16))
        fh.seek(start)
        first, *lines = fh.read(pos - start).split(b"\n")
        pos = start
        if lines:
            lines[-1] += b"".join(reversed(head))
            head = []
            yield from reversed(lines)
        head.append(first)
    yield b"".join(reversed(head))


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line, the trace of a run killed mid-write, off ``path``.

    Resume counts a caption as covered once any of its lines survives, so the
    complete lines of the torn record's caption go too, and resume regenerates
    that caption whole. The torn line can show its image id, which comes
    first, but rarely its caption id, which follows the text: the last complete
    caption is kept when the torn line names another image, and is otherwise
    dropped, which at worst regenerates one finished caption.
    """
    try:
        fh = open(path, "rb+")
    except OSError as exc:
        raise IoFailureError(f"cannot open {path}: {exc}") from exc
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        lines = _lines_backwards(fh, size)
        torn = next(lines)
        keep = size - len(torn)
        torn_image = image_id_of_prefix(torn)
        caption_ids = None
        n_lines = 0
        for line in lines:
            try:
                record = json.loads(line)
                ids, image_id = record["source_caption_ids"], record["image_id"]
            except (ValueError, TypeError, KeyError):
                break
            if caption_ids is None:
                if torn_image is not None and torn_image != image_id:
                    break
                caption_ids = ids
            elif ids != caption_ids:
                break
            keep -= len(line) + 1
            n_lines += 1
        fh.truncate(keep)
    whole_caption = f" and the {n_lines} line(s) of source_caption_ids {caption_ids} before it" if n_lines else ""
    log.warning("resume: dropped an unterminated last line of %s (%d bytes)%s", path, len(torn), whole_caption)


# With more than one worker, a caption sleeping in retry backoff holds the
# head of the reorder window while the other workers serve the captions
# behind it, until the window is full. The default RetryPolicy sleeps up to
# 0.5 + 1 + 2 + 4 = 7.5 s in one backend call; 64 captions per worker keep the
# other workers busy through that whenever a call takes more than about
# 0.12 s, as calls to a hosted chat-completion API do, and still bound what
# the window holds.
_POOL_WINDOW_PER_WORKER = 64


def generate_corpus(
    captions: list[CaptionRecord],
    config: GeneratorConfig,
    out_path: str | Path,
    *,
    resume: bool = True,
    clock: Clock | None = None,
    client: AssistantClient | None = None,
) -> RunSummary:
    """Generate records for a caption list into a JSONL file.

    Output order equals caption input order regardless of worker completion
    order, through a bounded reorder window. One worker runs each caption in
    the calling thread, with a window of 4 captions; more run them on a
    thread pool, with a window of 64 captions per worker. With ``resume``
    (default), captions that already contributed records to the output file
    are skipped and new records are appended; an unterminated last line
    there is dropped first, together with the lines of its caption before
    it. A backend failure cancels the captions that have not started, writes
    those that finished or were running, in order, and then propagates, so
    the partial output stays resumable. Any other way out of a pool run,
    Ctrl-C included, also cancels the captions that have not started.
    """
    clock = clock or SystemClock()
    out_path = Path(out_path)

    existing: list[InstructionRecord] = []
    if resume and out_path.exists():
        _drop_torn_tail(out_path)
        existing = read_instructions(out_path)
    covered_ids = {cid for record in existing for cid in record.source_caption_ids}
    todo = [c for c in captions if c.caption_id not in covered_ids]
    if len(todo) < len(captions):
        log.info("resume: %d of %d captions already covered", len(captions) - len(todo), len(captions))

    client = client or make_client(config, clock)
    covered_images = {r.image_id for r in existing}
    n_records = 0
    n_exhausted = 0
    failure: Cap2qaError | None = None

    try:
        out = open(out_path, "a" if existing else "w", encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot open {out_path}: {exc}") from exc

    with out:
        with ExitStack() as stack:
            if config.workers == 1:
                submit, window_size = _run_inline, 4
            else:
                pool = stack.enter_context(ThreadPoolExecutor(max_workers=config.workers))
                # Runs before the pool's own exit: whatever ends the run, an
                # exception or Ctrl-C included, queued captions never start.
                stack.callback(pool.shutdown, cancel_futures=True)
                submit, window_size = pool.submit, _POOL_WINDOW_PER_WORKER * config.workers

            def flush_one(caption: CaptionRecord, future: Future) -> None:
                nonlocal n_records, n_exhausted, failure
                if future.cancelled():
                    return
                try:
                    outcome = future.result()
                except Cap2qaError as exc:
                    if failure is None:
                        failure = exc
                        for _, queued in window:
                            queued.cancel()
                    return
                if not outcome.records:
                    n_exhausted += 1
                    log.warning("caption %d exhausted after %d attempts", caption.caption_id, outcome.attempts_used)
                    return
                for record in outcome.records:
                    out.write(record_to_line(record) + "\n")
                    n_records += 1
                    covered_images.add(record.image_id)

            window: deque = deque()
            for caption in todo:
                if failure is not None:
                    break
                window.append((caption, submit(generate_for_caption, caption, config, client=client, clock=clock)))
                if len(window) >= window_size:
                    flush_one(*window.popleft())
            while window:
                flush_one(*window.popleft())
        out.flush()

    if failure is not None:
        log.error("run aborted: %s (partial output kept at %s)", failure, out_path)
        raise failure
    return RunSummary(
        n_captions=len(captions),
        n_covered_images=len(covered_images),
        n_records=n_records,
        n_exhausted=n_exhausted,
    )
