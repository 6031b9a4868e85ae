"""Caption-to-QA generation pipeline.

Per caption: render the prompt, ask the assistant, parse ``Question:`` /
``Answer:`` pairs out of the raw text, filter artifacts, and retry up to a
bounded number of attempts until at least one pair survives. Captions whose
attempts all come back empty are reported as exhausted rather than failing
the run.

The corpus driver runs captions one at a time in the calling thread, or
fans them out to a worker pool through a bounded reorder window of 64
captions per worker; either way it writes output JSONL strictly in caption
input order. On the pool a caption whose HTTP call must back off parks
instead of sleeping: its worker moves on, and the writer waits out the
backoff when the caption reaches the head of the window, then hands it back
to the pool to go on from the attempt where it stopped. So ``workers``
bounds the requests in flight, and no worker sleeps through a backoff. A
failed or interrupted run starts no further caption, resumes no parked one,
and ends its output just before the first caption that did not finish; the
driver resumes it by skipping captions already present in the output.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

from .clocks import Clock, SystemClock
from .corpus import (
    CaptionRecord,
    InstructionRecord,
    Provenance,
    QAPair,
    _check_recipe,
    _open_output,
    drop_torn_tail,
    read_instructions,
    record_to_line,
)
from .filters import FilterRule, check_rules, default_rules, filter_artifacts
from .llm_client import AssistantClient, AssistantRequest, Backoff, BackendSpec, park_retries
from .promptkit import PromptConfig, default_prompt_config, render

log = logging.getLogger(__name__)


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

    def __post_init__(self):
        if self.retry < 1:
            raise ValueError("retry must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cache_enabled and self.cache_dir is None:
            raise ValueError("cache_enabled requires cache_dir")
        if self.rate_limit_rpm is not None and self.rate_limit_rpm < 1:
            raise ValueError(f"rate_limit_rpm must be >= 1, got {self.rate_limit_rpm}")
        check_rules(self.rules)
        # AssistantRequest checks the sampling settings: fail before a run touches its output.
        self.request("-")

    def request(self, prompt_text: str) -> AssistantRequest:
        return AssistantRequest(prompt_text, self.model_id, self.temperature, self.max_output_tokens)


@dataclass
class GenerationOutcome:
    records: list[InstructionRecord]
    attempts_used: int


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


def make_client(config: GeneratorConfig) -> AssistantClient:
    return AssistantClient(
        config.backend,
        cache_dir=config.cache_dir if config.cache_enabled else None,
        rate_limit_rpm=config.rate_limit_rpm,
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
    content problems never raise. ``clock`` only stamps ``created_at``.
    """
    clock = clock or SystemClock()
    client = client or make_client(config)
    request = config.request(render(config.prompt, caption).rendered)
    return _attempts(caption, config, client, clock, request)


def _attempts(caption, config, client, clock, request, first=1, reply=None) -> GenerationOutcome:
    """:func:`generate_for_caption`'s loop from attempt ``first`` on.

    ``reply()``, when given, stands in for attempt ``first``'s backend call.
    A call that parks raises :class:`~cap2qa.llm_client.Backoff`; it leaves
    here with a ``resume`` that goes on from the same attempt, so a resumed
    caption does not enter :func:`generate_for_caption` again.
    """
    for attempt in range(first, config.retry + 1):
        try:
            text = reply() if reply else client.complete(request)
        except Backoff as backoff:
            backoff.resume = partial(_attempts, caption, config, client, clock, request, attempt, backoff.resume)
            raise
        reply = None
        report = filter_artifacts(parse_qas(text), config.rules)
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
            return GenerationOutcome(records=records, attempts_used=attempt)
    return GenerationOutcome(records=[], attempts_used=config.retry)


# With more than one worker, a caption parked in retry backoff holds the
# head of the reorder window while the workers serve the captions behind it,
# until the window is full. The default RetryPolicy backs off up to
# 0.5 + 1 + 2 + 4 = 7.5 s in one backend call; 64 captions per worker keep the
# workers busy through that whenever a call takes more than about 0.12 s, as
# calls to a hosted chat-completion API do, and still bound what the window
# holds.
_POOL_WINDOW_PER_WORKER = 64


def _raise_first_failure(window) -> None:
    """Raise the exception of the first caption in ``window`` that failed with other than :class:`~cap2qa.llm_client.Backoff`."""
    for _, future in window:
        if future.done() and not future.cancelled():
            error = future.exception()
            if error is not None and not isinstance(error, Backoff):
                raise error


def _in_order(todo: list[CaptionRecord], run, workers: int) -> Iterator[tuple[CaptionRecord, GenerationOutcome]]:
    """Yield ``(caption, run(caption))`` for each caption of ``todo``, in caption order.

    One worker calls ``run`` in the calling thread. More call it on a thread
    pool, through a reorder window of ``_POOL_WINDOW_PER_WORKER * workers``
    captions. The pool's threads park their HTTP retries
    (:func:`~cap2qa.llm_client.park_retries`): a caption whose call raises
    :class:`~cap2qa.llm_client.Backoff` keeps its place in the window and
    frees its worker. When it reaches the head, this thread waits out what
    is left of the backoff and submits its ``resume`` to the pool in its
    place. One rule ends a run at any worker count: the first caption that
    does not finish raises its exception as it came, so what was yielded is
    the caption-order prefix before it. The pool then cancels the queued
    captions and waits for the running ones, which are not yielded. A parked
    caption is not resumed once a caption behind it has failed: that failure
    is raised instead. Closing the generator early also cancels the queue.
    """
    if workers == 1:
        for caption in todo:
            yield caption, run(caption)
        return
    window_size = _POOL_WINDOW_PER_WORKER * workers
    with ThreadPoolExecutor(max_workers=workers, initializer=park_retries) as pool:
        try:
            pending, window = iter(todo), deque()
            while True:
                for caption in islice(pending, window_size - len(window)):
                    window.append((caption, pool.submit(run, caption)))
                if not window:
                    return
                caption, future = window.popleft()
                try:
                    outcome = future.result()
                except Backoff as backoff:
                    _raise_first_failure(window)
                    backoff.wait()
                    _raise_first_failure(window)
                    window.appendleft((caption, pool.submit(backoff.resume)))
                    continue
                yield caption, outcome
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def generate_corpus(
    captions: list[CaptionRecord],
    config: GeneratorConfig,
    out_path: str | Path,
    *,
    resume: bool = True,
    clock: Clock | None = None,
    client: AssistantClient | None = None,
) -> dict[str, int]:
    """Generate records for a caption list into a JSONL file; return the run's counts.

    The counts are ``n_captions``, ``n_covered_images`` (resumed ones
    included), ``n_records`` written this run and ``n_exhausted`` captions.

    Output order equals caption input order at any worker count, as
    :func:`_in_order` says. With ``resume`` (default), captions that already
    contributed records to the output file are skipped and new records are
    appended, unless a record there names another model or prompt version
    (an InputError, with nothing cut); an unterminated last line there is
    dropped first, as :func:`~cap2qa.corpus.drop_torn_tail` says. ``clock``
    only stamps the records; a client built here paces its rate limiter and
    backoff in real time. A failure is raised as it came, a failed write as a RuntimeFailure
    naming its file, for the caller to report. The output then holds the
    records of the captions before the first caption that did not finish,
    and no others, at any worker count.
    """
    clock = clock or SystemClock()
    out_path = Path(out_path)
    # A client that cannot be built (its cache directory is a file) fails before resume cuts the output.
    client = client or make_client(config)

    existing: list[InstructionRecord] = []
    if resume and out_path.is_file():  # a device or a FIFO, such as /dev/zero, is only written
        _check_recipe(out_path, (config.model_id, config.prompt.version_tag))
        drop_torn_tail(out_path)
        existing = read_instructions(out_path)
    covered_ids = {cid for record in existing for cid in record.source_caption_ids}
    todo = [c for c in captions if c.caption_id not in covered_ids]
    if len(todo) < len(captions):
        log.info("resume: %d of %d captions already covered", len(captions) - len(todo), len(captions))

    covered_images = {r.image_id for r in existing}
    n_records = n_exhausted = 0
    outcomes = _in_order(todo, lambda caption: generate_for_caption(caption, config, client=client, clock=clock), config.workers)
    with _open_output(out_path, "a" if existing else "w") as out, closing(outcomes):
        for caption, outcome in outcomes:
            if not outcome.records:
                n_exhausted += 1
                log.warning("caption %d exhausted after %d attempts", caption.caption_id, outcome.attempts_used)
                continue
            for record in outcome.records:
                out.write(record_to_line(record) + "\n")
                n_records += 1
                covered_images.add(record.image_id)
    return {"n_captions": len(captions), "n_covered_images": len(covered_images), "n_records": n_records, "n_exhausted": n_exhausted}
