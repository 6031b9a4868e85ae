"""Retry backoff: RetryPolicy's checks, and HTTP retries that park on the generator's pool."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import pytest

from cap2qa import generator
from cap2qa.clocks import FixedClock
from cap2qa.corpus import CaptionRecord, read_instructions
from cap2qa.errors import RuntimeFailure
from cap2qa.generator import GeneratorConfig, generate_corpus
from cap2qa.llm_client import (
    AssistantClient,
    Backoff,
    BackendSpec,
    MockScript,
    RetryPolicy,
    park_retries,
)
from cap2qa.promptkit import render

NOW = datetime(2024, 5, 1, 12, 0, 0, tzinfo=timezone.utc)
# Every wait in a scheduling test is bounded, so a broken pool fails the test
# instead of hanging it.
TIMEOUT = 10


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
            ({"max_attempts": -3}, "max_attempts must be >= 1, got -3"),
            ({"base_delay": -1.0}, "base_delay must be finite and >= 0, got -1.0"),
            ({"base_delay": math.nan}, "base_delay must be finite and >= 0, got nan"),
            ({"max_delay": math.inf}, "max_delay must be finite and >= 0, got inf"),
            ({"max_delay": -0.5}, "max_delay must be finite and >= 0, got -0.5"),
        ],
    )
    def test_a_bad_field_is_a_value_error_naming_it(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RetryPolicy(**kwargs)

    def test_the_smallest_valid_policy_never_waits(self):
        assert RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0).delay(1, random.Random(0)) == 0.0


def caption(cid):
    return CaptionRecord(caption_id=cid, image_id=100 + cid, text=f"caption {cid}")


def reply(cid):
    return f"Question: Q{cid}?\nAnswer: A{cid}."


class Reply:
    def __init__(self, status_code, text=None):
        self.status_code = status_code
        self.text = text

    def json(self):
        return {"choices": [{"message": {"content": self.text}}]}


class PlannedSession:
    """A fake ``requests`` session serving captions from a fault plan.

    Caption ``i``'s POSTs take the entries of ``plan[i]`` in turn (an HTTP
    status, or the text of a 200 reply), then get ``reply(i)``. Each POST is
    logged as ``(caption id, status)`` before ``hook(caption id, status)``
    runs, and the POSTs in flight are counted.
    """

    def __init__(self, cfg, captions, plan=(), hook=lambda cid, status: None):
        self.ids = {render(cfg.prompt, c).rendered: c.caption_id for c in captions}
        self.plan = {cid: list(steps) for cid, steps in dict(plan).items()}
        self.hook = hook
        self.posts = []
        self.in_flight = self.max_in_flight = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        cid = self.ids[json["messages"][0]["content"]]
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            steps = self.plan.get(cid)
            step = steps.pop(0) if steps else reply(cid)
            status, text = (200, step) if isinstance(step, str) else (step, None)
            self.posts.append((cid, status))
        try:
            self.hook(cid, status)
            return Reply(status, text)
        finally:
            with self._lock:
                self.in_flight -= 1

    def statuses(self, cid):
        return [status for c, status in self.posts if c == cid]


class ThreadClock(FixedClock):
    """A FixedClock that also logs which thread each sleep ran on."""

    def __init__(self):
        super().__init__(NOW)
        self.sleepers = []

    def sleep(self, seconds):
        self.sleepers.append(threading.get_ident())
        super().sleep(seconds)


@dataclass(frozen=True)
class RecordingPolicy(RetryPolicy):
    """Logs the attempt number of every backoff it draws."""

    attempts: list = field(default_factory=list)

    def delay(self, attempt, rng):
        self.attempts.append(attempt)
        return super().delay(attempt, rng)


def http_client(session, clock=None, retry=None):
    return AssistantClient(
        BackendSpec(kind="http", base_url="https://api.example.test/v1"),
        retry=retry or RetryPolicy(),
        clock=clock or ThreadClock(),
        session=session,
        rng=random.Random(0),
    )


def run(tmp_path, captions, workers, plan=(), hook=lambda cid, status: None, name=None):
    """Generate over a PlannedSession; return (output bytes, counts, session, client)."""
    cfg = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript()), workers=workers)
    session = PlannedSession(cfg, captions, plan, hook)
    client = http_client(session, retry=RecordingPolicy())
    out = tmp_path / f"{name or workers}.jsonl"
    counts = generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
    return out.read_bytes(), counts, session, client


class TestParkedRetry:
    """The client's side: on a thread that parks, a retry raises Backoff and resumes at the next attempt."""

    def test_resume_makes_the_next_attempt_and_caches_the_reply(self, tmp_path):
        cfg = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript()))
        session = PlannedSession(cfg, [caption(0)], {0: [429, 503]})
        clock = ThreadClock()
        client = AssistantClient(
            BackendSpec(kind="http", base_url="https://api.example.test/v1"),
            cache_dir=tmp_path / "cache",
            retry=RecordingPolicy(max_attempts=3),
            clock=clock,
            session=session,
            rng=random.Random(0),
        )
        request = cfg.request(render(cfg.prompt, caption(0)).rendered)
        with ThreadPoolExecutor(max_workers=1, initializer=park_retries) as pool:
            first = pool.submit(client.complete, request).exception(TIMEOUT)
            assert isinstance(first, Backoff)
            assert first.until == pytest.approx(RetryPolicy().delay(1, random.Random(0)))
            second = pool.submit(first.resume).exception(TIMEOUT)
            assert isinstance(second, Backoff)
            assert pool.submit(second.resume).result(TIMEOUT) == reply(0)
        # Nothing slept: the waits are left to whoever catches the Backoff.
        assert clock.sleeps == []
        assert client.retry.attempts == [1, 2]
        assert session.statuses(0) == [429, 503, 200]
        assert list((tmp_path / "cache").iterdir()) != []
        assert client.complete(request) == reply(0)
        assert len(session.posts) == 3

    def test_the_last_attempt_still_reports_the_outage(self):
        cfg = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript()))
        session = PlannedSession(cfg, [caption(0)], {0: [503, 429]})
        client = http_client(session, retry=RetryPolicy(max_attempts=2))
        request = cfg.request(render(cfg.prompt, caption(0)).rendered)
        with ThreadPoolExecutor(max_workers=1, initializer=park_retries) as pool:
            backoff = pool.submit(client.complete, request).exception(TIMEOUT)
            with pytest.raises(RuntimeFailure, match=r"unavailable after 2 attempts \(HTTP 429\)$"):
                pool.submit(backoff.resume).result(TIMEOUT)
        assert session.statuses(0) == [503, 429]


class TestParkingPool:
    # Two workers. Caption 0's first POST gets a 429 and its retry a 503.
    # Caption 1 holds the other worker until caption 2 reaches the backend,
    # so only the worker caption 0 had can serve caption 2: a caption that
    # slept through its backoff on that worker would retry before caption 2
    # ever started.
    def test_a_caption_in_backoff_frees_its_worker(self, tmp_path):
        captions = [caption(i) for i in range(6)]
        plan = {0: [429, 503]}
        one_worker, one_counts, _, _ = run(tmp_path, captions, 1, plan)
        two_posted = threading.Event()

        def hook(cid, status):
            if cid == 1:
                two_posted.wait(TIMEOUT)
            if cid == 2:
                two_posted.set()

        out, counts, session, client = run(tmp_path, captions, 2, plan, hook)
        assert session.posts.index((2, 200)) < session.posts.index((0, 503))
        assert session.max_in_flight <= 2
        # The retry after the 429 was attempt 2: its 503 drew attempt 2's backoff.
        assert client.retry.attempts == [1, 2]
        assert session.statuses(0) == [429, 503, 200]
        # Both backoffs were waited out by the writer, on the client's clock.
        assert client.clock.sleepers == [threading.get_ident()] * 2
        assert (out, counts) == (one_worker, one_counts)

    # Faults on several captions, including a caption that parks in its
    # second generator attempt (its first reply holds no pair) and one that
    # exhausts its attempts. Every worker count sends each caption the same
    # POSTs and writes the same bytes.
    def test_bytes_and_posts_do_not_depend_on_the_worker_count(self, tmp_path):
        captions = [caption(i) for i in range(24)]
        plan = {
            0: [429],
            1: [503, 503],
            3: ["no pairs here", 503],
            5: [429, "Question: Q5?\nAnswer: I cannot tell from the caption.", 503, 429],
            8: ["nothing", 503, "nothing", "nothing"],
            13: [503, 429, 503],
            23: [429],
        }
        # Switch threads as often as the interpreter can, to shake out orderings.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = {workers: run(tmp_path, captions, workers, plan) for workers in (1, 2, 4)}
        finally:
            sys.setswitchinterval(interval)
        for workers, (out, counts, session, _) in runs.items():
            assert session.max_in_flight <= workers
            assert (out, counts) == runs[1][:2]
            assert sorted(session.posts) == sorted(runs[1][2].posts)
        records = {r.source_caption_ids[0]: r for r in read_instructions(tmp_path / "2.jsonl")}
        assert (records[3].provenance.attempt, records[5].provenance.attempt) == (2, 2)
        assert 8 not in records and runs[2][1]["n_exhausted"] == 1

    # Two workers. Caption 1 fails with a 401 once caption 2, which got a
    # 503, is about to park. Caption 2 is not resumed and not written, and
    # the 401 propagates. A resumed run with a healthy backend then writes
    # caption 1 and 2 once each, to the bytes of an unbroken run.
    def test_a_failure_drops_the_parked_captions(self, tmp_path):
        captions = [caption(i) for i in range(3)]
        full, _, _, _ = run(tmp_path, captions, 1, name="full")
        two_posted = threading.Event()

        def hook(cid, status):
            if cid == 1:
                two_posted.wait(TIMEOUT)
            if cid == 2:
                two_posted.set()

        cfg = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript()), workers=2)
        session = PlannedSession(cfg, captions, {1: [401], 2: [503]}, hook)
        client = http_client(session)
        out = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeFailure, match=r"rejected credentials \(HTTP 401\)$"):
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
        assert sorted(session.posts) == [(0, 200), (1, 401), (2, 503)]
        assert client.clock.sleeps == []
        assert [r.source_caption_ids[0] for r in read_instructions(out)] == [0]

        healthy = PlannedSession(cfg, captions)
        counts = generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=http_client(healthy))
        assert sorted(healthy.posts) == [(1, 200), (2, 200)]
        assert counts["n_records"] == 2
        assert out.read_bytes() == full

    # Caption 0 parks on a 503; caption 1 then fails with a 401. Any wait for
    # caption 0's backoff ends only once caption 1 has failed, and caption 0
    # is then not resumed: no backend call starts after a failure.
    def test_a_failure_behind_a_parked_caption_stops_its_resume(self, tmp_path, monkeypatch):
        captions = [caption(i) for i in range(2)]
        zero_posted, one_failed = threading.Event(), threading.Event()

        def hook(cid, status):
            if cid == 0:
                zero_posted.set()
            if cid == 1:
                zero_posted.wait(TIMEOUT)

        class WatchedPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(lambda f: isinstance(f.exception(), RuntimeFailure) and one_failed.set())
                return future

        class GatedClock(ThreadClock):
            def sleep(self, seconds):
                one_failed.wait(TIMEOUT)
                super().sleep(seconds)

        monkeypatch.setattr(generator, "ThreadPoolExecutor", WatchedPool)
        cfg = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript()), workers=2)
        session = PlannedSession(cfg, captions, {0: [503], 1: [401]}, hook)
        client = http_client(session, clock=GatedClock())
        out = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeFailure, match=r"rejected credentials \(HTTP 401\)$"):
            generate_corpus(captions, cfg, out, clock=FixedClock(NOW), client=client)
        assert one_failed.is_set()
        assert sorted(session.posts) == [(0, 503), (1, 401)]
        assert out.read_bytes() == b""
