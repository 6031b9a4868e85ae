"""generate_corpus over real HTTP: a real requests.Session talks to the benchmark's loopback stub.

``perfbench/stub.py`` runs as its own process and answers from a plan keyed
by the SHA-256 of each prompt: a prompt's first requests get the planned
status codes, and later ones get its reply. These tests cover only what the
stub can inject, which is status codes and well-formed JSON bodies.
"""

import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
import requests

from cap2qa.clocks import FixedClock
from cap2qa.corpus import CaptionRecord
from cap2qa.errors import RuntimeFailure
from cap2qa.generator import GeneratorConfig, generate_corpus
from cap2qa.llm_client import AssistantClient, BackendSpec, MockScript, RetryPolicy, prompt_hash
from cap2qa.promptkit import default_prompt_config, render

from conftest import write_caption_file
from test_cli import run_process

ROOT = Path(__file__).resolve().parents[1]
NOW = datetime(2024, 5, 1, 12, 0, 0, tzinfo=timezone.utc)
TIMEOUT = 10

# Captions 1-3 succeed after their planned faults; each other caption is one failure case.
CAPTIONS = {
    1: ("A cat sits on a mat.", [503, 429]),
    2: ("A dog runs in a park.", [429]),
    3: ("A bird sits on a branch.", []),
    4: ("A man rides a horse.", [401]),
    5: ("A boat floats on a lake.", [503] * 5),
}
UNPLANNED = 6


def caption(cid, text=None):
    return CaptionRecord(caption_id=cid, image_id=100 + cid, text=text or CAPTIONS[cid][0])


def reply(cid):
    return f"Question: What is in picture {cid}?\nAnswer: Thing {cid}."


def key(cid):
    return prompt_hash(render(default_prompt_config(), caption(cid)).rendered)


@pytest.fixture
def stub(tmp_path):
    """The stub's base URL; the stub process is terminated and waited for whether the test passes or fails."""
    plan = {key(cid): {"faults": faults, "text": reply(cid)} for cid, (_, faults) in CAPTIONS.items()}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "stub.py"), "--plan", str(plan_path)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("port "), line
        yield f"http://127.0.0.1:{int(line.split()[1])}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.fixture
def session():
    with requests.Session() as s:
        yield s


def stub_call(session, method, url):
    response = session.request(method, url, timeout=TIMEOUT)
    response.raise_for_status()
    return response.json()


def settled_stats(session, root, n_requests):
    """The stub's statistics once it has counted ``n_requests``: it counts a request just after replying to it."""
    deadline = time.monotonic() + TIMEOUT
    while True:
        stats = stub_call(session, "GET", root + "/stats")
        if stats["requests"] >= n_requests or time.monotonic() > deadline:
            return stats
        time.sleep(0.01)


def run_http(root, session, captions, out, workers=1):
    config = GeneratorConfig(backend=BackendSpec(kind="http", base_url=root + "/v1"), workers=workers)
    client = AssistantClient(config.backend, retry=RetryPolicy(base_delay=0.0, max_delay=0.0), session=session)
    return generate_corpus(captions, config, out, resume=False, clock=FixedClock(NOW), client=client)


class TestLoopback:
    def test_faults_are_retried_and_the_bytes_match_a_mock_run(self, stub, session, tmp_path):
        captions = [caption(cid) for cid in (1, 2, 3)]
        script = MockScript(by_hash={key(c.caption_id): reply(c.caption_id) for c in captions})
        mock_config = GeneratorConfig(backend=BackendSpec(kind="mock", script=script))
        generate_corpus(captions, mock_config, tmp_path / "mock.jsonl", clock=FixedClock(NOW))
        expected = (tmp_path / "mock.jsonl").read_bytes()
        planned = {"503": 1, "429": 2, "200": len(captions)}

        for workers in (1, 2):
            stub_call(session, "POST", stub + "/reset")
            out = tmp_path / f"http-{workers}.jsonl"
            counts = run_http(stub, session, captions, out, workers)
            assert counts == {"n_captions": 3, "n_covered_images": 3, "n_records": 3, "n_exhausted": 0}
            assert out.read_bytes() == expected
            assert settled_stats(session, stub, sum(planned.values()))["by_status"] == planned

    @pytest.mark.parametrize(
        "cid, message",
        [
            (4, "/v1/chat/completions rejected credentials (HTTP 401)"),
            (UNPLANNED, "/v1/chat/completions returned HTTP 404"),
            (5, "/v1/chat/completions unavailable after 5 attempts (HTTP 503)"),
        ],
        ids=["401", "unplanned-404", "five-503s"],
    )
    def test_a_failed_caption_fails_the_run_with_one_message(self, stub, session, tmp_path, cid, message):
        target = caption(cid, "A kite flies over a beach." if cid == UNPLANNED else None)
        with pytest.raises(RuntimeFailure) as failure:
            run_http(stub, session, [target], tmp_path / "out.jsonl")
        assert str(failure.value) == stub + message

    def test_rejected_credentials_are_exit_2_without_a_traceback(self, stub, tmp_path):
        captions = write_caption_file(tmp_path / "captions.json", [(4, 104, CAPTIONS[4][0])])
        proc = run_process("generate", "--captions", captions, "--out", tmp_path / "out.jsonl", "--base-url", stub + "/v1")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert lines[-1] == f"ERROR cap2qa: {stub}/v1/chat/completions rejected credentials (HTTP 401)"
        # Every message is one line of the log format: no traceback and no continuation line.
        assert all(line.split(" ", 1)[0] in ("INFO", "WARNING", "ERROR") for line in lines), lines
        assert "Traceback" not in proc.stderr
