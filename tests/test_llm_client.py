import hashlib
import json
import random
import re
from datetime import datetime, timezone

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa.clocks import FixedClock
from cap2qa.errors import InputError, RuntimeFailure, ScriptExhaustedError
from cap2qa.llm_client import (
    API_KEY_ENV,
    AssistantClient,
    AssistantRequest,
    BackendSpec,
    MockScript,
    RateLimiter,
    ResponseCache,
    RetryPolicy,
    cache_key,
    prompt_hash,
)

from conftest import write_jsonl

NOW = datetime(2024, 5, 1, tzinfo=timezone.utc)


def request(prompt="Question: ?", **kwargs):
    return AssistantRequest(prompt_text=prompt, model_id="gpt-3.5-turbo", **kwargs)


def mock_backend(*responses, by_hash=None):
    return BackendSpec(kind="mock", script=MockScript(responses, by_hash))


class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    """Scripted session; each entry is a FakeResponse or an exception."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_client(outcomes, **kwargs):
    session = FakeSession(outcomes)
    client = AssistantClient(
        BackendSpec(kind="http", base_url="https://api.example.test/v1"),
        session=session,
        clock=FixedClock(NOW),
        rng=random.Random(0),
        **kwargs,
    )
    return client, session


def ok_body(text="Answer: hi"):
    return {"choices": [{"message": {"content": text}}]}


class TestRequestValidation:
    def test_empty_prompt(self):
        with pytest.raises(ValueError):
            AssistantRequest(prompt_text="", model_id="m")

    def test_temperature_range(self):
        with pytest.raises(ValueError):
            request(temperature=2.5)

    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            request(max_output_tokens=0)

    # An empty model id would reach the records and the HTTP body.
    def test_empty_model_id(self):
        with pytest.raises(ValueError, match="^model_id must be non-empty$"):
            AssistantRequest(prompt_text="p", model_id="")


# A limit of 0 can never admit a call: it is rejected, not read as no limit.
def test_zero_rate_limit_is_rejected():
    with pytest.raises(ValueError, match="^rpm must be positive$"):
        AssistantClient(mock_backend("x"), rate_limit_rpm=0)


class TestBackendSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "http"}, "http backend requires base_url"),
            ({"kind": "mock"}, "mock backend requires a script"),
            ({"kind": "grpc", "base_url": "http://h/v1"}, "unknown backend kind 'grpc'"),
        ],
        ids=["http-without-base-url", "mock-without-script", "unknown-kind"],
    )
    def test_incomplete_spec_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BackendSpec(**kwargs)

    # requests raises InvalidSchema, MissingSchema or InvalidURL for these, and the client would retry them.
    @pytest.mark.parametrize("url", ["localhost:8000/v1", "127.0.0.1:8000", "ftp://h/v1", "http://", "http:///v1", "//h/v1", "http://[::1", "http://h:abc/v1", "http://h:99999/v1"])
    def test_base_url_without_http_scheme_and_host_rejected(self, url):
        with pytest.raises(ValueError, match=f"^base_url must be an http:// or https:// URL with a host, got {re.escape(repr(url))}$"):
            BackendSpec(kind="http", base_url=url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1", "https://api.example.test/v1", "HTTP://h"])
    def test_http_and_https_urls_accepted(self, url):
        assert BackendSpec(kind="http", base_url=url).base_url == url


class TestCacheKey:
    def test_sensitive_to_every_field(self):
        base = request()
        variants = [
            request("other prompt"),
            AssistantRequest(prompt_text=base.prompt_text, model_id="other"),
            request(temperature=1.0),
            request(max_output_tokens=16),
        ]
        keys = {cache_key(base)} | {cache_key(v) for v in variants}
        assert len(keys) == 5

    def test_stable(self):
        assert cache_key(request()) == cache_key(request())

    # The key is the content name a cache directory is shared by, so its
    # formula is pinned: the SHA-256 of this literal canonical JSON, which
    # the benchmark fixtures also compute on their own.
    def test_equals_the_sha256_of_the_canonical_json_of_the_request(self):
        key = cache_key(request("Légende: un chat — 猫", temperature=0.5, max_output_tokens=64))
        literal = '{"max_output_tokens": 64, "model_id": "gpt-3.5-turbo", "prompt_text": "Légende: un chat — 猫", "temperature": 0.5}'
        assert key == hashlib.sha256(literal.encode("utf-8")).hexdigest()


def test_prompt_hash_is_the_sha256_of_the_prompt_text():
    text = "Caption:\nUn chat sur un tapis — 猫\n"
    assert prompt_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestMockScript:
    def test_ordered_consumption(self):
        script = MockScript(["one", "two"])
        assert script.next_for("a") == "one"
        assert script.next_for("b") == "two"
        with pytest.raises(ScriptExhaustedError):
            script.next_for("c")

    def test_hash_keyed_wins_and_repeats(self):
        keyed = {prompt_hash("fixed"): "keyed"}
        script = MockScript(["queued"], by_hash=keyed)
        assert script.next_for("fixed") == "keyed"
        assert script.next_for("fixed") == "keyed"
        assert script.next_for("other") == "queued"

    def test_from_file(self, tmp_path):
        path = write_jsonl(
            tmp_path / "s.jsonl",
            [
                {"response_text": "plain"},
                {"response_text": "keyed", "prompt_hash": prompt_hash("p")},
            ],
        )
        script = MockScript.from_file(path)
        assert script.next_for("p") == "keyed"
        assert script.next_for("x") == "plain"

    @pytest.mark.parametrize("value, message", [
        (None, "must be a string, got null"),
        (False, "must be a string, got false"),
        ([], "must be a string, got []"),
        ("", "must be non-empty"),
    ])
    def test_from_file_rejects_a_prompt_hash_that_is_not_a_hash(self, tmp_path, value, message):
        path = write_jsonl(tmp_path / "s.jsonl", [{"response_text": "plain"}, {"response_text": "x", "prompt_hash": value}])
        with pytest.raises(InputError) as info:
            MockScript.from_file(path)
        assert str(info.value) == f"{path}:2: 'prompt_hash' {message}"

    # Such a key equals no prompt's hash, so its caption would fall through
    # to the ordered queue and the run would end with an exhausted script.
    @pytest.mark.parametrize("value", ["abc", "A" * 64, "0" * 63, "0" * 65, " " + "0" * 63, 12345], ids=["short", "upper-case", "63-digits", "65-digits", "space", "number"])
    def test_from_file_rejects_a_prompt_hash_that_is_not_64_hex_digits(self, tmp_path, value):
        path = write_jsonl(tmp_path / "s.jsonl", [{"response_text": "plain"}, {"response_text": "x", "prompt_hash": value}])
        with pytest.raises(InputError) as info:
            MockScript.from_file(path)
        assert str(info.value) == f"{path}:2: 'prompt_hash' must be 64 lowercase hex digits, a SHA-256 of a prompt, got {str(value)!r}"

    @pytest.mark.parametrize("keyed", [False, True], ids=["ordered", "hash-keyed"])
    def test_from_file_rejects_an_empty_response_text(self, tmp_path, keyed):
        row = {"response_text": "", **({"prompt_hash": prompt_hash("p")} if keyed else {})}
        path = write_jsonl(tmp_path / "s.jsonl", [{"response_text": "plain"}, row])
        with pytest.raises(InputError) as info:
            MockScript.from_file(path)
        assert str(info.value) == f"{path}:2: 'response_text' must be non-empty"

    def test_from_file_missing_field(self, tmp_path):
        path = write_jsonl(tmp_path / "s.jsonl", [{"text": "no"}])
        with pytest.raises(InputError, match=r"s\.jsonl:1: missing 'response_text'$"):
            MockScript.from_file(path)

    def test_from_file_names_the_line_of_a_lone_surrogate(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"response_text": "fine \U0001f600"}\n{"response_text": "Answer: \\ud83d"}\n', encoding="utf-8")
        with pytest.raises(InputError) as info:
            MockScript.from_file(path)
        assert str(info.value) == f"{path}:2: 'response_text' holds a lone surrogate '\\ud83d' at index 8"


class TestComplete:
    def test_mock_round_trip(self):
        client = AssistantClient(mock_backend("Answer: 42"), clock=FixedClock(NOW))
        assert client.complete(request()) == "Answer: 42"

    def test_empty_response_rejected(self):
        client = AssistantClient(mock_backend(""), clock=FixedClock(NOW))
        with pytest.raises(RuntimeFailure, match="^backend returned an empty response$"):
            client.complete(request())

    def test_cache_round_trip(self, tmp_path):
        client = AssistantClient(mock_backend("only once"), cache_dir=tmp_path / "cache", clock=FixedClock(NOW))
        # the script holds one response, so the second answer comes from the cache
        assert client.complete(request()) == client.complete(request()) == "only once"
        # a fresh client over the same directory, with an empty script, also hits the cache
        other = AssistantClient(mock_backend(), cache_dir=tmp_path / "cache", clock=FixedClock(NOW))
        assert other.complete(request()) == "only once"

    @pytest.mark.parametrize(
        "entry",
        [b"[1]", b'{"text": 5}', b'{"text": ""}', b'{"text": null}', b"{}", b'"text"', b"null", b'{"text": "cut', b"\xff"],
        ids=["list", "number", "empty", "null-text", "no-text", "string", "null", "truncated", "not-utf8"],
    )
    def test_corrupt_cache_entry_is_a_miss_and_is_rewritten(self, tmp_path, entry):
        cache_dir = tmp_path / "cache"
        path = cache_dir / f"{cache_key(request())}.json"
        cache_dir.mkdir()
        path.write_bytes(entry)
        client = AssistantClient(mock_backend("fresh"), cache_dir=cache_dir, clock=FixedClock(NOW))
        assert client.complete(request()) == "fresh"
        assert json.loads(path.read_text(encoding="utf-8")) == {"text": "fresh"}

    def test_a_deeply_nested_cache_entry_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{cache_key(request())}.json").write_bytes(b"[" * 100000)
        client = AssistantClient(mock_backend("fresh"), cache_dir=cache_dir, clock=FixedClock(NOW))
        assert client.complete(request()) == "fresh"

    def test_failed_cache_write_leaves_no_file(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        with pytest.raises(UnicodeEncodeError):
            cache.put("k", "Answer: \ud83d")
        assert list(cache.root.iterdir()) == []

    # The replace is part of the write: an entry path it cannot take is a RuntimeFailure naming the file written.
    def test_a_failed_cache_replace_is_a_runtime_failure_and_leaves_no_file(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        (cache.root / "k.json").mkdir()
        (cache.root / "k.json" / "x").touch()
        with pytest.raises(RuntimeFailure, match=rf"^cannot write {re.escape(str(cache.root))}/k\.json: "):
            cache.put("k", "Answer: A.")
        assert [p.name for p in cache.root.iterdir()] == ["k.json"]

    def test_a_failed_cache_write_keeps_the_earlier_entry(self, tmp_path, disk_full_after_first_write):
        cache = ResponseCache(tmp_path / "cache")
        (cache.root / "k.json").write_text('{"text": "earlier"}', encoding="utf-8")
        with pytest.raises(RuntimeFailure, match=rf"^cannot write {re.escape(str(cache.root))}/k\.json: No space left on device$"):
            cache.put("k", "Answer: A.")
        assert cache.get("k") == "earlier"
        assert [p.name for p in cache.root.iterdir()] == ["k.json"]

    def test_cache_does_not_leak_across_models(self, tmp_path):
        client = AssistantClient(mock_backend("a", "b"), cache_dir=tmp_path / "cache", clock=FixedClock(NOW))
        one = client.complete(request())
        two = client.complete(AssistantRequest(prompt_text="Question: ?", model_id="other-model"))
        assert (one, two) == ("a", "b")


class TestHttp:
    def test_success_payload_shape(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        client, session = http_client([FakeResponse(200, ok_body("fine"))])
        assert client.complete(request("hello")) == "fine"
        call = session.calls[0]
        assert call["url"] == "https://api.example.test/v1/chat/completions"
        assert call["json"]["model"] == "gpt-3.5-turbo"
        assert call["json"]["messages"] == [{"role": "user", "content": "hello"}]
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_no_key_no_auth_header(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        client, session = http_client([FakeResponse(200, ok_body())])
        client.complete(request())
        assert "Authorization" not in session.calls[0]["headers"]

    def test_retryable_status_retried_with_backoff(self):
        client, session = http_client(
            [FakeResponse(500), FakeResponse(429), FakeResponse(200, ok_body("ok"))]
        )
        assert client.complete(request()) == "ok"
        assert len(session.calls) == 3
        assert len(client.clock.sleeps) == 2

    def test_network_error_retried(self):
        client, session = http_client(
            [requests.exceptions.ConnectionError("down"), FakeResponse(200, ok_body("ok"))]
        )
        assert client.complete(request()) == "ok"
        assert len(session.calls) == 2

    # requests raises plain OSErrors too, as for a missing CA bundle: no retry fixes one, so it fails at once.
    def test_a_raw_os_error_is_not_retried_and_names_the_url(self):
        client, session = http_client([OSError("no CA bundle")] * 3, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(RuntimeFailure, match=r"^https://api\.example\.test/v1/chat/completions failed \(OSError: no CA bundle\)$"):
            client.complete(request())
        assert (len(session.calls), len(client.clock.sleeps)) == (1, 0)

    def test_exhaustion_raises_unavailable(self):
        client, session = http_client(
            [FakeResponse(503)] * 3, retry=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(RuntimeFailure, match=r"unavailable after 3 attempts \(HTTP 503\)$"):
            client.complete(request())
        assert len(session.calls) == 3

    def test_auth_failure_not_retried(self):
        client, session = http_client([FakeResponse(401)])
        with pytest.raises(RuntimeFailure, match=r"rejected credentials \(HTTP 401\)$"):
            client.complete(request())
        assert len(session.calls) == 1
        assert client.clock.sleeps == []

    def test_non_retryable_status_fails_fast(self):
        client, session = http_client([FakeResponse(404)])
        with pytest.raises(RuntimeFailure, match="returned HTTP 404$"):
            client.complete(request())
        assert len(session.calls) == 1

    def test_malformed_body(self):
        client, _ = http_client([FakeResponse(200, {"unexpected": True})])
        with pytest.raises(RuntimeFailure, match="returned an unexpected body"):
            client.complete(request())

    def test_content_that_is_not_a_string_is_an_unexpected_body(self):
        client, _ = http_client([FakeResponse(200, ok_body(5))])
        with pytest.raises(RuntimeFailure, match=r"returned an unexpected body \(content is int, not a string\)$"):
            client.complete(request())

    def test_rate_limit_is_acquired_before_every_post_retries_included(self, monkeypatch):
        client, session = http_client([FakeResponse(503), FakeResponse(200, ok_body("ok"))], rate_limit_rpm=1)
        posts_before_acquire = []
        acquire = client.limiter.acquire

        def counting():
            posts_before_acquire.append(len(session.calls))
            acquire()

        monkeypatch.setattr(client.limiter, "acquire", counting)
        assert client.complete(request()) == "ok"
        assert posts_before_acquire == [0, 1]
        # The backoff after the 503, then the limiter's wait for the rest of the 60 s window.
        backoff = RetryPolicy().delay(1, random.Random(0))
        assert client.clock.sleeps == [backoff, pytest.approx(60.0 - backoff)]

    def test_lone_surrogate_in_the_reply_is_a_backend_failure_and_is_not_cached(self, tmp_path):
        client, _ = http_client([FakeResponse(200, ok_body("Answer: \ud83d!"))], cache_dir=tmp_path / "cache")
        with pytest.raises(RuntimeFailure) as info:
            client.complete(request())
        url = "https://api.example.test/v1/chat/completions"
        assert str(info.value) == f"{url}: reply holds a lone surrogate '\\ud83d' at index 8"
        assert list((tmp_path / "cache").iterdir()) == []


class TestRateLimiter:
    def test_under_limit_no_sleep(self):
        clock = FixedClock(NOW)
        limiter = RateLimiter(rpm=3, clock=clock)
        for _ in range(3):
            limiter.acquire()
        assert clock.sleeps == []

    def test_over_limit_waits_for_window(self):
        clock = FixedClock(NOW)
        limiter = RateLimiter(rpm=2, clock=clock)
        limiter.acquire()
        limiter.acquire()
        limiter.acquire()
        assert clock.sleeps and clock.sleeps[0] == pytest.approx(60.0)

    def test_bad_rpm(self):
        with pytest.raises(ValueError):
            RateLimiter(rpm=0)


@settings(max_examples=200, deadline=None)
@given(attempt=st.integers(min_value=1, max_value=30), seed=st.integers(0, 2**16))
def test_retry_delay_bounds(attempt, seed):
    policy = RetryPolicy()
    delay = policy.delay(attempt, random.Random(seed))
    assert 0.0 <= delay <= min(policy.max_delay, policy.base_delay * 2 ** (attempt - 1))
