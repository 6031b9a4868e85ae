"""Assistant access: one interface over an HTTP chat backend and a scripted mock.

The HTTP side speaks a chat-completions-style JSON endpoint
(``POST {base_url}/chat/completions``) and reads its API key from the
``CAP2QA_API_KEY`` environment variable. The mock side replays scripted
responses, either in order or keyed by the SHA-256 of the prompt text, which
makes whole pipeline runs deterministic.

Transient HTTP failures (timeouts, 429, 5xx) are retried with jittered
exponential backoff; 401/403 are not. The backoff sleeps in the calling
thread, except on a thread that called :func:`park_retries`: there the
retry loop raises :class:`Backoff` instead, and whoever catches it waits
and calls its ``resume``. The generator's worker pool parks this way, so a
caption in backoff holds no worker. An optional on-disk cache keyed by
:func:`cache_key` makes repeated runs idempotent, and a shared rate limiter
caps network calls per minute across worker threads; its waits always stay
in the calling thread.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from urllib.parse import urlsplit

import requests

from .clocks import Clock, SystemClock
from .corpus import _open_output, check_keys, iter_jsonl, read_field, sha256_hex, utf8_text
from .errors import InputError, RuntimeFailure, ScriptExhaustedError

API_KEY_ENV = "CAP2QA_API_KEY"
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class AssistantRequest:
    prompt_text: str
    model_id: str
    temperature: float = 0.0
    max_output_tokens: int = 512

    def __post_init__(self):
        if not self.prompt_text:
            raise ValueError("prompt_text must be non-empty")
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_output_tokens <= 0:
            raise ValueError(f"max_output_tokens must be positive, got {self.max_output_tokens}")


# The key of a hash-keyed mock script entry: the SHA-256 hex of the rendered prompt text.
prompt_hash = sha256_hex
_PROMPT_HASH = re.compile("[0-9a-f]{64}")


def cache_key(request: AssistantRequest) -> str:
    """The digest of every field of the request, which is everything that shapes the response."""
    return sha256_hex(vars(request))


class MockScript:
    """Scripted responses, consumed in order or looked up by prompt hash.

    Hash-keyed entries win over the ordered queue; ordered consumption is
    serialized with a lock so concurrent workers each get one entry (in an
    order that then depends on scheduling — use hash keys when byte-stable
    output across worker counts matters).
    """

    def __init__(self, responses=(), by_hash=None):
        self._queue = deque(responses)
        self._by_hash = dict(by_hash or {})
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        """Load a JSONL script of ``{response_text, prompt_hash?}`` entries."""
        responses: list[str] = []
        by_hash: dict[str, str] = {}
        for where, obj in iter_jsonl(path):
            text = utf8_text(read_field(obj, "response_text", where), where, "'response_text'")
            check_keys(obj, ("response_text", "prompt_hash"), where)
            if not text:
                raise InputError(f"{where}: 'response_text' must be non-empty")
            if "prompt_hash" not in obj:
                responses.append(text)
                continue
            # A key that no prompt hashes to would leave its caption to the ordered queue.
            key = read_field(obj, "prompt_hash", where)
            if not key:
                raise InputError(f"{where}: 'prompt_hash' must be non-empty")
            if not _PROMPT_HASH.fullmatch(key):
                raise InputError(f"{where}: 'prompt_hash' must be 64 lowercase hex digits, a SHA-256 of a prompt, got {key!r}")
            by_hash[key] = text
        return cls(responses, by_hash)

    def next_for(self, prompt_text: str) -> str:
        key = prompt_hash(prompt_text)
        with self._lock:
            if key in self._by_hash:
                return self._by_hash[key]
            if not self._queue:
                raise ScriptExhaustedError("mock script has no response left")
            return self._queue.popleft()


def base_url_problem(url: str) -> str | None:
    """Why requests cannot send to ``url``, or None; the client would retry such a URL as if the backend were down."""
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in 0..65535
        valid = parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:
        valid = False
    return None if valid else f"must be an http:// or https:// URL with a host, got {url!r}"


@dataclass(frozen=True)
class BackendSpec:
    kind: str  # "http" | "mock"
    base_url: str | None = None
    script: MockScript | None = None

    def __post_init__(self):
        if self.kind == "http":
            if not self.base_url:
                raise ValueError("http backend requires base_url")
            if problem := base_url_problem(self.base_url):
                raise ValueError(f"base_url {problem}")
        elif self.kind == "mock":
            if self.script is None:
                raise ValueError("mock backend requires a script")
        else:
            raise ValueError(f"unknown backend kind {self.kind!r}")


class ResponseCache:
    """Content-addressed response store: one JSON file per cache key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            raise RuntimeFailure(f"cache directory {root}: must be a directory, not a file") from exc
        except OSError as exc:
            raise RuntimeFailure(f"cache directory {root}: {exc.strerror or exc}") from exc

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The cached text, or None when the entry is missing, unreadable or not ``{"text": <non-empty str>}``."""
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        text = entry.get("text") if type(entry) is dict else None
        return text if type(text) is str and text else None

    def put(self, key: str, text: str) -> None:
        path = self._path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        with _open_output(tmp) as fh:
            try:
                json.dump({"text": text}, fh, ensure_ascii=False)
                fh.close()
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)


class RateLimiter:
    """Sliding-window limiter: at most ``rpm`` acquisitions per 60 s."""

    def __init__(self, rpm: int, clock: Clock | None = None):
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        self.rpm = rpm
        self.clock = clock or SystemClock()
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self.clock.monotonic()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.rpm:
                    self._stamps.append(now)
                    return
                wait = self._stamps[0] + 60.0 - now
            self.clock.sleep(max(wait, 0.001))


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    base_delay: float = 0.5
    max_delay: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("base_delay", "max_delay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        # attempt is 1-based; full jitter on an exponential ramp, capped.
        return rng.uniform(0, min(self.max_delay, self.base_delay * 2 ** (attempt - 1)))


class Backoff(Exception):
    """An HTTP retry parked instead of sleeping in its thread.

    ``until`` is when the retry is due on ``clock`` (the client's clock);
    ``resume()`` makes the remaining attempts, starting with the next one,
    and returns what the parked call would have returned. It raises
    :class:`Backoff` again if it parks again.
    """

    def __init__(self, clock: Clock, until: float, resume):
        super().__init__(f"retry due at {until:.3f}")
        self.clock = clock
        self.until = until
        self.resume = resume

    def wait(self) -> None:
        """Sleep on the client's clock for what is left of the backoff."""
        left = self.until - self.clock.monotonic()
        if left > 0:
            self.clock.sleep(left)


# Per thread, so it reaches only the threads that asked for it: a pool that
# parks sets it in each of its own threads as they start.
_this_thread = threading.local()


def park_retries() -> None:
    """Make HTTP retries on the calling thread raise :class:`Backoff` instead of sleeping."""
    _this_thread.parks = True


class AssistantClient:
    """Thread-safe assistant frontend with caching, retries and rate limiting.

    Safe to share across workers: the mock script, the cache and the rate
    limiter are internally synchronized.
    """

    def __init__(
        self,
        backend: BackendSpec,
        *,
        cache_dir: str | Path | None = None,
        rate_limit_rpm: int | None = None,
        retry: RetryPolicy | None = None,
        clock: Clock | None = None,
        session=None,
        timeout: float = 120.0,
        rng: random.Random | None = None,
    ):
        self.backend = backend
        self.clock = clock or SystemClock()
        self.cache = ResponseCache(cache_dir) if cache_dir else None
        self.limiter = RateLimiter(rate_limit_rpm, self.clock) if rate_limit_rpm is not None else None
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._rng = rng or random.Random()

    def complete(self, request: AssistantRequest) -> str:
        """Return the assistant's text for a request, from cache when possible."""
        key = cache_key(request) if self.cache else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached

        if self.backend.kind == "mock":
            return self._keep(key, self.backend.script.next_for(request.prompt_text))
        return self._complete_http(request, key)

    def _keep(self, key: str | None, text: str) -> str:
        if not text:
            raise RuntimeFailure("backend returned an empty response")
        if key is not None:
            self.cache.put(key, text)
        return text

    def _complete_http(self, request: AssistantRequest, key: str | None, first: int = 1) -> str:
        """Attempts ``first`` to ``max_attempts``; a parked retry resumes here at the next attempt."""
        url = self.backend.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }

        for attempt in range(first, self.retry.max_attempts + 1):
            if self.limiter:
                self.limiter.acquire()
            try:
                response = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_problem = f"{type(exc).__name__}: {exc}"
            except OSError as exc:  # a plain one from requests (a missing CA bundle): no retry fixes it
                raise RuntimeFailure(f"{url} failed ({type(exc).__name__}: {exc})") from exc
            else:
                status = response.status_code
                if status in (401, 403):
                    raise RuntimeFailure(f"{url} rejected credentials (HTTP {status})")
                if status == 200:
                    return self._keep(key, self._extract_text(response, url))
                if status not in RETRYABLE_STATUS:
                    raise RuntimeFailure(f"{url} returned HTTP {status}")
                last_problem = f"HTTP {status}"
            if attempt < self.retry.max_attempts:
                delay = self.retry.delay(attempt, self._rng)
                if getattr(_this_thread, "parks", False):
                    resume = partial(self._complete_http, request, key, attempt + 1)
                    raise Backoff(self.clock, self.clock.monotonic() + delay, resume)
                self.clock.sleep(delay)
        raise RuntimeFailure(
            f"{url} unavailable after {self.retry.max_attempts} attempts ({last_problem})"
        )

    @staticmethod
    def _extract_text(response, url: str) -> str:
        try:
            text = response.json()["choices"][0]["message"]["content"]
            if text is not None and type(text) is not str:
                raise TypeError(f"content is {type(text).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RuntimeFailure(f"{url} returned an unexpected body ({exc})") from exc
        # The cache and the corpus are UTF-8 files: a reply they cannot hold is the backend's fault.
        try:
            return utf8_text(text or "", url, "reply")
        except InputError as exc:
            raise RuntimeFailure(str(exc)) from exc
