"""In-memory spans around the calls into each ``cap2qa`` layer.

The benchmark times layers from outside: it replaces a module-level name
that the pipeline calls through (or an attribute of an object it injected)
with a wrapper that records a span, so nothing under ``src/`` changes. Each
span has a name ``<layer>.<operation>``, start and end times, the span that
caused it and, where one applies, the caption id it serves. A name that no
longer exists is skipped and listed in ``missing``, so a refactor of the
package degrades the trace instead of breaking the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "promptkit",
    "llm_client",
    "generator",
    "filters",
    "corpus",
    "eval_hallucination",
    "eval_vqa",
    "eval_caption",
    "reporting",
    "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, item, thread, start, end)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._counters: dict[str, itertools.count] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pool_owner: tuple = (None, None)

    def add(self, *names: str, **amounts) -> None:
        """Count outcomes; safe to call from pool workers."""
        with self._lock:
            self.counts.update(names)
            self.counts.update(amounts)

    def wrap(self, fn, name: str, *, item=None, after=None, owns_pool: bool = False):
        """Return ``fn`` recording a span per call.

        ``item(args)`` names the caption a span serves (children inherit it),
        ``after(result, args)`` counts outcomes, and ``owns_pool`` marks the
        span that causes spans starting on worker threads.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent, parent_item = stack[-1] if stack else tracer._pool_owner
            span_item = item(args) if item else parent_item
            span_id = next(tracer._ids)
            stack.append((span_id, span_item))
            if owns_pool:
                outer, tracer._pool_owner = tracer._pool_owner, (span_id, span_item)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if owns_pool:
                    tracer._pool_owner = outer
                tracer.spans.append((span_id, parent, name, span_item, threading.get_ident(), start, end))
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(fn, name, **kwargs))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls without a span, for functions called too often to time."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def call_counts(self) -> dict[str, int]:
        # next() on an itertools.count returns how many times it was advanced before.
        return {name: next(counter) for name, counter in self._counters.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, item, thread, start, end in self.spans:
                row = {"id": span_id, "parent": parent, "name": name, "item": item, "thread": thread, "start": start, "end": end}
                fh.write(json.dumps(row) + "\n")


def summarize(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-name call counts and total seconds, and self seconds per layer.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children on other threads included, so the main
    thread's wait on a pool worker is not counted as its own work).
    """
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    children: dict[int, list] = defaultdict(list)
    for span_id, parent, name, _item, _thread, start, end in spans:
        totals[name][0] += 1
        totals[name][1] += end - start
        if parent is not None:
            children[parent].append((start, end))
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span_id, _parent, name, _item, _thread, start, end in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start - covered)
    return {name: (calls, s) for name, (calls, s) in totals.items()}, self_s
