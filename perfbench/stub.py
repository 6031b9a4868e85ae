"""Loopback chat-completions stub for the ``gen-http-resume`` workload.

Run as its own process so its CPU time does not share the client's
interpreter lock. It speaks HTTP/1.1 with keep-alive and ``TCP_NODELAY``
(without it every request stalls on Nagle plus delayed ACK), sleeps a fixed
injected latency per request, and answers from a plan keyed by the SHA-256
of the prompt: a prompt's first ``len(faults)`` requests get those status
codes, later ones get its response text. Unknown prompts get 404.

Control endpoints: ``POST /reset`` clears the per-prompt request counts and
the statistics; ``GET /stats`` returns request counts by status and the
stub's own service time (handler time minus the injected latency).

    python3 perfbench/stub.py --plan stub_plan.json

prints ``port <n>`` on stdout once it is listening on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Injected backend latency per request.
LATENCY_S = 0.010


class StubState:
    def __init__(self, plan: dict):
        self.plan = plan
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: Counter = Counter()
            self.by_status: Counter = Counter()
            self.service_s = 0.0

    def decide(self, prompt: str) -> tuple[int, dict]:
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        entry = self.plan.get(key)
        if entry is None:
            return 404, {"error": "unknown prompt"}
        with self.lock:
            n = self.seen[key]
            self.seen[key] += 1
        if n < len(entry["faults"]):
            return entry["faults"][n], {"error": "try again"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": entry["text"]}}]}


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/stats":
                return self._reply(404, {"error": "not found"})
            with state.lock:
                body = {"requests": sum(state.by_status.values()), "by_status": dict(state.by_status), "service_s": state.service_s}
            self._reply(200, body)

        def do_POST(self):
            start = time.perf_counter()
            payload = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                return self._reply(200, {"ok": True})
            if not self.path.endswith("/chat/completions"):
                return self._reply(404, {"error": "not found"})
            try:
                prompt = json.loads(payload)["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                return self._reply(400, {"error": "bad request"})
            status, body = state.decide(prompt)
            slept = time.perf_counter()
            time.sleep(LATENCY_S)
            slept = time.perf_counter() - slept
            self._reply(status, body)
            with state.lock:
                state.by_status[status] += 1
                state.service_s += time.perf_counter() - start - slept

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(StubState(plan)))
    server.daemon_threads = True
    parent = os.getppid()

    def shut_down_when_orphaned():
        while os.getppid() == parent:
            time.sleep(0.5)
        server.shutdown()

    threading.Thread(target=shut_down_when_orphaned, daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
