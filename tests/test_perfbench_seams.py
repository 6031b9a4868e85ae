"""The names the benchmark patches to trace each layer still exist.

``perfbench/child.py`` wraps module-level names and client attributes with
span recorders; a name that is gone is skipped and listed in
``Tracer.missing``, so the run goes on and a per-layer metric silently reads
0. This test installs that tracing in a fresh process, where its patches
cannot leak into other tests, and asserts that it misses nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import tempfile

import child
import spans
from cap2qa.llm_client import AssistantClient, AssistantRequest, BackendSpec, MockScript

tracer = spans.Tracer()
child.install(tracer)
with tempfile.TemporaryDirectory() as cache_dir:
    client = AssistantClient(BackendSpec(kind="mock", script=MockScript(("reply",))), cache_dir=cache_dir, rate_limit_rpm=60)
    child._trace_client(tracer, client)
    assert tracer.missing == [], tracer.missing
    assert client.cache is not None and client.limiter is not None and client.backend.script is not None
    assert client.complete(AssistantRequest("prompt", "model", 0.0, 16)) == "reply"
# A mock backend is not rate limited, so the limiter records no span here.
names = {span[2] for span in tracer.spans}
assert names == {"llm_client.complete", "llm_client.cache_get", "llm_client.cache_put", "llm_client.mock_next"}, names
print("ok")
"""


def test_every_traced_name_exists(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
