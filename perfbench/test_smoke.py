"""Tiny-scale smoke test of the benchmark itself (no timing gate).

    python3 -m pytest perfbench/test_smoke.py -q

Each case copies the benchmark, ``BENCHMARK.json`` and ``src/`` into a
temporary checkout, runs one workload at toy size with tracing off or on,
and checks that every declared metric is present, that the outputs passed
their oracle, and that the layers the workload exercises were traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Per-layer counters each workload must drive above zero.
EXERCISED = {
    "gen-mock": ["promptkit.render.calls", "generator.parse_qas.pairs", "filters.rejected.empty-field", "llm_client.mock_next.calls", "corpus.record_to_line.calls", "generator.exhausted", "unpinned.items_per_s"],
    "gen-http-resume": ["llm_client.http_post.calls", "llm_client.retry_sleep.count", "llm_client.cache_get.hits", "llm_client.cache_put.calls", "llm_client.limiter_acquire.calls", "corpus.read_instructions.records", "stub.requests"],
    "eval-chair": ["eval_hallucination.extract_objects.calls", "eval_hallucination.chair_eval.s", "reporting.report_render.s", "cli.read_jsonl.rows", "input.hallucination_share"],
    "eval-vqa": ["eval_vqa.normalize.calls", "eval_vqa.evaluate.s", "reporting.sha256_file.bytes"],
    "eval-caption": ["eval_caption.bleu.s", "eval_caption.cider_per_item.s", "eval_caption.stem_cache.misses"],
}


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--scale", "0.02"]
    return subprocess.run([sys.executable, *cmd[1:]], cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(tmp_path, workload, trace):
    proc = _run(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    proc = _run(_checkout(tmp_path, with_program=False), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_caption_words_have_distinct_stems():
    # The reference CIDEr scorer works on raw tokens; that equals CIDEr over
    # Porter stems only while no two fixture words share a stem.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from cap2qa.porter import stem
    finally:
        sys.path.remove(str(ROOT / "src"))
    words = {"a", "the"} | {w for group in fixtures.CAPTION_WORDS.values() for w in group}
    assert len({stem(w) for w in words}) == len(words)
