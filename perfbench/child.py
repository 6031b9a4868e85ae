"""Run one ``cap2qa`` invocation in a fresh process and report on it.

    python3 perfbench/child.py job.json result.json

A fresh process per invocation means every run starts with cold module
caches, as a command-line user's would, and its peak resident memory is the
program's own. The job is either ``cli`` (``cap2qa.cli.main(argv)``) or
``http-resume`` (``load_coco_captions`` + ``generate_corpus`` with an
``AssistantClient`` built here). With ``trace`` on, spans are recorded
around each layer's calls and summarised into per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

_t0 = perf_counter()

import itertools  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from datetime import datetime  # noqa: E402
from pathlib import Path  # noqa: E402

import requests  # noqa: E402

import cap2qa  # noqa: E402
from cap2qa import cli, corpus, eval_caption, eval_hallucination, eval_vqa, generator  # noqa: E402
from cap2qa.errors import Cap2qaError  # noqa: E402
from cap2qa.llm_client import AssistantClient, BackendSpec, RetryPolicy  # noqa: E402

IMPORT_S = perf_counter() - _t0

from spans import Tracer, summarize  # noqa: E402

RULE_IDS = ("mentions-caption", "not-specified-excuse", "empty-field", "meta-refusal")
HTTP_CODES = (200, 429, 503)
# The jitter rng is seeded with a constant, not the workload seed: the
# workload's fault count is fixed by design, so every run then sleeps the
# same total backoff and the throughput spread is the program's own.
JITTER_SEED = 20240501


class BenchClock:
    """Provenance time frozen for byte-stable output; pacing and backoff in real time."""

    def __init__(self, at: datetime):
        self.at = at

    def now(self) -> datetime:
        return self.at

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


def _trace_client(tracer: Tracer, client) -> None:
    """Wrap the parts of one client that the generator calls through."""
    tracer.patch(client, "complete", "llm_client.complete")
    cache = getattr(client, "cache", None)
    if cache is not None:
        tracer.patch(cache, "get", "llm_client.cache_get", after=lambda r, a: tracer.add(cache_hits=r is not None))
        tracer.patch(cache, "put", "llm_client.cache_put")
    if getattr(client, "limiter", None) is not None:
        tracer.patch(client.limiter, "acquire", "llm_client.limiter_acquire")
    script = getattr(getattr(client, "backend", None), "script", None)
    if script is not None:
        tracer.patch(script, "next_for", "llm_client.mock_next")


def _count_outcome(tracer: Tracer):
    def after(outcome, args):
        attempts = getattr(outcome, "attempts_used", 0)
        tracer.add(attempts=attempts, retried=attempts > 1, exhausted=not getattr(outcome, "records", ()))

    return after


def _count_filter(tracer: Tracer):
    def after(report, args):
        kept, rejected = getattr(report, "kept", ()), getattr(report, "rejected", ())
        tracer.add(*(f"rejected.{rule_id}" for _pair, rule_id in rejected), pairs_kept=len(kept), pairs_in=len(kept) + len(rejected))

    return after


def install(tracer: Tracer) -> None:
    """Wrap the module-level names the pipeline calls through."""
    count = tracer.add
    tracer.patch(cli, "_read_jsonl", "cli.read_jsonl", after=lambda r, a: count(rows=len(r)))
    tracer.patch(cli, "load_coco_captions", "corpus.load_coco_captions")
    tracer.patch(cli, "generate_corpus", "generator.generate_corpus", owns_pool=True)
    tracer.patch(cli, "load_object_annotations", "eval_hallucination.load_object_annotations")
    tracer.patch(cli, "default_lexicon", "eval_hallucination.default_lexicon")
    tracer.patch(cli, "chair_eval", "eval_hallucination.chair_eval")
    tracer.patch(cli, "evaluate", "eval_vqa.evaluate")
    tracer.patch(cli, "bleu", "eval_caption.bleu")
    tracer.patch(cli, "report_render", "reporting.report_render")
    tracer.patch(cli, "sha256_file", "reporting.sha256_file", after=lambda r, a: count(sha_bytes=os.path.getsize(a[0])))
    tracer.patch(generator, "generate_for_caption", "generator.generate_for_caption", item=lambda a: a[0].caption_id, after=_count_outcome(tracer))
    tracer.patch(generator, "render", "promptkit.render")
    tracer.patch(generator, "parse_qas", "generator.parse_qas", after=lambda r, a: count(pairs=len(r)))
    tracer.patch(generator, "filter_artifacts", "filters.filter_artifacts", after=_count_filter(tracer))
    tracer.patch(generator, "record_to_line", "corpus.record_to_line")
    tracer.patch(generator, "read_instructions", "corpus.read_instructions", after=lambda r, a: count(records=len(r)))
    tracer.patch(generator, "make_client", "generator.make_client", after=lambda client, a: _trace_client(tracer, client))
    answer_ids = itertools.count()
    tracer.patch(eval_hallucination, "extract_objects", "eval_hallucination.extract_objects", item=lambda a: next(answer_ids))
    tracer.patch(eval_caption, "cider_per_item", "eval_caption.cider_per_item")
    tracer.count_calls(eval_vqa, "normalize", "eval_vqa.normalize")


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    totals, self_s = summarize(tracer.spans)
    counts, calls = tracer.counts, tracer.call_counts()

    def n(name):
        return totals.get(name, (0, 0.0))[0]

    def s(name):
        return totals.get(name, (0, 0.0))[1]

    limiter_spans = {sid for sid, _p, name, *_ in tracer.spans if name == "llm_client.limiter_acquire"}
    retry_sleeps = [end - start for _i, parent, name, _it, _t, start, end in tracer.spans if name == "llm_client.retry_sleep" and parent not in limiter_spans]
    corpus_s = s("generator.generate_corpus")
    stem_info = getattr(getattr(eval_caption, "_stem_cached", None), "cache_info", None)
    stem = stem_info() if stem_info else None
    gets = n("llm_client.cache_get")
    posts = n("llm_client.http_post")
    captions = n("generator.generate_for_caption")
    m = {
        "generator.generate_corpus.s": corpus_s,
        "generator.generate_for_caption.calls": captions,
        "generator.generate_for_caption.s": s("generator.generate_for_caption"),
        "generator.attempts": counts["attempts"],
        "generator.exhausted": counts["exhausted"],
        "generator.pool_busy_share": s("generator.generate_for_caption") / (corpus_s * workers) if corpus_s else 0.0,
        "generator.parse_qas.calls": n("generator.parse_qas"),
        "generator.parse_qas.s": s("generator.parse_qas"),
        "generator.parse_qas.pairs": counts["pairs"],
        "promptkit.render.calls": n("promptkit.render"),
        "promptkit.render.s": s("promptkit.render"),
        "filters.filter_artifacts.calls": n("filters.filter_artifacts"),
        "filters.filter_artifacts.s": s("filters.filter_artifacts"),
        "filters.kept_share": counts["pairs_kept"] / counts["pairs_in"] if counts["pairs_in"] else 0.0,
        **{f"filters.rejected.{rule}": counts[f"rejected.{rule}"] for rule in RULE_IDS},
        "llm_client.complete.calls": n("llm_client.complete"),
        "llm_client.complete.s": s("llm_client.complete"),
        "llm_client.mock_next.calls": n("llm_client.mock_next"),
        "llm_client.mock_next.s": s("llm_client.mock_next"),
        "llm_client.http_post.calls": posts,
        "llm_client.http_post.s": s("llm_client.http_post"),
        **{f"llm_client.http_status.{code}": counts[f"status.{code}"] for code in HTTP_CODES},
        "llm_client.retry_sleep.count": len(retry_sleeps),
        "llm_client.retry_sleep.s": sum(retry_sleeps),
        "llm_client.limiter_acquire.calls": n("llm_client.limiter_acquire"),
        "llm_client.limiter_acquire.wait_s": s("llm_client.limiter_acquire"),
        "llm_client.cache_get.calls": gets,
        "llm_client.cache_get.hits": counts["cache_hits"],
        "llm_client.cache_get.s": s("llm_client.cache_get"),
        "llm_client.cache_put.calls": n("llm_client.cache_put"),
        "llm_client.cache_put.s": s("llm_client.cache_put"),
        "llm_client.cache_hit_share": counts["cache_hits"] / gets if gets else 0.0,
        "corpus.load_coco_captions.s": s("corpus.load_coco_captions"),
        "corpus.record_to_line.calls": n("corpus.record_to_line"),
        "corpus.record_to_line.s": s("corpus.record_to_line"),
        "corpus.read_instructions.s": s("corpus.read_instructions"),
        "corpus.read_instructions.records": counts["records"],
        "eval_hallucination.extract_objects.calls": n("eval_hallucination.extract_objects"),
        "eval_hallucination.extract_objects.s": s("eval_hallucination.extract_objects"),
        "eval_hallucination.chair_eval.s": s("eval_hallucination.chair_eval"),
        "eval_hallucination.load_object_annotations.s": s("eval_hallucination.load_object_annotations"),
        "eval_hallucination.default_lexicon.s": s("eval_hallucination.default_lexicon"),
        "eval_vqa.evaluate.s": s("eval_vqa.evaluate"),
        "eval_vqa.normalize.calls": calls.get("eval_vqa.normalize", 0),
        "eval_caption.bleu.s": s("eval_caption.bleu"),
        "eval_caption.cider_per_item.s": s("eval_caption.cider_per_item"),
        "eval_caption.stem_cache.hits": stem.hits if stem else 0,
        "eval_caption.stem_cache.misses": stem.misses if stem else 0,
        "reporting.report_render.s": s("reporting.report_render"),
        "reporting.sha256_file.s": s("reporting.sha256_file"),
        "reporting.sha256_file.bytes": counts["sha_bytes"],
        "cli.read_jsonl.s": s("cli.read_jsonl"),
        "cli.read_jsonl.rows": counts["rows"],
        **{f"self_s.{layer}": v for layer, v in self_s.items()},
        "input.http_fault_share": (posts - counts["status.200"]) / posts if posts else 0.0,
        "input.retry_share": counts["retried"] / captions if captions else 0.0,
        "input.exhausted_share": counts["exhausted"] / captions if captions else 0.0,
        "trace.spans": len(tracer.spans),
    }
    return m


def run_cli(job: dict, tracer: Tracer | None) -> tuple[int, float, str | None]:
    main = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
    start = perf_counter()
    code = main(job["argv"])
    return code, perf_counter() - start, None


def run_http_resume(job: dict, tracer: Tracer | None) -> tuple[int, float, str | None]:
    clock = BenchClock(datetime.fromisoformat(job["fixed_clock"]))
    session = requests.Session()
    if tracer:
        def count_status(response, args):
            tracer.add(f"status.{response.status_code}")

        session.post = tracer.wrap(session.post, "llm_client.http_post", after=count_status)
        clock.sleep = tracer.wrap(clock.sleep, "llm_client.retry_sleep")
    client = AssistantClient(
        BackendSpec(kind="http", base_url=job["base_url"]),
        cache_dir=job["cache"],
        rate_limit_rpm=job["rate_limit_rpm"],
        retry=RetryPolicy(),
        clock=clock,
        session=session,
        timeout=30.0,
        rng=random.Random(JITTER_SEED),
    )
    config = generator.GeneratorConfig(
        backend=client.backend,
        workers=job["workers"],
        cache_enabled=True,
        cache_dir=Path(job["cache"]),
        rate_limit_rpm=job["rate_limit_rpm"],
    )
    load, generate = corpus.load_coco_captions, generator.generate_corpus
    if tracer:
        _trace_client(tracer, client)
        load = tracer.wrap(load, "corpus.load_coco_captions")
        generate = tracer.wrap(generate, "generator.generate_corpus", owns_pool=True)
    start = perf_counter()
    try:
        captions = load(job["captions"])
        generate(captions, config, job["out"], resume=True, clock=clock, client=client)
    except Cap2qaError as exc:
        return 2, perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        session.close()
    return 0, perf_counter() - start, None


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    package_dir = Path(cap2qa.__file__).resolve().parent
    if package_dir != Path(job["package_dir"]).resolve():
        raise SystemExit(f"cap2qa imported from {package_dir}, expected {job['package_dir']}")
    log_file = open(job["log"], "w", encoding="utf-8")
    logging.basicConfig(stream=log_file, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    tracer = Tracer() if job["trace"] else None
    if tracer:
        install(tracer)
    runner = run_cli if job["kind"] == "cli" else run_http_resume
    code, wall_s, error = runner(job, tracer)
    logging.shutdown()
    log_file.close()
    result = {
        "exit": code,
        "error": error,
        "wall_s": wall_s,
        "import_s": IMPORT_S,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layer_metrics(tracer, job.get("workers", 1)) if tracer else None,
        "missing": tracer.missing if tracer else [],
    }
    if tracer:
        tracer.write(job["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
