"""The cap2qa benchmark: throughput of generation and evaluation, checked against oracles.

    python3 perfbench/run.py --workload gen-mock --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from the repository root; it imports ``cap2qa`` from ``src/`` and
keeps its working files under ``.perfbench-work/``. Each workload generates
its inputs from ``--seed`` (``perfbench/fixtures.py``), sets up several
times, then runs the program once per repetition in a fresh child process
(``perfbench/child.py``) until ``--seconds`` have passed, checking every
output against the fixture's oracle.

With ``--trace 0`` it prints the end-to-end metrics: the workload's items
per second (median over repetitions of items / wall seconds of the program
call), set-up seconds and peak resident memory of the program's process.
With ``--trace 1`` it alternates untraced and traced repetitions (and, for
a workload that pins the program to one CPU, unpinned ones) and prints
per-layer metrics from the traced ones, including self time per layer, the
tracing overhead and the unpinned slowdown. The last line of standard output
is always one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import fixtures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cap2qa"
DATA = PACKAGE / "data"
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent

SETUPS = 3
CHILD_TIMEOUT_S = 120
MAX_REPS = 500
HTTP_WORKERS = 2
# Far above what two workers reach against the stub, so the limiter is on
# the path without ever making a worker wait.
RATE_LIMIT_RPM = 600_000

E2E = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}

# The program's CPUs, where a workload pins them (``Workload.program_cpus``).
_CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPUS = set(_CPUS[-1:]) if len(_CPUS) > 1 else None
OTHER_CPUS = set(_CPUS[:-1]) if len(_CPUS) > 1 else None


def _pinned(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


class Workload:
    """One input set: set it up, prepare a repetition, check its output."""

    item = "items"  # what items_per_s counts, for the printed alias
    alias = "items_per_s"
    program_cpus: set | None = None

    def __init__(self, name: str, seed: int, scale: float):
        self.name, self.seed, self.scale = name, seed, scale
        self.fx: dict = {}

    def setup(self, directory: Path) -> None:
        self.fx = fixtures.MAKERS[self.name](self.seed, self.scale, directory, DATA)

    def job(self, repdir: Path) -> dict:
        raise NotImplementedError

    def check(self, repdir: Path, result: dict) -> tuple[int, int, int, dict]:
        """(attempted, failed, items processed, measured input properties)."""
        raise NotImplementedError

    def inputs(self) -> dict:
        return self.fx["summary"]

    def after_rep(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _cli_job(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": argv, "workers": 1}


def _read_report(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _corpus_failures(out: Path, expected: list[tuple[int, list[str]]], head: list[str]) -> int:
    """Captions whose records are missing or wrong in ``out`` (after the ``head`` lines)."""
    want = "".join(line + "\n" for line in head) + "".join(line + "\n" for _cid, lines in expected for line in lines)
    try:
        got = out.read_text(encoding="utf-8")
    except OSError:
        return len(expected)
    if got == want:
        return 0
    got_lines = got.splitlines()
    if got_lines[: len(head)] != head:
        return len(expected)
    by_caption: dict[int, list[str]] = {}
    for line in got_lines[len(head) :]:
        try:
            cid = json.loads(line)["source_caption_ids"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            continue
        by_caption.setdefault(cid, []).append(line)
    return sum(1 for cid, lines in expected if by_caption.get(cid, []) != lines)


class GenMock(Workload):
    item, alias = "captions", "captions_per_s"
    # Pinned so that the figure is steady on a shared host. Unpinned, each
    # hand-off between the caller and the pool's worker thread can wake an
    # idle virtual CPU, and on a shared 2-vCPU host that wake-up latency
    # moved the median of ten runs by a third between two sets of runs.
    # Traced runs also time unpinned repetitions (``unpinned.*``), so the
    # cost of that hand-off stays visible.
    program_cpus = PROGRAM_CPUS

    def job(self, repdir):
        return _cli_job([
            "generate", "--captions", self.fx["captions"], "--out", str(repdir / "out.jsonl"),
            "--backend", "mock", "--script", self.fx["script"], "--fixed-clock", fixtures.FIXED_CLOCK,
            "--no-resume", "--report", str(repdir / "report.json"),
        ])

    def check(self, repdir, result):
        expected, summary = self.fx["expected"], self.fx["summary"]
        n = len(expected)
        if result.get("exit") != 0:
            return n, n, n, {}
        failed = _corpus_failures(repdir / "out.jsonl", expected, [])
        report = _read_report(repdir / "report.json") or {}
        keys = ("n_captions", "n_records", "n_exhausted", "n_covered_images")
        if any(report.get("metrics", {}).get(k) != summary[k] for k in keys):
            failed = n
        return n, failed, n, {}


class GenHttpResume(Workload):
    item, alias = "captions", "captions_per_s"
    # The loopback stub runs on the other CPUs, as a remote backend would.
    program_cpus = PROGRAM_CPUS
    stub: subprocess.Popen | None = None
    port = 0

    def setup(self, directory):
        super().setup(directory)
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--plan", self.fx["stub_plan"]],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=_pinned(OTHER_CPUS),
        )
        line = self.stub.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError("loopback stub did not start")
        self.port = int(line.split()[1])
        self._stub_call("POST", "/reset")

    def _stub_call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def job(self, repdir):
        out, cache = repdir / "out.jsonl", repdir / "cache"
        shutil.copyfile(self.fx["prefix"], out)
        shutil.copytree(self.fx["cache"], cache)
        self._stub_call("POST", "/reset")
        return {
            "kind": "http-resume",
            "captions": self.fx["captions"],
            "out": str(out),
            "cache": str(cache),
            "base_url": f"http://127.0.0.1:{self.port}/v1",
            "workers": HTTP_WORKERS,
            "rate_limit_rpm": RATE_LIMIT_RPM,
            "fixed_clock": fixtures.FIXED_CLOCK,
        }

    def check(self, repdir, result):
        expected = self.fx["expected"]
        n = len(expected)
        if result.get("exit") != 0:
            return n, n, n, {}
        failed = _corpus_failures(repdir / "out.jsonl", expected, self.fx["prefix_lines"])
        bad_cache = 0
        for key, text in self.fx["live_texts"].items():
            stored = _read_report(repdir / "cache" / f"{key}.json") or {}
            bad_cache += stored.get("text") != text
        return n, min(n, failed + bad_cache), n, {}

    def after_rep(self):
        stats = self._stub_call("GET", "/stats")
        return {"stub.requests": stats["requests"], "stub.service_s": stats["service_s"]}

    def close(self):
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


class EvalChair(Workload):
    item, alias = "answers", "chair_answers_per_s"

    def job(self, repdir):
        return _cli_job(["eval-chair", "--answers", self.fx["answers"], "--instances", self.fx["instances"], "--report", str(repdir / "report.json")])

    def check(self, repdir, result):
        expected, want = self.fx["per_answer"], self.fx["metrics"]
        n = len(expected)
        report = _read_report(repdir / "report.json") if result.get("exit") == 0 else None
        if report is None:
            return n, n, n, {}
        metrics = report.get("metrics", {})
        if any(metrics.get(k) != float(v) for k, v in want.items()):
            return n, n, n, {}
        got = report.get("details", {}).get("per_answer", [])
        failed = n - len(got) + sum(
            1 for row, exp in zip(got, expected)
            if (row.get("image_id"), row.get("mentioned"), row.get("hallucinated"), row.get("true_positives")) != exp
        )
        return n, failed, n, {"input.hallucination_share": metrics["n_hallucinating"] / metrics["n_answers"]}


class EvalVqa(Workload):
    alias = "vqa_items_per_s"

    def job(self, repdir):
        return _cli_job(["eval-vqa", "--pred", self.fx["pred"], "--gt", self.fx["gt"], "--report", str(repdir / "report.json")])

    def check(self, repdir, result):
        expected, mean = self.fx["per_item"], self.fx["mean"]
        n = len(expected)
        report = _read_report(repdir / "report.json") if result.get("exit") == 0 else None
        if report is None:
            return n, n, n, {}
        details = report.get("details", {})
        if details.get("mean_exact") != f"{mean.numerator}/{mean.denominator}" or report["metrics"].get("pacc") != float(mean):
            return n, n, n, {}
        got = details.get("per_item", [])
        failed = n - len(got) + sum(
            1 for row, (qid, score) in zip(got, expected)
            if row.get("question_id") != qid or row.get("score") != f"{score.numerator}/{score.denominator}"
        )
        return n, failed, n, {}


class EvalCaption(Workload):
    alias = "caption_items_per_s"

    def job(self, repdir):
        return _cli_job(["eval-caption", "--pred", self.fx["pred"], "--refs", self.fx["refs"], "--report", str(repdir / "report.json")])

    def check(self, repdir, result):
        n = self.fx["n_items"]
        report = _read_report(repdir / "report.json") if result.get("exit") == 0 else None
        if report is None:
            return n, n, n, {}
        metrics = report.get("metrics", {})
        ok = metrics.get("n_items") == n and all(
            isinstance(metrics.get(k), float) and abs(metrics[k] - v) <= 1e-9 for k, v in self.fx["metrics"].items()
        )
        return n, 0 if ok else n, n, {}


WORKLOADS = {
    "gen-mock": GenMock,
    "gen-http-resume": GenHttpResume,
    "eval-chair": EvalChair,
    "eval-vqa": EvalVqa,
    "eval-caption": EvalCaption,
}


# --- one run ----------------------------------------------------------------


def run_child(job: dict, traced: bool, repdir: Path, cpus: set | None) -> dict:
    job = dict(job, trace=traced, package_dir=str(PACKAGE), log=str(repdir / "program.log"), spans=str(repdir / "spans.jsonl"))
    job_path, result_path = repdir / "job.json", repdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    # A fixed hash seed keeps the program's dict and set layouts the same in
    # every repetition, which removes one source of run-to-run spread.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(repdir / "child.err", "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                preexec_fn=_pinned(cpus),
            )
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": "timeout"}
    result = _read_report(result_path)
    if proc.returncode != 0 or result is None:
        tail = (repdir / "child.err").read_text(encoding="utf-8")[-2000:]
        if "cap2qa imported from" in tail or "ModuleNotFoundError" in tail:
            raise SystemExit(f"perfbench: cannot run the program from {SRC}:\n{tail}")
        print(f"perfbench: child failed ({proc.returncode}):\n{tail}", file=sys.stderr)
        return {"exit": None, "error": f"child exit {proc.returncode}"}
    if result.get("error"):
        print(f"perfbench: program failed: {result['error']}", file=sys.stderr)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    workload = WORKLOADS[name](name, seed, scale)
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    setup_times, prep_times, reps = [], [], []
    try:
        for i in range(SETUPS):
            workload.close()
            shutil.rmtree(base / f"setup{i - 1}", ignore_errors=True)
            directory = base / f"setup{i}"
            directory.mkdir()
            start = perf_counter()
            workload.setup(directory)
            setup_times.append(perf_counter() - start)

        # Traced runs rotate untraced, traced and (for a pinned workload)
        # unpinned repetitions.
        cycle = ["plain"]
        if trace:
            cycle += ["traced", "unpinned"] if workload.program_cpus else ["traced"]
        min_reps = 2 * len(cycle) if trace else 3
        deadline = perf_counter() + seconds
        while len(reps) < min_reps or (perf_counter() < deadline and len(reps) < MAX_REPS):
            mode = cycle[len(reps) % len(cycle)]
            traced = mode == "traced"
            repdir = base / "rep"
            shutil.rmtree(repdir, ignore_errors=True)
            repdir.mkdir()
            start = perf_counter()
            job = workload.job(repdir)
            prep_times.append(perf_counter() - start)
            result = run_child(job, traced, repdir, None if mode == "unpinned" else workload.program_cpus)
            attempted, failed, items, props = workload.check(repdir, result)
            layers = dict(result.get("layers") or {}, **props, **workload.after_rep()) if traced else {}
            reps.append({
                "mode": mode,
                "attempted": attempted,
                "failed": failed,
                "items_per_s": items / result["wall_s"] if result.get("wall_s") else 0.0,
                "wall_s": result.get("wall_s"),
                "import_s": result.get("import_s"),
                "peak_rss_mb": result.get("peak_rss_kb", 0) / 1024,
                "layers": layers,
                "missing": result.get("missing", []),
            })
            if traced and (repdir / "spans.jsonl").exists():
                shutil.move(repdir / "spans.jsonl", base / "spans.jsonl")
    finally:
        workload.close()

    plain = [r for r in reps if r["mode"] == "plain"]
    unpinned = [r for r in reps if r["mode"] == "unpinned"] or plain
    traced_reps = [r for r in reps if r["mode"] == "traced"]
    imports = [r["import_s"] for r in reps if r["import_s"] is not None]
    metrics = {
        "items_per_s": _median([r["items_per_s"] for r in plain]),
        "setup_s": _median(setup_times) + _median(prep_times) + _median(imports),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    layers = {}
    if traced_reps:
        names = sorted({k for r in traced_reps for k in r["layers"]})
        layers = {k: _median([r["layers"].get(k, 0) for r in traced_reps]) for k in names}
        traced_tput = _median([r["items_per_s"] for r in traced_reps])
        layers["trace.items_per_s"] = traced_tput
        layers["trace.overhead_share"] = 1 - traced_tput / metrics["items_per_s"] if metrics["items_per_s"] else 0.0
        unpinned_tput = _median([r["items_per_s"] for r in unpinned])
        layers["unpinned.items_per_s"] = unpinned_tput
        layers["unpinned.slowdown_share"] = 1 - unpinned_tput / metrics["items_per_s"] if metrics["items_per_s"] else 0.0
        layers["input.refs_per_item"] = workload.inputs().get("refs_per_item", 0.0)
    return {
        "workload": name,
        "alias": workload.alias,
        "item": workload.item,
        "program_cpus": sorted(workload.program_cpus) if workload.program_cpus else "all",
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        "layers": layers,
        "inputs": workload.inputs(),
        "setup_samples_s": setup_times,
        "reps": reps,
        "missing": sorted({m for r in reps for m in r["missing"]}),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(run: dict, args, env: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    name, metrics = run["workload"], run["metrics"]
    reps = run["reps"]
    print(f"# perfbench {name} seed={args.seed} trace={args.trace} reps={len(reps)} ({sum(r['mode'] == 'plain' for r in reps)} untraced) cpus={run['program_cpus']}")
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(run["inputs"]))
    if run["missing"]:
        print("trace: names not found in cap2qa: " + ", ".join(run["missing"]))
    share = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    if args.trace:
        units = per_layer_units()
        shown = {k: run["layers"].get(k, 0) for k in units}
    else:
        units = E2E
        shown = {k: metrics[k] for k in E2E}
        print(f"{run['alias']} {_fmt(metrics['items_per_s'])} {run['item']}/s")
    for key, value in shown.items():
        print(f"{key} {_fmt(value)} {units[key]}")
    print(f"failed_share {_fmt(share)} ratio ({run['failed']} of {run['attempted']})")
    result = {
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **run, "result": result}, indent=1, default=str), encoding="utf-8")
    spans = WORK / name / "spans.jsonl"
    if spans.exists():
        shutil.move(spans, out / f"{stem}-spans.jsonl")
    return result


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics BENCHMARK.json declares, in its order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_all(args) -> dict:
    """Every workload, one after another, merged into one result."""
    env = environment(args.seed)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = report(run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale), args, env)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (the smoke test uses a small one)")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so that cleanup (the stub
    # process) runs before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (PACKAGE / "__init__.py", DATA / "coco_categories.txt", DATA / "coco_synonyms.txt") if not p.is_file()]
    if missing:
        print(f"perfbench: the program is not here: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        result = report(run, args, environment(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
