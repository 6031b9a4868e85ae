"""Command-line entry points.

Subcommands:

- ``generate``      build an instruction corpus from captions
- ``eval-chair``    object-hallucination metrics over answers
- ``eval-vqa``      partial-credit QA accuracy
- ``eval-caption``  BLEU and CIDEr over captions
- ``stats``         corpus counting and word-length stats
- ``report``        re-render a saved report

Exit codes: 0 success, 1 bad input or arguments, 2 environment or backend
failure. Logs go to stderr; machine output goes to ``--report`` or stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

from . import __version__
from .clocks import Clock, FixedClock, SystemClock
from .corpus import (
    IMAGE_KEYS,
    _replace_output,
    as_kind,
    check_keys,
    dataset_stats,
    iter_instructions,
    iter_jsonl,
    load_coco_captions,
    load_object_annotations,
    load_yaml,
    read_field,
    scan_jsonl_stats,
    utf8_text,
)
from .errors import RUNTIME_ERRORS, VALIDATION_ERRORS, InputError, RuntimeFailure
from .eval_caption import CaptionEvalSet, CaptionItem, bleu, cider
from .eval_hallucination import AnswerRecord, build_lexicon, chair_eval, default_lexicon
from .eval_vqa import evaluate, fraction_text
from .filters import load_rules
from .generator import GeneratorConfig, generate_corpus
from .llm_client import BackendSpec, MockScript, base_url_problem
from .promptkit import load_prompt_config
from .reporting import load_report, report_render, sha256_file

log = logging.getLogger("cap2qa")

ENV_BASE_URL = "CAP2QA_BASE_URL"
ENV_MODEL = "CAP2QA_MODEL"
QUESTION_KEYS = ("question_id", "qid", "id")
BACKENDS = ("http", "mock")

# The generate settings, each a --config key and a flag (--key, - for _) of that type and help;
# flags override the environment, which overrides the config file.
SETTINGS = {
    "backend": (str, "http or mock (default http)"),
    "base_url": (str, f"HTTP backend root (or {ENV_BASE_URL})"),
    "model": (str, f"model identifier (or {ENV_MODEL})"),
    "retry": (int, "attempts per caption"),
    "workers": (int, "parallel requests"),
    "temperature": (float, "sampling temperature"),
    "max_output_tokens": (int, "response length limit"),
    "rate_limit_rpm": (int, "backend requests per minute"),
    "cache_dir": (str, "enable the response cache at this directory"),
    "rules": (str, "filter rules YAML"),
    "prompt": (str, "prompt config YAML"),
    "script": (str, "mock backend script JSONL"),
}
# The settings that are text, not paths: the backend gets them, and the report and the records hold them.
TEXT_SETTINGS = ("base_url", "model")
PATH_SETTINGS = ("cache_dir", "rules", "prompt", "script")
OUTPUT_FLAGS = ("out", "report")
# Every flag of every command that names a file or directory, by its argparse dest.
PATH_FLAGS = ("captions", "out", "config", "answers", "instances", "categories", "synonyms", "pred", "gt", "refs", "dataset", "in_path", "report", *PATH_SETTINGS)


def _read_jsonl(path: str, id_keys: tuple[str, ...], kind: type, value_keys: tuple[str, ...], value_kind: type = str) -> list[tuple]:
    """Read ``(where, id, value)`` from each row of a JSONL file, and keep only those, not the row.

    An id that is text reaches the report, so it must be UTF-8. Equal texts among the values, and
    among the items of a list value, are one object, so answers that the file repeats are held once.
    A list of texts only comes back as a tuple; a list that holds anything else stays a list.
    """
    texts: dict[str, str] = {}  # only a str: 1, 1.0 and True are equal keys, yet each converts to its own text
    rows = []
    id_key, value_key = id_keys[0], value_keys[0]
    for where, row in iter_jsonl(path):
        # A row that holds the first keys with values of the wanted types is read directly; any
        # other, a null value under kind=object included, goes through read_field.
        key = row.get(id_key)
        if type(key) is not kind:
            key = read_field(row, id_keys, where, kind)
        if kind is str and not key.isascii():
            utf8_text(key, where, repr(next(k for k in id_keys if k in row)))
        value = row.get(value_key)
        if value is None or (type(value) is not value_kind and value_kind is not object):
            value = read_field(row, value_keys, where, value_kind)
        if type(value) is str:
            value = texts.setdefault(value, value)
        elif type(value) is list:
            if set(map(type, value)) <= {str}:
                value = tuple(map(texts.setdefault, value, value))
            else:
                value = [texts.setdefault(v, v) if type(v) is str else v for v in value]
        rows.append((where, key, value))
    return rows


def _path_text(path) -> str:
    """A path as a report names it: a byte that is not UTF-8 is escaped, as in ``cap\\xff.json``."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _emit(args: argparse.Namespace, started: datetime, clock: Clock, input_paths: list, metrics: dict, details: dict) -> None:
    """Hash the inputs and write the run report, in pieces, to ``--report``, through a temporary file renamed over it, or to stdout."""
    report = {
        "command": args.command,
        "inputs": {_path_text(path): sha256_file(path) for path in input_paths if path is not None},
        "metrics": metrics,
        "started_at": started.isoformat(),
        "finished_at": clock.now().isoformat(),
        "tool_version": __version__,
    }
    if details:
        report["details"] = details
    if args.report is not None:
        with _replace_output(args.report) as fh:
            report_render(report, "json", fh)
        log.info("report written to %s", args.report)
    else:
        report_render(report, "json", sys.stdout)


def _check_path_flags(args: argparse.Namespace) -> None:
    """Fail before anything is read or written when a path flag is empty, or names the file of an output flag."""
    for dest in PATH_FLAGS:
        path = getattr(args, dest, None)
        flag = "--in" if dest == "in_path" else "--" + dest.replace("_", "-")
        if path == "":
            raise InputError(f"command line: {flag} must not be empty")
        if path is not None:
            _check_not_output(args, path, f"command line: {flag}", [output for output in OUTPUT_FLAGS if output != dest])


def _check_not_output(args: argparse.Namespace, path: str, name: str, outputs=OUTPUT_FLAGS) -> None:
    """Fail when an output flag names the file ``path`` that the run reads as ``name``, unless writing cannot destroy it (``/dev/null``).

    A file that does not exist yet, as a new ``--out``, is compared by its resolved path.
    """
    for dest in outputs:
        output = getattr(args, dest, None)
        if not output:  # an empty output flag fails on its own
            continue
        try:
            same = os.path.samefile(output, path) and os.path.isfile(path)
        except OSError:
            same = os.path.realpath(output) == os.path.realpath(path)
        if same:
            raise InputError(f"{name} and --{dest} name one file, {path}: the run would overwrite what it reads")


def _check_report_path(path: str) -> None:
    """Fail before the command runs when ``--report`` cannot be a file."""
    target = Path(path)
    if target.is_dir():
        raise RuntimeFailure(f"--report {path}: is a directory")
    if not target.parent.is_dir():
        raise RuntimeFailure(f"--report {path}: no such directory {target.parent}")


def _clock(args: argparse.Namespace) -> Clock:
    """The clock that stamps the run's records and report; it never paces the backend."""
    if args.fixed_clock is None:
        return SystemClock()
    try:
        return FixedClock(datetime.fromisoformat(args.fixed_clock))
    except ValueError as exc:
        raise InputError(f"--fixed-clock: {exc}") from exc


# --- generate -----------------------------------------------------------


def _settings(args: argparse.Namespace) -> dict:
    """The generate settings that were given: config file, then environment, then flags.

    Each text setting is checked for UTF-8, each path for a non-empty file
    name, the backend for its kind and the base URL for its form, where it
    is read, so the error names its source.
    """
    settings: dict = {}

    def put(key: str, value, where: str, name: str) -> None:
        if key == "backend" and value not in BACKENDS:
            raise InputError(f"{where}: {name} must be {' or '.join(BACKENDS)}, got {value!r}")
        if key in TEXT_SETTINGS:
            utf8_text(value, where, name)
            if key == "model" and not value:
                raise InputError(f"{where}: {name} must not be empty")
            if key == "base_url" and (problem := base_url_problem(value)):
                raise InputError(f"{where}: {name} {problem}")
        elif key in PATH_SETTINGS:
            if not value:
                raise InputError(f"{where}: {name} must not be empty")
            # A flag's value came from argv through surrogateescape and always encodes; a config string may not.
            try:
                os.fsencode(value)
            except UnicodeEncodeError as exc:
                raise InputError(f"{where}: {name} is not a file name: it holds {value[exc.start]!r} at index {exc.start}") from exc
            _check_not_output(args, value, f"{where}: {name}")
        settings[key] = value

    if args.config is not None:
        file_config = load_yaml(args.config) or {}
        if not isinstance(file_config, dict):
            raise InputError(f"{args.config}: config must be a mapping")
        check_keys(file_config, SETTINGS, args.config)
        for key in file_config:
            put(key, read_field(file_config, key, args.config, SETTINGS[key][0]), args.config, repr(key))
    for key, env_name in (("base_url", ENV_BASE_URL), ("model", ENV_MODEL)):
        if os.environ.get(env_name):
            put(key, os.environ[env_name], "environment", env_name)
    for key in SETTINGS:
        if getattr(args, key) is not None:
            put(key, getattr(args, key), "command line", "--" + key.replace("_", "-"))
    return settings


def _cmd_generate(args: argparse.Namespace, clock: Clock) -> tuple:
    settings = _settings(args)
    # Every file the run reads, for the report to hash; the script only when the mock backend reads it.
    input_paths = [args.captions, args.config, settings.get("rules"), settings.get("prompt")]
    script, base_url = settings.pop("script", None), settings.pop("base_url", None)
    if settings.pop("backend", "http") == "mock":
        if script is None:
            raise InputError("mock backend requires --script")
        backend = BackendSpec(kind="mock", script=MockScript.from_file(script))
        input_paths.append(script)
    else:
        if not base_url:
            raise InputError(f"http backend requires --base-url or {ENV_BASE_URL}")
        backend = BackendSpec(kind="http", base_url=base_url)

    # What is left are GeneratorConfig fields; three of them name files to read.
    if "model" in settings:
        settings["model_id"] = settings.pop("model")
    if "cache_dir" in settings:
        settings.update(cache_enabled=True, cache_dir=Path(settings["cache_dir"]))
    if "rules" in settings:
        settings["rules"] = load_rules(settings["rules"])
    if "prompt" in settings:
        settings["prompt"] = load_prompt_config(settings["prompt"])
    config = GeneratorConfig(backend=backend, **settings)

    captions = load_coco_captions(args.captions)
    log.info("loaded %d captions from %s", len(captions), args.captions)
    counts = generate_corpus(captions, config, args.out, resume=args.resume, clock=clock)
    log.info("generated %(n_records)d records over %(n_covered_images)d images (%(n_captions)d captions, %(n_exhausted)d exhausted retries)", counts)

    details = {"out": _path_text(args.out), "prompt_version": config.prompt.version_tag, "model_id": config.model_id}
    return input_paths, counts, details


# --- eval-chair ---------------------------------------------------------


def _cmd_eval_chair(args: argparse.Namespace, clock: Clock) -> tuple:
    if args.categories is not None:
        lexicon = build_lexicon(args.categories, args.synonyms)
    elif args.synonyms is not None:
        raise InputError("--synonyms requires --categories")
    else:
        lexicon = default_lexicon()

    annotations = {a.image_id: a for a in load_object_annotations(args.instances, lexicon.categories)}
    answers: list[AnswerRecord] = []
    for where, image_id, text in _read_jsonl(args.answers, IMAGE_KEYS, int, ("answer", "caption", "text")):
        if image_id not in annotations:
            raise InputError(f"{where}: no object annotation for image_id {image_id} in {args.instances}")
        answers.append(AnswerRecord(image_id=image_id, text=text))

    result = chair_eval(answers, annotations, lexicon)

    metrics = {
        "chair_s": result.chair_s,
        "recall": result.recall,
        "recall_without_hallucination": result.recall_without_hallucination,
        "n_answers": result.n_answers,
        "n_hallucinating": result.n_hallucinating,
    }
    details = {"per_answer": result.per_answer}
    return [args.answers, args.instances, args.categories, args.synonyms], metrics, details


# --- eval-vqa -----------------------------------------------------------


def _load_references(path: str, id_keys: tuple[str, ...], value_keys: tuple[str, ...], kind: type) -> dict:
    """Map each id to its references; a single string is one reference, and an id may appear once."""
    refs: dict = {}
    for where, key, value in _read_jsonl(path, id_keys, kind, value_keys, object):
        if key in refs:
            raise InputError(f"{where}: repeated id {key!r}")
        if type(value) is str:
            value = (value,)
        elif type(value) is list:
            value = tuple(v if type(v) is str else as_kind(v, str, where, f"references[{j}]") for j, v in enumerate(value))
        elif type(value) is not tuple:
            raise InputError(f"{where}: references must be a string or a list")
        if not value:
            raise InputError(f"{where}: references must be non-empty")
        refs[key] = value
    return refs


def _cmd_eval_vqa(args: argparse.Namespace, clock: Clock) -> tuple:
    references = _load_references(args.gt, QUESTION_KEYS, ("references", "answers", "answer"), str)
    predictions: dict[str, str] = {}
    ignored: dict[str, str] = {}
    for where, qid, prediction in _read_jsonl(args.pred, QUESTION_KEYS, str, ("prediction", "answer", "text")):
        if qid in predictions or qid in ignored:
            raise InputError(f"{where}: repeated id {qid!r}")
        (predictions if qid in references else ignored)[qid] = prediction
    if ignored:
        log.warning("%d predictions in %s have no question in %s and are ignored (first: %s)", len(ignored), args.pred, args.gt, list(ignored)[:5])
    missing = references.keys() - predictions.keys()
    if missing:
        raise InputError(f"{args.pred}: no prediction for questions {sorted(missing)[:5]}")

    strict = args.mode == "acc"
    result = evaluate(predictions, references, strict=strict, raw=args.raw_match)
    key = "acc" if strict else "pacc"
    metrics = {key: float(result.mean_score), "n_items": len(result.per_item), "n_ignored": len(ignored)}
    details = {
        "mean_exact": fraction_text(result.mean_score),
        "per_item": [{"question_id": qid, "score": fraction_text(score)} for qid, score in result.per_item.items()],
    }
    return [args.pred, args.gt], metrics, details


# --- eval-caption -------------------------------------------------------


def _cmd_eval_caption(args: argparse.Namespace, clock: Clock) -> tuple:
    references = _load_references(args.refs, IMAGE_KEYS, ("references", "captions", "caption"), int)
    items: dict[int, CaptionItem] = {}
    for where, image_id, candidate in _read_jsonl(args.pred, IMAGE_KEYS, int, ("caption", "prediction", "text")):
        if image_id not in references:
            raise InputError(f"{where}: no references for image_id {image_id} in {args.refs}")
        if image_id in items:
            raise InputError(f"{where}: repeated id {image_id}")
        items[image_id] = CaptionItem(image_id=image_id, candidate=candidate, references=references[image_id])
    if not items:
        raise InputError(f"{args.pred}: no predictions to score")

    # A reference image with no prediction is neither scored nor counted in CIDEr's document frequencies.
    ignored = [image_id for image_id in references if image_id not in items]
    if ignored:
        log.warning("%d images in %s have no prediction and are ignored (first: %s)", len(ignored), args.refs, ignored[:5])

    eval_set = CaptionEvalSet(items=list(items.values()))
    bleu_scores = bleu(eval_set)
    cider_score = cider(eval_set, cider_d=args.cider_d)

    metrics = {
        "bleu_1": bleu_scores[0],
        "bleu_2": bleu_scores[1],
        "bleu_3": bleu_scores[2],
        "bleu_4": bleu_scores[3],
        "cider": cider_score,
        "n_items": len(items),
        "n_ignored": len(ignored),
    }
    details = {"cider_variant": "cider-d" if args.cider_d else "cider"}
    return [args.pred, args.refs], metrics, details


# --- stats --------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace, clock: Clock) -> tuple:
    if args.lenient:
        stats = scan_jsonl_stats(args.dataset)
    else:
        stats = dataset_stats(iter_instructions(args.dataset))
    return [args.dataset], asdict(stats), {}


# --- report -------------------------------------------------------------


def _cmd_report(args: argparse.Namespace, clock: Clock) -> None:
    report = load_report(args.in_path)
    report_render(report, args.format, sys.stdout)


# --- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cap2qa", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cap2qa {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging on stderr")
    parser.set_defaults(fixed_clock=None, report=None)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build an instruction corpus from captions")
    gen.add_argument("--captions", required=True, help="COCO caption annotation JSON")
    gen.add_argument("--out", required=True, help="output instruction JSONL")
    gen.add_argument("--config", help="YAML config file; flags and env override it")
    for key, (kind, help_text) in SETTINGS.items():
        gen.add_argument("--" + key.replace("_", "-"), type=kind, default=None, help=help_text)
    gen.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True, help="skip captions already in --out")
    gen.add_argument("--fixed-clock", default=None, metavar="ISO", help="freeze record and report timestamps; pacing and backoff stay real-time")
    gen.add_argument("--report", default=None, help="write the run report JSON here instead of stdout")
    gen.set_defaults(func=_cmd_generate)

    chair = sub.add_parser("eval-chair", help="object-hallucination metrics")
    chair.add_argument("--answers", required=True, help="JSONL with image_id and answer fields")
    chair.add_argument("--instances", required=True, help="COCO instance annotation JSON")
    chair.add_argument("--categories", default=None, help="category list, one per line (default: built-in)")
    chair.add_argument("--synonyms", default=None, help="surface-form synonyms file (needs --categories)")
    chair.add_argument("--report", default=None)
    chair.set_defaults(func=_cmd_eval_chair)

    vqa = sub.add_parser("eval-vqa", help="partial-credit QA accuracy")
    vqa.add_argument("--pred", required=True, help="JSONL with question_id and prediction")
    vqa.add_argument("--gt", required=True, help="JSONL with question_id and reference answers")
    vqa.add_argument("--mode", choices=("pacc", "acc"), default="pacc")
    vqa.add_argument("--raw-match", action="store_true", help="match without normalization")
    vqa.add_argument("--report", default=None)
    vqa.set_defaults(func=_cmd_eval_vqa)

    cap = sub.add_parser("eval-caption", help="BLEU and CIDEr")
    cap.add_argument("--pred", required=True, help="JSONL with image_id and caption")
    cap.add_argument("--refs", required=True, help="JSONL with image_id and reference captions")
    cap.add_argument("--cider-d", action="store_true", help="clipped variant with length penalty")
    cap.add_argument("--report", default=None)
    cap.set_defaults(func=_cmd_eval_caption)

    stats = sub.add_parser("stats", help="corpus stats")
    stats.add_argument("--dataset", required=True, help="instruction JSONL")
    stats.add_argument("--lenient", action="store_true", help="tolerate foreign field names")
    stats.add_argument("--report", default=None)
    stats.set_defaults(func=_cmd_stats)

    rep = sub.add_parser("report", help="re-render a saved report")
    rep.add_argument("--in", dest="in_path", required=True, help="report JSON")
    rep.add_argument("--format", choices=("json", "markdown"), default="markdown")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _check_path_flags(args)
        clock = _clock(args)
        if args.report is not None:
            _check_report_path(args.report)
        started = clock.now()
        # A command returns its report's (input paths, metrics, details); ``report`` returns None.
        result = args.func(args, clock)
        if result is not None:
            _emit(args, started, clock, *result)
        return 0
    except VALIDATION_ERRORS as exc:
        log.error("%s", exc)
        return 1
    except RUNTIME_ERRORS as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
