"""Seeded benchmark inputs and the outputs they must produce.

Every input is generated from the bundled 80-category vocabulary and synonym
table (``src/cap2qa/data``), and every expected output is derived from the
fixture's design rather than from the ``cap2qa`` package: corpora are built
line by line in the on-disk key order, CHAIR and PAcc values are exact
``Fraction``s of designed counts, and BLEU/CIDEr come from the small
reference scorers at the bottom of this file. This module never imports
``cap2qa``, so a defect in the package cannot leak into its own oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import string
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

MODEL_ID = "gpt-3.5-turbo"
TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 512
FIXED_CLOCK = "2024-05-01T00:00:00+00:00"

# The shipped default prompt, as rendered for the backend. Mock script keys
# and cache keys are hashes of this text, so a change to the prompt changes
# the expected corpus on purpose.
BOTTOM_RULES = (
    "Any content should be included by the given context.",
    "Must answer to what asked. In other word, if not asked, nothing should be "
    "answered such as explanation neither any comment.",
)
TASK = (
    "Generate question-answer pairs from the following caption. "
    "Must avoid questioning and answering 'not specified in the caption'."
)
CONDITIONS = (
    "The generated question-answer should be reasonable and question should not imply answer.",
    "Must avoid question-answer if answering the question is not valid due to no specification.",
    "Format each pair as 'Question: ...' and 'Answer: ...'.",
)
RULE_IDS = ("mentions-caption", "not-specified-excuse", "empty-field", "meta-refusal")

# Base sizes at --scale 1. The evaluation sizes keep COCO-val proportions
# (1 image : 5 reference captions : 8 QA records of 10 references) at a fifth
# of COCO-val, so one command takes about a second and a run holds several.
GEN_MOCK_CAPTIONS = 6000
HTTP_PREFIX, HTTP_CACHED, HTTP_LIVE = 1000, 250, 250
EVAL_IMAGES = 1000
CHAIR_ANSWERS_PER_IMAGE = 8
VQA_ITEMS_PER_IMAGE = 8
VQA_REFS = 10
CAPTION_REFS = 5


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_prompt(caption: str) -> str:
    lines = ["Rules:", *(f"- {r}" for r in BOTTOM_RULES), "", "Task:", TASK, "", "Conditions:"]
    lines += [f"- {c}" for c in CONDITIONS] + ["", "Caption:", caption]
    return "\n".join(lines) + "\n"


def prompt_version() -> str:
    payload = json.dumps(
        {"bottom_rules": list(BOTTOM_RULES), "task": TASK, "conditions": list(CONDITIONS)},
        ensure_ascii=False,
        sort_keys=True,
    )
    return "default-" + sha256_hex(payload)[:12]


def cache_key(prompt: str) -> str:
    payload = json.dumps(
        {"prompt_text": prompt, "model_id": MODEL_ID, "temperature": TEMPERATURE, "max_output_tokens": MAX_OUTPUT_TOKENS},
        ensure_ascii=False,
        sort_keys=True,
    )
    return sha256_hex(payload)


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, round(n * scale))


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# --- vocabulary -------------------------------------------------------------


def _tokens(text: str) -> tuple[str, ...]:
    out, word = [], []
    for ch in text.lower():
        if ch in string.ascii_lowercase or ch in string.digits:
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return tuple(out)


def _naive_singulars(word: str) -> list[str]:
    # CHAIR's stated plural tolerance: the token, then minus "s", then minus "es".
    variants = [word]
    if word.endswith("s") and len(word) > 1:
        variants.append(word[:-1])
    if word.endswith("es") and len(word) > 2:
        variants.append(word[:-2])
    return variants


class Vocabulary:
    """The bundled categories and their surface forms, read from the data files."""

    def __init__(self, data_dir: Path):
        self.categories = [
            line.strip().lower()
            for line in (data_dir / "coco_categories.txt").read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")
        ]
        forms = {c: {c} for c in self.categories}
        for line in (data_dir / "coco_synonyms.txt").read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            parts = [p.strip().lower() for p in line.split(",") if p.strip()]
            if len(parts) >= 2:
                forms[parts[0]] |= set(parts[1:])
        self.surface = {_tokens(f): c for c, fs in forms.items() for f in fs}
        self.surface_tokens = {t for tokens in self.surface for t in tokens}
        # Mention forms whose naive plural still resolves to the same category.
        self.mentions: dict[str, list[tuple[str, ...]]] = {c: [] for c in self.categories}
        for tokens, category in sorted(self.surface.items()):
            self.mentions[category].append(tokens)
            last = tokens[-1]
            if not last.endswith("s"):
                plural = tokens[:-1] + (last + "s",)
                if self._resolves(plural) == category:
                    self.mentions[category].append(plural)

    def _resolves(self, tokens: tuple[str, ...]) -> str | None:
        for variant in _naive_singulars(tokens[-1]):
            hit = self.surface.get(tokens[:-1] + (variant,))
            if hit is not None:
                return hit
        return None

    def check_fillers(self, words) -> None:
        """Fail unless no word can take part in a surface-form match."""
        bad = [w for w in words if any(v in self.surface_tokens for v in _naive_singulars(w))]
        if bad:
            raise ValueError(f"filler words collide with the vocabulary: {bad}")


# --- generation fixtures ----------------------------------------------------

_ADJ = ("small", "large", "young", "old", "bright", "dark", "wet", "dusty", "shiny", "striped", "tall", "quiet")
_VERB = ("resting", "waiting", "standing", "lying", "parked", "sitting", "leaning", "placed")
_PLACE = ("street", "kitchen", "field", "beach", "garden", "station", "yard", "market", "hallway", "shore")
_COLOR = ("red", "blue", "green", "white", "black", "brown", "gray", "yellow")


def _caption_texts(rng: random.Random, vocab: Vocabulary, n: int) -> list[str]:
    seen: set[str] = set()
    texts: list[str] = []
    while len(texts) < n:
        a, b = rng.sample(vocab.categories, 2)
        text = f"A {rng.choice(_ADJ)} {a} {rng.choice(_VERB)} near a {b} in the {rng.choice(_PLACE)}."
        if rng.random() < 0.3:
            text = text[:-1] + f" on a {rng.choice(_ADJ)} day."
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def _clean_pairs(rng: random.Random, caption: str, k: int) -> list[tuple[str, str]]:
    subject = caption.split(" near ")[0][2:].rsplit(" ", 1)[0]
    templates = [
        (f"What is the {subject} doing?", f"It is {rng.choice(_VERB)}."),
        (f"What color is the {subject}?", f"It is {rng.choice(_COLOR)}."),
        ("Where was this picture taken?", f"In a {rng.choice(_PLACE)}."),
        (f"How many objects are next to the {subject}?", rng.choice(("One.", "Two.", "Three."))),
        ("Is it daytime?", rng.choice(("Yes.", "No, it is evening."))),
    ]
    return rng.sample(templates, k)


_TRIPS = {
    "mentions-caption": ("What does the caption describe?", "A scene outdoors."),
    "not-specified-excuse": ("What brand is the object?", "The brand is not specified."),
    "empty-field": ("", "Yes."),
    "meta-refusal": ("What is the animal thinking?", "As an AI, I cannot know that."),
}


def _response_text(rng: random.Random, pairs: list[tuple[str, str]]) -> str:
    style = rng.randrange(3)
    lines = ["Here are some pairs based on the scene:"] if rng.random() < 0.3 else []
    for i, (q, a) in enumerate(pairs, start=1):
        if style == 0:
            lines += [f"Question: {q}", f"Answer: {a}"]
        elif style == 1:
            lines += [f"{i}. Question: {q}", f"Answer: {a}"]
        else:
            lines += [f"question: {q}", f"answer: {a}", ""]
    return "\n".join(lines)


_UNPARSEABLE = (
    "I am sorry, but I can only describe the scene in general terms.",
    "The picture shows an everyday moment; nothing more to add.",
)


def _design_response(rng: random.Random, caption: str, kind: str) -> tuple[str, list[tuple[str, str]], Counter]:
    """Response text, the pairs the filters must keep, and the designed rejections."""
    if kind == "unparseable":
        return rng.choice(_UNPARSEABLE), [], Counter()
    clean = [] if kind == "all-rejected" else _clean_pairs(rng, caption, rng.randint(2, 4) if kind == "clean" else rng.randint(1, 3))
    trips = [] if kind == "clean" else rng.sample(RULE_IDS, rng.randint(1, 2))
    pairs = [(p, None) for p in clean] + [(_TRIPS[r], r) for r in trips]
    rng.shuffle(pairs)
    kept = [p for p, rule in pairs if rule is None]
    return _response_text(rng, [p for p, _ in pairs]), kept, Counter(r for _, r in pairs if r)


def _record_line(image_id: int, caption_id: int, question: str, answer: str, pv: str) -> str:
    return json.dumps(
        {
            "image_id": image_id,
            "question": question,
            "answer": answer,
            "source_caption_ids": [caption_id],
            "provenance": {"model_id": MODEL_ID, "prompt_version": pv, "attempt": 1, "created_at": FIXED_CLOCK},
        },
        ensure_ascii=False,
    )


def _captions(rng: random.Random, vocab: Vocabulary, n: int) -> list[dict]:
    texts = _caption_texts(rng, vocab, n)
    image_ids = sorted(rng.sample(range(1, 600_000), max(1, n // 4)))
    ids = rng.sample(range(1, 900_000), n)
    return [{"id": cid, "image_id": image_ids[i % len(image_ids)], "caption": t} for i, (cid, t) in enumerate(zip(ids, texts))]


def _exact_mix(rng: random.Random, n: int, kinds, weights) -> list:
    """``n`` kinds in exactly the stated proportions, in seeded order."""
    counts = [n * w // sum(weights) for w in weights]
    counts[0] += n - sum(counts)
    mix = [kind for kind, count in zip(kinds, counts) for _ in range(count)]
    rng.shuffle(mix)
    return mix


def _caption_plan(rng: random.Random, caps: list[dict], kinds, weights) -> list[dict]:
    pv = prompt_version()
    plan = []
    for cap, kind in zip(caps, _exact_mix(rng, len(caps), kinds, weights)):
        text, kept, rejected = _design_response(rng, cap["caption"], kind)
        lines = [_record_line(cap["image_id"], cap["id"], q, a, pv) for q, a in kept]
        plan.append({"caption": cap, "text": text, "lines": lines, "rejected": rejected})
    return plan


_MIX = (("clean", "mixed", "all-rejected", "unparseable"), (55, 25, 10, 10))


def _write_captions(path: Path, caps: list[dict]) -> None:
    images = sorted({c["image_id"] for c in caps})
    payload = {"images": [{"id": i} for i in images], "annotations": caps}
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def _gen_summary(plan: list[dict]) -> dict:
    rejected = Counter()
    for p in plan:
        rejected.update(p["rejected"])
    n = len(plan)
    exhausted = sum(1 for p in plan if not p["lines"])
    return {
        "n_captions": n,
        "n_records": sum(len(p["lines"]) for p in plan),
        "n_exhausted": exhausted,
        "n_covered_images": len({p["caption"]["image_id"] for p in plan if p["lines"]}),
        "exhausted_share": exhausted / n,
        "rejected_per_rule": {r: rejected[r] for r in RULE_IDS},
    }


def make_gen_mock(seed: int, scale: float, out: Path, data_dir: Path) -> dict:
    """Captions plus a hash-keyed mock script with a designed response mix."""
    rng = random.Random(f"gen-mock:{seed}")
    vocab = Vocabulary(data_dir)
    caps = _captions(rng, vocab, _scaled(GEN_MOCK_CAPTIONS, scale, 8))
    plan = _caption_plan(rng, caps, *_MIX)
    _write_captions(out / "captions.json", caps)
    _write_jsonl(out / "script.jsonl", ({"prompt_hash": sha256_hex(render_prompt(p["caption"]["caption"])), "response_text": p["text"]} for p in plan))
    return {
        "captions": str(out / "captions.json"),
        "script": str(out / "script.jsonl"),
        "expected": [(p["caption"]["id"], p["lines"]) for p in plan],
        "summary": _gen_summary(plan),
    }


def make_gen_http(seed: int, scale: float, out: Path, data_dir: Path) -> dict:
    """An interrupted run: resumed prefix, pre-filled cache slice, and a stub plan for the rest.

    The first ``prefix`` captions already have their records in the output
    file; the next ``cached`` have their responses in the cache directory;
    the rest go to the loopback stub, which fails a designed share of first
    attempts with 429/503.
    """
    rng = random.Random(f"gen-http-resume:{seed}")
    vocab = Vocabulary(data_dir)
    n_prefix, n_cached, n_live = (_scaled(n, scale, 4) for n in (HTTP_PREFIX, HTTP_CACHED, HTTP_LIVE))
    caps = _captions(rng, vocab, n_prefix + n_cached + n_live)
    prefix = _caption_plan(rng, caps[:n_prefix], ("clean", "mixed"), (70, 30))
    rest = _caption_plan(rng, caps[n_prefix:], *_MIX)
    cached, live = rest[:n_cached], rest[n_cached:]
    _write_captions(out / "captions.json", caps)
    (out / "prefix.jsonl").write_text("".join(line + "\n" for p in prefix for line in p["lines"]), encoding="utf-8")
    cache_dir = out / "cache"
    cache_dir.mkdir()
    for p in cached:
        key = cache_key(render_prompt(p["caption"]["caption"]))
        (cache_dir / f"{key}.json").write_text(json.dumps({"text": p["text"]}, ensure_ascii=False), encoding="utf-8")
    # Evenly spaced so that no two backoff sleeps overlap, whatever the seed:
    # the seed picks the offset and the status codes.
    n_faults = max(1, round(0.02 * n_live))
    step = n_live // n_faults
    faulty = set(range(rng.randrange(step), n_live, step)[:n_faults])
    stub_plan = {}
    for i, p in enumerate(live):
        faults = [rng.choice((429, 503))] if i in faulty else []
        stub_plan[sha256_hex(render_prompt(p["caption"]["caption"]))] = {"faults": faults, "text": p["text"]}
    (out / "stub_plan.json").write_text(json.dumps(stub_plan), encoding="utf-8")
    summary = _gen_summary(rest)
    # With the cache on, a generator retry re-reads the response cached by the
    # first attempt, so a caption whose first response keeps nothing is
    # exhausted after two more cache hits.
    exhausted = summary["n_exhausted"]
    summary.update(
        n_prefix=n_prefix,
        n_cached=n_cached,
        n_live=n_live,
        http_faults=n_faults,
        cache_hit_share_design=(n_cached + 2 * exhausted) / (n_cached + n_live + 2 * exhausted),
    )
    return {
        "captions": str(out / "captions.json"),
        "prefix": str(out / "prefix.jsonl"),
        "cache": str(cache_dir),
        "stub_plan": str(out / "stub_plan.json"),
        "prefix_lines": [line for p in prefix for line in p["lines"]],
        "expected": [(p["caption"]["id"], p["lines"]) for p in rest],
        "live_texts": {cache_key(render_prompt(p["caption"]["caption"])): p["text"] for p in live},
        "summary": summary,
    }


# --- eval-chair -------------------------------------------------------------

_FILLERS = (
    "i", "can", "see", "a", "the", "and", "with", "near", "next", "to", "in", "this",
    "there", "is", "also", "some", "photo", "shows", "by", "nothing", "else", "stands", "out",
)


def _mention(rng: random.Random, vocab: Vocabulary, category: str) -> str:
    words = list(rng.choice(vocab.mentions[category]))
    if rng.random() < 0.2:
        words[0] = words[0].capitalize()
    return " ".join(words)


def make_eval_chair(seed: int, scale: float, out: Path, data_dir: Path) -> dict:
    """Answers that mention designed object sets, over designed instance annotations."""
    rng = random.Random(f"eval-chair:{seed}")
    vocab = Vocabulary(data_dir)
    vocab.check_fillers(_FILLERS)
    n_images = _scaled(EVAL_IMAGES, scale, 4)
    image_ids = sorted(rng.sample(range(1, 600_000), n_images))
    cat_ids = {c: i + 1 for i, c in enumerate(vocab.categories)}
    positives = {i: (set() if rng.random() < 0.03 else set(rng.sample(vocab.categories, rng.randint(1, 6)))) for i in image_ids}
    annotations = []
    for image_id in image_ids:
        for category in sorted(positives[image_id]):
            for _ in range(rng.randint(1, 3)):
                annotations.append({"id": len(annotations) + 1, "image_id": image_id, "category_id": cat_ids[category]})
    instances = {
        "images": [{"id": i} for i in image_ids],
        "categories": [{"id": cat_ids[c], "name": c} for c in vocab.categories],
        "annotations": annotations,
    }
    (out / "instances.json").write_text(json.dumps(instances), encoding="utf-8")

    rows, expected = [], []
    n_hall = tp_total = tp_clean = pos_total = 0
    for hallucinates in _exact_mix(rng, n_images * CHAIR_ANSWERS_PER_IMAGE, (True, False), (3, 7)):
        image_id = rng.choice(image_ids)
        pos = sorted(positives[image_id])
        mentioned = set(rng.sample(pos, rng.randint(0, min(3, len(pos)))))
        hallucinated = set()
        if hallucinates:
            negatives = [c for c in vocab.categories if c not in positives[image_id]]
            hallucinated = set(rng.sample(negatives, rng.randint(1, 2)))
        objects = sorted(mentioned | hallucinated)
        rng.shuffle(objects)
        if objects:
            phrases = [f"a {_mention(rng, vocab, c)}" for c in objects]
            text = rng.choice(("I can see ", "This photo shows ", "There is ")) + " and also ".join(phrases) + "."
        else:
            text = "Nothing else stands out in this photo."
        rows.append({"image_id": image_id, "answer": text})
        expected.append((image_id, sorted(objects), sorted(hallucinated), sorted(mentioned)))
        pos_total += len(pos)
        tp_total += len(mentioned)
        if hallucinated:
            n_hall += 1
        else:
            tp_clean += len(mentioned)
    _write_jsonl(out / "answers.jsonl", rows)
    n = len(rows)
    return {
        "answers": str(out / "answers.jsonl"),
        "instances": str(out / "instances.json"),
        "per_answer": expected,
        "metrics": {
            "chair_s": Fraction(n_hall, n),
            "recall": Fraction(tp_total, pos_total) if pos_total else Fraction(0),
            "recall_without_hallucination": Fraction(tp_clean, pos_total) if pos_total else Fraction(0),
            "n_answers": n,
            "n_hallucinating": n_hall,
        },
        "summary": {"n_items": n, "hallucination_share": n_hall / n, "refs_per_item": 0.0},
    }


# --- eval-vqa ---------------------------------------------------------------

_NUMS = ("two", "three", "four", "five", "six")
_NOUNS = ("umbrellas", "kites", "apples", "bananas", "chairs", "bottles", "plates", "horses", "boats", "trucks", "cups", "books")
_ARTICLES = {"a", "an", "the"}


@lru_cache(maxsize=None)
def _normalize(text: str, drop_articles: bool = False) -> str:
    words = [w.strip(string.punctuation) for w in text.lower().split()]
    return " ".join(w for w in words if w and not (drop_articles and w in _ARTICLES))


def _vqa_matcher(pred: str):
    """The PAcc match definition, used to check the design, not to derive it."""
    loose, exact = _normalize(pred), _normalize(pred, True)
    return lambda ref: _normalize(ref) in loose or _normalize(ref, True) == exact


def make_eval_vqa(seed: int, scale: float, out: Path, data_dir: Path) -> dict:
    """Predictions that match a designed number of their ten references."""
    rng = random.Random(f"eval-vqa:{seed}")
    n_items = _scaled(EVAL_IMAGES * VQA_ITEMS_PER_IMAGE, scale, 4)
    preds, gts, scores = [], [], []
    for k in range(n_items):
        num, color, noun = rng.choice(_NUMS), rng.choice(_COLOR), rng.choice(_NOUNS)
        phrase = f"{num} {color} {noun}"
        pred = rng.choice((phrase, f"the {phrase}", phrase.capitalize() + ".", f"I think {phrase}"))
        hits = [phrase.upper() + "!", f"The {phrase}", f"{color} {noun}", noun, f"{num} {color}", color, f"{noun}."]
        matches = _vqa_matcher(pred)
        hits = [h for h in hits if matches(h)]
        n_match = rng.choices(range(VQA_REFS + 1), (15, 20, 20, 15, 8, 6, 5, 4, 3, 2, 2))[0]
        refs = [rng.choice(hits) for _ in range(n_match)]
        while len(refs) < VQA_REFS:
            ref = rng.choice((
                f"{rng.choice(_NUMS)} {rng.choice(_COLOR)} {rng.choice(_NOUNS)}",
                rng.choice(_NOUNS),
                f"the {rng.choice(_COLOR)} ones",
            ))
            if not matches(ref):
                refs.append(ref)
        if sum(map(matches, refs)) != n_match:
            raise AssertionError(f"vqa fixture item {k}: design broken")
        rng.shuffle(refs)
        qid = f"q{k:06d}"
        preds.append({"question_id": qid, "prediction": pred})
        gts.append({"question_id": qid, "question": f"What is in picture {k}?", "references": refs})
        scores.append(Fraction(min(3, n_match), 3))
    _write_jsonl(out / "pred.jsonl", preds)
    _write_jsonl(out / "gt.jsonl", gts)
    return {
        "pred": str(out / "pred.jsonl"),
        "gt": str(out / "gt.jsonl"),
        "per_item": [(p["question_id"], s) for p, s in zip(preds, scores)],
        "mean": sum(scores, Fraction(0)) / len(scores),
        "summary": {"n_items": n_items, "refs_per_item": float(VQA_REFS), "hallucination_share": 0.0},
    }


# --- eval-caption -----------------------------------------------------------

# No two of these words share a Porter stem, so n-gram identity is the same
# before and after stemming and the reference scorers below can work on raw
# tokens (perfbench/test_smoke.py checks this against the bundled stemmer).
CAPTION_WORDS = {
    "adj": ("small", "big", "red", "blue", "green", "old", "young", "brown", "white", "black", "tall", "shiny"),
    "noun": ("dog", "cat", "man", "woman", "boy", "girl", "horse", "bus", "train", "boat", "kite", "truck", "bird", "cow"),
    "verb": ("stands", "sits", "waits", "rests", "plays", "runs", "walks", "jumps"),
    "prep": ("on", "near", "by", "under", "behind", "beside"),
    "place": ("street", "field", "beach", "road", "grass", "table", "bench", "hill", "river", "yard"),
}


def _sentence(slots: dict) -> str:
    return f"a {slots['adj']} {slots['noun']} {slots['verb']} {slots['prep']} the {slots['place']}"


def make_eval_caption(seed: int, scale: float, out: Path, data_dir: Path) -> dict:
    """Candidates that copy a designed reference or perturb the shared scene."""
    rng = random.Random(f"eval-caption:{seed}")
    n_images = _scaled(EVAL_IMAGES, scale, 4)
    image_ids = sorted(rng.sample(range(1, 600_000), n_images))
    preds, refs_rows, items = [], [], []
    copies = _exact_mix(rng, n_images, (True, False), (1, 4))
    for image_id, copy in zip(image_ids, copies):
        scene = {slot: rng.choice(words) for slot, words in CAPTION_WORDS.items()}
        refs = []
        for _ in range(CAPTION_REFS):
            slots = dict(scene)
            for slot in rng.sample(list(CAPTION_WORDS), rng.randint(0, 2)):
                slots[slot] = rng.choice(CAPTION_WORDS[slot])
            text = _sentence(slots)
            refs.append(text.capitalize() + "." if rng.random() < 0.5 else text)
        if copy:
            candidate = rng.choice(refs)
        else:
            slots = dict(scene)
            for slot in rng.sample(list(CAPTION_WORDS), rng.randint(1, 3)):
                slots[slot] = rng.choice(CAPTION_WORDS[slot])
            candidate = _sentence(slots) if rng.random() < 0.8 else f"a {slots['noun']} {slots['verb']}"
        preds.append({"image_id": image_id, "caption": candidate})
        refs_rows.append({"image_id": image_id, "references": refs})
        items.append((list(_tokens(candidate)), [list(_tokens(r)) for r in refs]))
    _write_jsonl(out / "pred.jsonl", preds)
    _write_jsonl(out / "refs.jsonl", refs_rows)
    metrics = dict(zip(("bleu_1", "bleu_2", "bleu_3", "bleu_4"), reference_bleu(items)))
    metrics["cider"] = reference_cider(items)
    return {
        "pred": str(out / "pred.jsonl"),
        "refs": str(out / "refs.jsonl"),
        "metrics": metrics,
        "n_items": n_images,
        "summary": {"n_items": n_images, "refs_per_item": float(CAPTION_REFS), "exact_copy_share": sum(copies) / n_images, "hallucination_share": 0.0},
    }


def _grams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu(items, max_n: int = 4) -> list[float]:
    """Corpus BLEU-1..4: clipped pooled precision, closest-shorter reference length, no smoothing."""
    hit, total = [0] * max_n, [0] * max_n
    cand_len = ref_len = 0
    for cand, refs in items:
        cand_len += len(cand)
        ref_len += len(min(refs, key=lambda r: (abs(len(r) - len(cand)), len(r))))
        for n in range(1, max_n + 1):
            c = _grams(cand, n)
            best: Counter = Counter()
            for r in refs:
                best |= _grams(r, n)
            hit[n - 1] += sum(min(v, best[g]) for g, v in c.items())
            total[n - 1] += max(0, len(cand) - n + 1)
    bp = math.exp(1 - ref_len / cand_len) if 0 < cand_len < ref_len else 1.0
    prec = [h / t if t else 0.0 for h, t in zip(hit, total)]
    return [0.0 if min(prec[:k]) == 0.0 else bp * math.exp(sum(map(math.log, prec[:k])) / k) for k in range(1, max_n + 1)]


def reference_cider(items, max_n: int = 4) -> float:
    """Corpus CIDEr: mean over items of 10 x mean over n of mean TF-IDF cosine to each reference."""
    df: Counter = Counter()
    for _, refs in items:
        df.update({g for r in refs for n in range(1, max_n + 1) for g in _grams(r, n)})
    log_n = math.log(len(items))

    def vec(tokens, n):
        v = {g: tf * (log_n - math.log(max(1.0, df[g]))) for g, tf in _grams(tokens, n).items()}
        return v, math.sqrt(sum(x * x for x in v.values()))

    total = 0.0
    for cand, refs in items:
        per_n = []
        for n in range(1, max_n + 1):
            cv, cnorm = vec(cand, n)
            sims = []
            for r in refs:
                rv, rnorm = vec(r, n)
                dot = sum(w * rv.get(g, 0.0) for g, w in cv.items())
                sims.append(dot / (cnorm * rnorm) if cnorm and rnorm else 0.0)
            per_n.append(sum(sims) / len(sims))
        total += 10.0 * sum(per_n) / max_n
    return total / len(items)


MAKERS = {
    "gen-mock": make_gen_mock,
    "gen-http-resume": make_gen_http,
    "eval-chair": make_eval_chair,
    "eval-vqa": make_eval_vqa,
    "eval-caption": make_eval_caption,
}
