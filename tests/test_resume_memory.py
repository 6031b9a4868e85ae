"""What a resume holds of the records it reads back from ``--out``.

A resume of a COCO-train run reads back more than a million records only to
learn which captions and images they cover. So each record is slotted, the
records of one read share their recipe strings, and the list is freed before
the first new caption is generated.
"""

import gc
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

from cap2qa import generator
from cap2qa.clocks import FixedClock
from cap2qa.corpus import CaptionRecord, InstructionRecord, Provenance, read_instructions, write_instructions
from cap2qa.generator import GeneratorConfig, generate_corpus
from cap2qa.llm_client import BackendSpec, MockScript
from cap2qa.promptkit import default_prompt_config

NOW = datetime(2024, 5, 1, 12, 0, 0, tzinfo=timezone.utc)
MODEL = "resume-memory-model"
WORDS = "man woman dog cat bus train red blue green parked near station table kitchen holding standing".split()


def records(n, seed=0):
    """``n`` records as a real run writes them: two per caption, COCO-sized ids, a timestamp per caption."""
    rng = random.Random(seed)
    version = default_prompt_config().version_tag
    for i in range(n):
        caption_id = 100000 + i // 2
        yield InstructionRecord(
            image_id=400000 + caption_id // 5,
            question="What " + " ".join(rng.choice(WORDS) for _ in range(6)) + "?",
            answer="The " + " ".join(rng.choice(WORDS) for _ in range(5)) + ".",
            source_caption_ids=(caption_id,),
            provenance=Provenance(MODEL, version, 1, NOW + timedelta(microseconds=137 * caption_id)),
        )


def live_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is InstructionRecord and obj.provenance.model_id == MODEL)


def test_the_resumed_records_are_freed_before_the_first_new_caption(tmp_path, monkeypatch):
    out = tmp_path / "out.jsonl"
    write_instructions(out, records(500))
    new = CaptionRecord(caption_id=1, image_id=10, text="A cat sits on a mat.")
    captions = [CaptionRecord(100000 + i, 400000 + (100000 + i) // 5, f"caption {i}") for i in range(250)] + [new]
    config = GeneratorConfig(backend=BackendSpec(kind="mock", script=MockScript(("Question: Q?\nAnswer: A.",))), model_id=MODEL)
    seen = []
    real = generator.generate_for_caption

    def spy(caption, *args, **kwargs):
        if not seen:
            seen.append(live_records())
        return real(caption, *args, **kwargs)

    monkeypatch.setattr(generator, "generate_for_caption", spy)
    counts = generate_corpus(captions, config, out, clock=FixedClock(NOW))
    assert (counts["n_records"], counts["n_covered_images"]) == (1, 51)
    assert seen == [0]


def test_the_records_of_one_read_are_slotted_and_share_their_recipe(tmp_path):
    out = tmp_path / "out.jsonl"
    write_instructions(out, records(20))
    read = read_instructions(out)
    assert not any(hasattr(obj, "__dict__") for r in read for obj in (r, r.provenance))
    assert len({id(r.provenance.model_id) for r in read}) == 1
    assert len({id(r.provenance.prompt_version) for r in read}) == 1
    # Texts are not shared: the records own them, and they may hold any text.
    assert len({id(r.answer) for r in read}) == len(read)


# A resume reads back every record of --out, more than a million on COCO train.
# On Python 3.11 these records hold 468 bytes each; unslotted, with their own
# recipe strings, they held 684.
def test_read_records_hold_under_520_bytes_each(tmp_path):
    out = tmp_path / "out.jsonl"
    n = 2000
    write_instructions(out, records(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read = read_instructions(out)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(read) == n
    assert held / n < 520, f"{held} bytes traced for {n} records"
