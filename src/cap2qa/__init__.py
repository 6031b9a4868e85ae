"""Caption-grounded QA dataset factory and evaluation harness."""

__version__ = "0.1.0"

from .clocks import Clock, FixedClock, SystemClock
from .corpus import (
    CaptionRecord,
    InstructionRecord,
    ObjectAnnotation,
    Provenance,
    QAPair,
    dataset_stats,
    load_coco_captions,
    load_object_annotations,
    read_instructions,
    write_instructions,
)
from .errors import Cap2qaError
from .eval_caption import CaptionEvalSet, CaptionItem, bleu, cider
from .eval_hallucination import (
    AnswerRecord,
    ChairResult,
    Lexicon,
    build_lexicon,
    chair_eval,
    default_lexicon,
    extract_objects,
)
from .eval_vqa import acc_score, evaluate, pacc_score
from .filters import FilterRule, default_rules, filter_artifacts
from .generator import GeneratorConfig, generate_corpus, parse_qas
from .llm_client import AssistantClient, AssistantRequest, BackendSpec, MockScript
from .promptkit import PromptConfig, default_prompt_config, render

__all__ = [
    "AnswerRecord",
    "AssistantClient",
    "AssistantRequest",
    "BackendSpec",
    "Cap2qaError",
    "CaptionEvalSet",
    "CaptionItem",
    "CaptionRecord",
    "ChairResult",
    "Clock",
    "FilterRule",
    "FixedClock",
    "GeneratorConfig",
    "InstructionRecord",
    "Lexicon",
    "MockScript",
    "ObjectAnnotation",
    "PromptConfig",
    "Provenance",
    "QAPair",
    "SystemClock",
    "acc_score",
    "bleu",
    "build_lexicon",
    "chair_eval",
    "cider",
    "dataset_stats",
    "default_lexicon",
    "default_prompt_config",
    "default_rules",
    "evaluate",
    "extract_objects",
    "filter_artifacts",
    "generate_corpus",
    "load_coco_captions",
    "load_object_annotations",
    "pacc_score",
    "parse_qas",
    "read_instructions",
    "render",
    "write_instructions",
]
