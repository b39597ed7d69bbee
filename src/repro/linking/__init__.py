"""Entity-linking models: bi-encoder, cross-encoder, BLINK pipeline, baselines."""

from ..index import EntityShard, RetrievalResult, blocked_topk
from .biencoder import BiEncoder, BiEncoderTrainer
from .blink import BlinkPipeline, TrainingReport
from .candidates import ShardedEntityIndex
from .crossencoder import (
    CrossEncoder,
    CrossEncoderTrainer,
    RankingExample,
    build_ranking_examples,
)
from .dl4el import DL4ELTrainer
from .encoders import (
    PairBatch,
    encode_cross_inputs,
    encode_entity_inputs,
    encode_mention_inputs,
    encode_pair_batch,
    unique_entities,
)
from .name_matching import NameMatchingLinker

__all__ = [
    "BiEncoder",
    "BiEncoderTrainer",
    "CrossEncoder",
    "CrossEncoderTrainer",
    "RankingExample",
    "build_ranking_examples",
    "BlinkPipeline",
    "TrainingReport",
    "EntityShard",
    "ShardedEntityIndex",
    "RetrievalResult",
    "blocked_topk",
    "DL4ELTrainer",
    "NameMatchingLinker",
    "PairBatch",
    "encode_mention_inputs",
    "encode_entity_inputs",
    "encode_pair_batch",
    "encode_cross_inputs",
    "unique_entities",
]
