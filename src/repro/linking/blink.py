"""BLINK-style two-stage linking pipeline (Wu et al., 2020).

``BlinkPipeline`` bundles a bi-encoder (candidate generation) and a
cross-encoder (candidate ranking).  The evaluation protocol follows the paper:

* Recall@k measures the candidate-generation stage;
* normalised accuracy (N.Acc) measures ranking *given* that the gold entity
  was retrieved;
* unnormalised accuracy (U.Acc) = recall × N.Acc measures the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..index import EntityShard
from ..kb.entity import Entity, EntityMentionPair, Mention
from ..text.tokenizer import Tokenizer
from ..utils.config import BiEncoderConfig, CrossEncoderConfig
from ..utils.logging import MetricHistory, get_logger
from .biencoder import BiEncoder, BiEncoderTrainer
from .crossencoder import CrossEncoder, CrossEncoderTrainer, RankingExample, build_ranking_examples
from .encoders import unique_entities

_LOGGER = get_logger("blink")


@dataclass
class LinkingPrediction:
    """Two-stage outcome for one mention."""

    mention_id: str
    gold_entity_id: Optional[str]
    candidate_ids: List[str]
    predicted_entity_id: Optional[str]

    @property
    def gold_in_candidates(self) -> bool:
        return self.gold_entity_id is not None and self.gold_entity_id in self.candidate_ids

    @property
    def correct(self) -> bool:
        return (
            self.predicted_entity_id is not None
            and self.gold_entity_id is not None
            and self.predicted_entity_id == self.gold_entity_id
        )


@dataclass
class TrainingReport:
    """Loss histories for the two stages."""

    biencoder: Optional[MetricHistory] = None
    crossencoder: Optional[MetricHistory] = None
    extra: Dict[str, object] = field(default_factory=dict)


class BlinkPipeline:
    """Bi-encoder + cross-encoder entity linker."""

    def __init__(
        self,
        tokenizer: Tokenizer,
        biencoder_config: Optional[BiEncoderConfig] = None,
        crossencoder_config: Optional[CrossEncoderConfig] = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.biencoder_config = biencoder_config or BiEncoderConfig()
        self.crossencoder_config = crossencoder_config or CrossEncoderConfig()
        self.biencoder = BiEncoder(self.biencoder_config, tokenizer)
        self.crossencoder = CrossEncoder(self.crossencoder_config, tokenizer)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        pairs: Sequence[EntityMentionPair],
        candidate_pool: Optional[Sequence[Entity]] = None,
        train_biencoder: bool = True,
        train_crossencoder: bool = True,
        max_crossencoder_examples: Optional[int] = 80,
        seed: int = 0,
    ) -> TrainingReport:
        """Train both stages on (weighted) pairs.

        ``candidate_pool`` supplies negatives for cross-encoder training; it
        defaults to the distinct entities present in ``pairs``.
        """
        if not pairs:
            raise ValueError("cannot train BLINK on an empty pair list")
        report = TrainingReport()
        if train_biencoder:
            report.biencoder = BiEncoderTrainer(self.biencoder, self.biencoder_config).fit(pairs, seed=seed)
        if train_crossencoder:
            pool = list(candidate_pool) if candidate_pool is not None else unique_entities(pairs)
            examples = self.ranking_examples(pairs, pool, max_crossencoder_examples, seed=seed)
            report.crossencoder = CrossEncoderTrainer(self.crossencoder, self.crossencoder_config).fit(
                examples, seed=seed
            )
        return report

    def ranking_examples(
        self,
        pairs: Sequence[EntityMentionPair],
        candidate_pool: Sequence[Entity],
        limit: Optional[int],
        seed: int,
    ) -> List[RankingExample]:
        """Cross-encoder training examples for the first ``limit`` pairs
        (``None`` = all), negatives drawn from ``candidate_pool``."""
        return build_ranking_examples(
            list(pairs)[:limit], candidate_pool, self.crossencoder_config.num_candidates, seed=seed
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(
        self,
        mentions: Sequence[Mention],
        entities: Sequence[Entity],
        k: int = 16,
        index: Optional[EntityShard] = None,
        rerank: bool = True,
        batch_size: int = 64,
    ) -> List[LinkingPrediction]:
        """Run the two-stage pipeline over mentions against an entity set.

        Delegates to the batched :class:`~repro.serving.EntityLinkingPipeline`
        so every stage (embedding, MIPS retrieval, reranking) runs vectorized
        over ``batch_size`` micro-batches instead of once per mention.
        """
        if not mentions:
            return []
        # Imported lazily: serving builds on linking, not the other way round.
        from ..serving.pipeline import EntityLinkingPipeline

        serving = EntityLinkingPipeline.from_blink(
            self,
            entities=entities if index is None else None,
            index=index,
            k=k,
            rerank=rerank,
            batch_size=batch_size,
            # Preserve this method's historical contract: candidates come
            # from the *whole* entity pool, so fan out over every shard
            # rather than routing each mention to its own domain's shard.
            # Domain routing is the serving layer's explicit opt-in.
            route_by_domain=False,
        )
        return [
            LinkingPrediction(
                mention_id=result.mention_id,
                gold_entity_id=result.gold_entity_id,
                candidate_ids=list(result.candidate_ids),
                predicted_entity_id=result.predicted_entity_id,
            )
            for result in serving.link(mentions)
        ]
