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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..kb.entity import Entity, EntityMentionPair, Mention
from ..text.tokenizer import Tokenizer
from ..utils.config import BiEncoderConfig, CrossEncoderConfig
from ..utils.logging import MetricHistory, get_logger
from .biencoder import BiEncoder, BiEncoderTrainer
from .crossencoder import CrossEncoder, CrossEncoderTrainer, RankingExample, build_ranking_examples
from .encoders import unique_entities

if TYPE_CHECKING:  # pragma: no cover - serving builds on linking, typing only
    from ..serving.pipeline import LinkingResult

_LOGGER = get_logger("blink")


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
        rerank: bool = True,
        batch_size: int = 64,
    ) -> List["LinkingResult"]:
        """Link mentions against an entity set: the serving pipeline's results.

        Builds an :class:`~repro.serving.EntityLinkingPipeline` over
        ``entities`` and returns its :meth:`~repro.serving.EntityLinkingPipeline.link`
        output unchanged, so the research path and the serving path are one
        code path.  Candidates come from the *whole* entity pool (fan-out
        over every shard); routing each mention to its own world's shard is
        the serving layer's explicit opt-in.
        """
        # Imported lazily: serving builds on linking, not the other way round.
        from ..serving.pipeline import EntityLinkingPipeline

        serving = EntityLinkingPipeline.from_blink(
            self, entities, k=k, rerank=rerank, batch_size=batch_size, route_by_domain=False
        )
        return serving.link(mentions)
