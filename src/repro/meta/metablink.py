"""MetaBLINK: meta-learning enhanced entity linking (Algorithm 2).

``MetaBlinkTrainer`` owns a :class:`~repro.linking.blink.BlinkPipeline` and
trains both stages on the synthetic data ``D_f`` under the supervision of the
seed set ``D_g``: one :class:`~repro.training.MetaTrainingEngine` per stage
runs Algorithm 1 — the shared training loop with every synthetic batch
reweighted against a seed batch (via
:class:`~repro.meta.reweight.ExampleReweighter`) before the weighted update
of Eq. 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..kb.entity import Entity, EntityMentionPair
from ..linking.biencoder import BiEncoderTrainer
from ..linking.blink import BlinkPipeline
from ..linking.crossencoder import CrossEncoderTrainer
from ..linking.encoders import unique_entities
from ..text.tokenizer import Tokenizer
from ..training.engine import MetaTrainingEngine
from ..training.tasks import BiEncoderMetaTask, CrossEncoderMetaTask
from ..utils.config import BiEncoderConfig, CrossEncoderConfig, MetaConfig
from ..utils.logging import MetricHistory


@dataclass
class MetaTrainingReport:
    """Diagnostics collected while training MetaBLINK.

    ``mean_selected_fraction`` averages and ``skipped_steps`` sums the two
    stages' values; each stage's own are in its loss history.
    """

    biencoder_loss: Optional[MetricHistory] = None
    crossencoder_loss: Optional[MetricHistory] = None
    mean_selected_fraction: float = 0.0
    skipped_steps: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


class MetaBlinkTrainer:
    """Algorithm 2: train a full MetaBLINK pipeline on Df (synthetic) + Dg (seed)."""

    def __init__(
        self,
        tokenizer: Tokenizer,
        biencoder_config: Optional[BiEncoderConfig] = None,
        crossencoder_config: Optional[CrossEncoderConfig] = None,
        meta_config: Optional[MetaConfig] = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.biencoder_config = biencoder_config or BiEncoderConfig()
        self.crossencoder_config = crossencoder_config or CrossEncoderConfig()
        self.meta_config = meta_config or MetaConfig()
        self.pipeline = BlinkPipeline(tokenizer, self.biencoder_config, self.crossencoder_config)

    def train(
        self,
        synthetic_pairs: Sequence[EntityMentionPair],
        seed_pairs: Sequence[EntityMentionPair],
        candidate_pool: Optional[Sequence[Entity]] = None,
        max_crossencoder_examples: Optional[int] = 80,
        train_crossencoder: bool = True,
        finetune_on_seed: bool = True,
        seed: int = 0,
    ) -> MetaTrainingReport:
        """Train both stages with meta-reweighting and return diagnostics.

        ``finetune_on_seed`` runs one final standard epoch over the seed pairs
        after the meta-weighted training — the seed set is clean in-domain
        supervision, so using it directly (in addition to using it for
        weighting) combines the strengths of synthetic and seed data the way
        the paper describes.
        """
        report = MetaTrainingReport()
        pipeline = self.pipeline
        bi_engine = MetaTrainingEngine.for_stage(
            pipeline.biencoder, BiEncoderMetaTask(pipeline.biencoder), self.biencoder_config,
            meta_config=self.meta_config,
        )
        report.biencoder_loss = bi_engine.fit(synthetic_pairs, seed_pairs, seed=seed)
        histories = [report.biencoder_loss]
        if train_crossencoder:
            pool = list(candidate_pool) if candidate_pool is not None else unique_entities(
                list(synthetic_pairs) + list(seed_pairs)
            )
            cross_engine = MetaTrainingEngine.for_stage(
                pipeline.crossencoder, CrossEncoderMetaTask(pipeline.crossencoder),
                self.crossencoder_config, meta_config=self.meta_config,
            )
            report.crossencoder_loss = cross_engine.fit(
                pipeline.ranking_examples(synthetic_pairs, pool, max_crossencoder_examples, seed=seed),
                pipeline.ranking_examples(seed_pairs, pool, None, seed=seed + 1),
                seed=seed,
            )
            histories.append(report.crossencoder_loss)
        report.mean_selected_fraction = float(np.mean([h.last("selected_fraction") for h in histories]))
        report.skipped_steps = int(sum(h.last("skipped_steps") for h in histories))

        if finetune_on_seed:
            BiEncoderTrainer(pipeline.biencoder, self.biencoder_config).fit(
                list(seed_pairs), epochs=1, seed=seed + 100
            )
            if train_crossencoder:
                CrossEncoderTrainer(pipeline.crossencoder, self.crossencoder_config).fit(
                    pipeline.ranking_examples(seed_pairs, pool, None, seed=seed + 101),
                    epochs=1, seed=seed + 101,
                )
        return report

    def predict(self, mentions, entities, k: int = 16, rerank: bool = True):
        """Delegate prediction to the underlying BLINK pipeline."""
        return self.pipeline.predict(mentions, entities, k=k, rerank=rerank)
