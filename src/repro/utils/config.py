"""Experiment configuration objects.

The paper's hyper-parameters (Section V, Implementation) are captured here and
scaled down to sizes that train in seconds on CPU.  Each config is a frozen
dataclass so experiments cannot silently mutate shared settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class EncoderConfig:
    """Size of a transformer text encoder (BERT stand-in)."""

    vocab_size: int = 2048
    model_dim: int = 48
    num_layers: int = 1
    num_heads: int = 4
    hidden_dim: int = 96
    max_length: int = 48
    dropout: float = 0.1

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class BiEncoderConfig:
    """Bi-encoder (candidate generation stage) hyper-parameters."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    learning_rate: float = 5e-3
    batch_size: int = 16
    epochs: int = 3
    max_grad_norm: float = 1.0
    seed: int = 13

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CrossEncoderConfig:
    """Cross-encoder (candidate ranking stage) hyper-parameters.

    The paper sets the cross-encoder batch size to 1 because the meta-learning
    step doubles memory; we keep a small batch for the same reason.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    learning_rate: float = 5e-3
    batch_size: int = 4
    epochs: int = 3
    num_candidates: int = 8
    max_grad_norm: float = 1.0
    seed: int = 17

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class RewriterConfig:
    """Seq2seq mention rewriter (T5 stand-in) hyper-parameters."""

    vocab_size: int = 2048
    model_dim: int = 48
    num_layers: int = 1
    num_heads: int = 4
    hidden_dim: int = 96
    max_source_length: int = 48
    max_target_length: int = 12
    learning_rate: float = 5e-3
    batch_size: int = 16
    epochs: int = 3
    denoising_epochs: int = 1
    seed: int = 29

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class MetaConfig:
    """Meta-learning (learning-to-reweight) hyper-parameters."""

    inner_learning_rate: float = 0.05
    meta_batch_size: int = 16
    seed_batch_size: int = 16
    jvp_epsilon: float = 1e-3

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CorpusConfig:
    """Synthetic Zeshel-substitute corpus sizes.

    ``entities_per_domain`` and ``mentions_per_domain`` default to values that
    keep full experiment sweeps under a few minutes on CPU while preserving
    the few-shot structure (50 train / 50 dev / rest test).
    """

    entities_per_domain: int = 120
    mentions_per_domain: int = 260
    description_sentences: int = 2
    seed: int = 13

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of all configs used by the experiment runners."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    biencoder: BiEncoderConfig = field(default_factory=BiEncoderConfig)
    crossencoder: CrossEncoderConfig = field(default_factory=CrossEncoderConfig)
    rewriter: RewriterConfig = field(default_factory=RewriterConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    recall_k: int = 16
    seed_size: int = 50
    dev_size: int = 50
    seed: int = 13

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def scaled_for_tests(self) -> "ExperimentConfig":
        """Return a copy with very small sizes for fast unit/integration tests."""
        return replace(
            self,
            corpus=replace(self.corpus, entities_per_domain=30, mentions_per_domain=60),
            biencoder=replace(self.biencoder, epochs=1, batch_size=8),
            crossencoder=replace(self.crossencoder, epochs=1, num_candidates=4),
            rewriter=replace(self.rewriter, epochs=1, denoising_epochs=1, batch_size=8),
            recall_k=8,
            seed_size=10,
            dev_size=10,
        )


def default_config(seed: Optional[int] = None) -> ExperimentConfig:
    """Return the default experiment configuration, optionally reseeded."""
    config = ExperimentConfig()
    if seed is not None:
        config = replace(config, seed=seed, corpus=replace(config.corpus, seed=seed))
    return config
