"""Mention rewriting with a trainable seq2seq generator (Section IV-A).

The paper fine-tunes T5 with a ``summarize:`` prefix so that feeding an
entity's description produces a short paraphrase that replaces the original
mention ("The Curse of the Golden Master" → "the fourth episode").  Offline we
train :class:`~repro.generation.seq2seq.Seq2SeqModel` from scratch on the
source-domain (description → mention) pairs; the ``syn*`` variant additionally
runs a sentinel-mask denoising epoch over unlabelled target-domain documents
(Eq. 1–2 and the masking example of Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..kb.entity import Entity, EntityMentionPair
from ..text.tokenizer import Tokenizer
from ..text.vocab import NUM_SENTINELS
from ..utils.config import RewriterConfig
from ..utils.logging import MetricHistory, get_logger
from ..utils.rng import derive_seed
from .seq2seq import Seq2SeqModel

REWRITTEN_SOURCE = "rewritten"

#: Length buckets round the real (non-pad) source length up to a multiple of
#: this, so short descriptions are batched together and decoded over a
#: trimmed id matrix instead of paying full ``max_source_length`` padding.
LENGTH_BUCKET = 8

_LOGGER = get_logger("rewriter")


@dataclass
class RewriterTrainingSummary:
    """Losses recorded while fitting the rewriter."""

    summarization: MetricHistory
    denoising: Optional[MetricHistory] = None


class MentionRewriter:
    """Generate replacement mention surfaces from entity descriptions."""

    def __init__(self, tokenizer: Tokenizer, config: Optional[RewriterConfig] = None) -> None:
        self.tokenizer = tokenizer
        base = config or RewriterConfig()
        if base.vocab_size < tokenizer.vocab_size:
            # The generator must be able to emit every vocabulary token.
            base = RewriterConfig(**{**base.to_dict(), "vocab_size": tokenizer.vocab_size})
        self.config = base
        vocabulary = tokenizer.vocabulary
        self.model = Seq2SeqModel(
            self.config,
            pad_id=vocabulary.pad_id,
            bos_id=vocabulary.bos_id,
            eos_id=vocabulary.eos_id,
        )
        self._trained = False

    # ------------------------------------------------------------------
    # Training data construction
    # ------------------------------------------------------------------
    def build_summarization_batch(
        self, pairs: Sequence[EntityMentionPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(description with summarize prefix) → (mention surface) id pairs."""
        sources = np.stack(
            [
                self.tokenizer.encode_summarize_source(
                    pair.entity.description, max_length=self.config.max_source_length
                )
                for pair in pairs
            ]
        )
        targets = np.stack(
            [
                self.tokenizer.encode_target(
                    pair.mention.surface, max_length=self.config.max_target_length + 1
                )
                for pair in pairs
            ]
        )
        return sources, targets

    def build_denoising_batch(
        self, texts: Sequence[str], seed: int = 0, mask_ratio: float = 0.3
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sentinel-mask denoising pairs from raw target-domain text.

        A random contiguous span of each text is replaced by ``<extra_id_i>``
        in the source; the target asks the decoder to reproduce the masked
        tokens, mirroring T5's span-corruption objective.
        """
        vocabulary = self.tokenizer.vocabulary
        rng = np.random.default_rng(seed)
        sources: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for text in texts:
            tokens = self.tokenizer.tokenize(text)
            if len(tokens) < 4:
                continue
            span = max(1, int(round(mask_ratio * min(len(tokens), 12))))
            start = int(rng.integers(0, max(1, len(tokens) - span)))
            sentinel_index = int(rng.integers(0, NUM_SENTINELS))
            masked = tokens[:start] + [f"<extra_id_{sentinel_index}>"] + tokens[start + span:]
            answer = tokens[start:start + span]

            source_ids = vocabulary.encode_tokens([f"<extra_id_{sentinel_index}>"] + masked)
            source = np.full(self.config.max_source_length, vocabulary.pad_id, dtype=np.int64)
            clipped = source_ids[: self.config.max_source_length]
            source[: len(clipped)] = clipped

            target_ids = [vocabulary.bos_id] + vocabulary.encode_tokens(answer) + [vocabulary.eos_id]
            target = np.full(self.config.max_target_length + 1, vocabulary.pad_id, dtype=np.int64)
            clipped_target = target_ids[: self.config.max_target_length + 1]
            target[: len(clipped_target)] = clipped_target

            sources.append(source)
            targets.append(target)
        if not sources:
            raise ValueError("no usable denoising examples could be built")
        return np.stack(sources), np.stack(targets)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        source_pairs: Sequence[EntityMentionPair],
        target_domain_texts: Optional[Sequence[str]] = None,
        max_pairs: Optional[int] = 600,
        seed: int = 0,
    ) -> RewriterTrainingSummary:
        """Train on source-domain pairs, optionally followed by denoising.

        ``target_domain_texts`` switches the rewriter from *syn* to *syn**
        mode: when provided, an unsupervised denoising pass over those texts
        adapts the generator to the target domain.
        """
        if not source_pairs:
            raise ValueError("rewriter needs at least one source-domain pair")
        pairs = list(source_pairs)
        if max_pairs is not None and len(pairs) > max_pairs:
            rng = np.random.default_rng(derive_seed(seed, "rewriter_subsample"))
            chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[i] for i in chosen]

        sources, targets = self.build_summarization_batch(pairs)
        _LOGGER.debug("fitting rewriter on %d summarisation pairs", len(pairs))
        summarization_history = self.model.fit(sources, targets, seed=seed)

        denoising_history: Optional[MetricHistory] = None
        if target_domain_texts:
            den_sources, den_targets = self.build_denoising_batch(target_domain_texts, seed=seed + 1)
            denoising_history = self.model.fit(
                den_sources,
                den_targets,
                epochs=self.config.denoising_epochs,
                seed=seed + 1,
            )
        self._trained = True
        return RewriterTrainingSummary(summarization=summarization_history, denoising=denoising_history)

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def rewrite_entity(self, entity: Entity, constrain_to_source: bool = True) -> str:
        """Generate a replacement mention for one entity (Eq. 2)."""
        return self.rewrite_entities([entity], constrain_to_source=constrain_to_source)[0]

    def rewrite_entities(
        self, entities: Sequence[Entity], constrain_to_source: bool = True
    ) -> List[str]:
        """Generate replacement mentions for a batch of entities.

        Inputs are bucketed by real (non-pad) source length and decoded one
        bucket at a time over a trimmed id matrix, so short descriptions do
        not pay long-description padding in the encoder or the per-step
        cross-attention.  Per-entity allowed / boosted token sets ride along
        as per-row constraints of the batched KV-cached decode.  Outputs are
        returned in input order regardless of bucketing.
        """
        if not self._trained:
            raise RuntimeError("rewriter must be fitted before rewriting")
        if not entities:
            return []
        vocabulary = self.tokenizer.vocabulary
        sources = np.stack(
            [
                self.tokenizer.encode_summarize_source(
                    entity.description, max_length=self.config.max_source_length
                )
                for entity in entities
            ]
        )
        banned = [vocabulary.pad_id, vocabulary.unk_id, vocabulary.bos_id, vocabulary.summarize_id]
        function_word_ids = {
            vocabulary.token_to_id(token)
            for token in ("the", "of", "a", "in", "and")
            if vocabulary.token_to_id(token) != vocabulary.unk_id
        }

        lengths = (sources != vocabulary.pad_id).sum(axis=1)
        bucket_lengths = np.minimum(
            -(-np.maximum(lengths, 1) // LENGTH_BUCKET) * LENGTH_BUCKET,
            self.config.max_source_length,
        )
        outputs: List[str] = [""] * len(entities)
        for bucket_length in np.unique(bucket_lengths):
            indices = np.flatnonzero(bucket_lengths == bucket_length)
            rows = sources[indices, : int(bucket_length)]
            source_token_sets = [
                set(int(t) for t in row if t != vocabulary.pad_id) for row in rows
            ]
            allowed = None
            if constrain_to_source:
                allowed = [sorted(tokens | function_word_ids) for tokens in source_token_sets]
            # Content words of the description get a copy bonus so the tiny
            # generator produces entity-specific phrases instead of the most
            # frequent target tokens.
            boosted = [sorted(tokens - function_word_ids) for tokens in source_token_sets]
            decoded_rows = self.model.greedy_decode(
                rows,
                allowed_token_ids=allowed,
                banned_token_ids=banned,
                boosted_token_ids=boosted,
                boost=3.0,
                min_length=2,
            )
            for position, decoded in zip(indices, decoded_rows):
                text = " ".join(vocabulary.decode_ids(decoded)).strip()
                if not text:
                    # Degenerate generations fall back to the entity title so
                    # the downstream pipeline always receives a usable surface.
                    text = entities[position].title
                outputs[position] = text
        return outputs

    def rewrite_pairs(
        self,
        pairs: Sequence[EntityMentionPair],
        constrain_to_source: bool = True,
    ) -> List[EntityMentionPair]:
        """Replace each pair's mention surface with a generated one."""
        surfaces = self.rewrite_entities([pair.entity for pair in pairs], constrain_to_source)
        rewritten: List[EntityMentionPair] = []
        for pair, surface in zip(pairs, surfaces):
            mention = pair.mention.with_surface(surface, source=REWRITTEN_SOURCE)
            rewritten.append(
                EntityMentionPair(mention=mention, entity=pair.entity, source=REWRITTEN_SOURCE)
            )
        return rewritten
