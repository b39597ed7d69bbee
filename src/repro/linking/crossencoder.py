"""Cross-encoder: candidate-ranking stage of BLINK (Section IV-B1).

The cross-encoder reads the concatenation of the mention-in-context and one
candidate entity and produces a scalar relevance score; ranking the candidates
retrieved by the bi-encoder with these scores yields the final prediction.
Training maximises the gold candidate against the other retrieved candidates
(softmax cross entropy over the candidate list), again with optional
per-example weights for the meta-learning loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kb.entity import Entity, EntityMentionPair, Mention
from ..nn import Linear, Module, Tensor, TransformerEncoder, concatenate, no_grad
from ..nn import functional as F
from ..text.normalization import normalize_text, simple_tokenize, strip_disambiguation
from ..text.tokenizer import Tokenizer
from ..text.vocab import SEP_TOKEN
from ..utils.config import CrossEncoderConfig
from ..utils.logging import MetricHistory
from ..utils.rng import derive_seed

NUM_LEXICAL_FEATURES = 3

# The interaction features live in [0, 1] while pooled transformer activations
# are an order of magnitude larger; scaling the features keeps the scoring
# head from ignoring them early in training.
LEXICAL_FEATURE_SCALE = 5.0

# Capacity of the per-entity token/feature caches; beyond this the oldest
# entries are evicted (FIFO) so a long-running serving process reranking
# traffic over a huge KB cannot grow without bound.
ENTITY_CACHE_CAPACITY = 65536


def _cache_put(cache: Dict, key: str, value) -> None:
    """Insert with FIFO eviction at :data:`ENTITY_CACHE_CAPACITY`.

    Overwriting an existing key never evicts: the dict does not grow, so
    removing the oldest entry would throw away an unrelated cached value.

    Thread replicas share one :class:`CrossEncoder`, so another thread may be
    inserting or evicting at the same moment.  Eviction tolerates that without
    a lock on the hot path: a key the other evictor already removed pops to
    nothing, an iterator the other thread invalidated is retried, and the
    loop runs until the cache is below capacity, so racing threads leave at
    most one entry each above it.
    """
    if key not in cache:
        while len(cache) >= ENTITY_CACHE_CAPACITY:
            try:
                cache.pop(next(iter(cache), None), None)
            except RuntimeError:  # resized by another thread between iter() and next()
                pass
    cache[key] = value


def _jaccard(left: frozenset, right: frozenset) -> float:
    if not left or not right:
        return 0.0
    return len(left & right) / len(left | right)


def lexical_features(mention: Mention, candidate: Entity) -> np.ndarray:
    """Hand-crafted mention/candidate interaction features.

    A pre-trained BERT cross-encoder captures lexical interactions between the
    mention side and the entity side implicitly; the tiny from-scratch encoder
    used offline cannot, so we expose three explicit interaction signals to
    the scoring head (the head still has to *learn* how much to trust them):

    1. surface ↔ title token overlap (the exact-match shortcut),
    2. context ↔ description token overlap (the semantic signal),
    3. exact title match indicator.
    """
    surface_tokens = frozenset(simple_tokenize(mention.surface))
    title_tokens = frozenset(simple_tokenize(candidate.title))
    context_tokens = frozenset(simple_tokenize(f"{mention.context_left} {mention.context_right}"))
    description_tokens = frozenset(simple_tokenize(candidate.description))

    exact = float(
        normalize_text(mention.surface) in {
            normalize_text(candidate.title),
            normalize_text(strip_disambiguation(candidate.title)),
        }
    )
    return np.array([_jaccard(surface_tokens, title_tokens),
                     _jaccard(context_tokens, description_tokens),
                     exact], dtype=np.float64)


@dataclass
class RankingExample:
    """One training example: a mention, its candidates, and the gold index."""

    mention: Mention
    candidates: List[Entity]
    gold_index: int
    weight: float = 1.0


class CrossEncoder(Module):
    """Single-tower encoder over concatenated mention/entity text + score head."""

    def __init__(self, config: CrossEncoderConfig, tokenizer: Tokenizer) -> None:
        super().__init__()
        self.config = config
        self.tokenizer = tokenizer
        encoder_config = config.encoder
        vocab_size = max(encoder_config.vocab_size, tokenizer.vocab_size)
        self.encoder = TransformerEncoder(
            vocab_size=vocab_size,
            model_dim=encoder_config.model_dim,
            num_layers=encoder_config.num_layers,
            num_heads=encoder_config.num_heads,
            hidden_dim=encoder_config.hidden_dim,
            max_length=encoder_config.max_length,
            dropout=encoder_config.dropout,
            padding_idx=tokenizer.pad_id,
            seed=config.seed,
        )
        self.score_head = Linear(
            encoder_config.model_dim + NUM_LEXICAL_FEATURES,
            1,
            rng=np.random.default_rng(config.seed + 7),
        )
        # Per-entity caches keyed by entity_id (entity content is immutable):
        # tokenized ``<sep> title <sep> description`` id suffixes and the
        # token sets the lexical features are computed from.  Entities repeat
        # across mentions in every rerank batch, so these caches turn the
        # per-row tokenisation cost into a one-time cost per entity.
        self._entity_suffix_cache: Dict[str, List[int]] = {}
        self._entity_feature_cache: Dict[str, Tuple[frozenset, frozenset, frozenset]] = {}
        # Mention-side memo, keyed by the text the derived values depend on
        # (mention ids are reused by rewritten surfaces, so the id alone is
        # not a safe key).  Mentions recur across training epochs and across
        # rerank calls, and without the memo the surface / context token sets
        # were re-derived for every scoring call.
        self._mention_prefix_cache: Dict[Tuple[str, str, str], List[int]] = {}
        self._mention_feature_cache: Dict[Tuple[str, str, str], Tuple[frozenset, frozenset, str]] = {}

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def scores_from_ids(self, cross_ids: np.ndarray, features: Optional[np.ndarray] = None) -> Tensor:
        """Scalar score for each row of concatenated mention/candidate ids."""
        pooled = self.encoder.encode(cross_ids)
        if features is None:
            features = np.zeros((len(cross_ids), NUM_LEXICAL_FEATURES))
        combined = concatenate([pooled, Tensor(np.asarray(features, dtype=np.float64))], axis=1)
        return self.score_head(combined).reshape(len(cross_ids))

    def _entity_suffix_ids(self, entity: Entity) -> List[int]:
        """Cached ``<sep> title <sep> description`` id suffix for one entity."""
        cached = self._entity_suffix_cache.get(entity.entity_id)
        if cached is None:
            tokens = (
                [SEP_TOKEN]
                + self.tokenizer.tokenize(entity.title)
                + [SEP_TOKEN]
                + self.tokenizer.tokenize(entity.description)
            )
            cached = self.tokenizer.vocabulary.encode_tokens(tokens)
            _cache_put(self._entity_suffix_cache, entity.entity_id, cached)
        return cached

    @staticmethod
    def _mention_key(mention: Mention) -> Tuple[str, str, str]:
        return (mention.surface, mention.context_left, mention.context_right)

    def _mention_prefix_ids(self, mention: Mention) -> List[int]:
        """Cached mention-in-context id prefix (one tokenisation per mention text)."""
        key = self._mention_key(mention)
        cached = self._mention_prefix_cache.get(key)
        if cached is None:
            tokens = self.tokenizer.mention_tokens(
                mention.surface, mention.context_left, mention.context_right
            )
            cached = self.tokenizer.vocabulary.encode_tokens(tokens)
            _cache_put(self._mention_prefix_cache, key, cached)
        return cached

    def _mention_feature_sets(self, mention: Mention) -> Tuple[frozenset, frozenset, str]:
        """Cached mention-side inputs of the lexical features.

        Returns ``(surface_tokens, context_tokens, normalized_surface)``; the
        memo means reranking *n* candidates for a mention tokenises the
        mention side once instead of once per (mention, candidate) pair, and
        repeat mentions (training epochs, steady-state serving traffic) skip
        the work entirely.
        """
        key = self._mention_key(mention)
        cached = self._mention_feature_cache.get(key)
        if cached is None:
            cached = (
                frozenset(simple_tokenize(mention.surface)),
                frozenset(simple_tokenize(f"{mention.context_left} {mention.context_right}")),
                normalize_text(mention.surface),
            )
            _cache_put(self._mention_feature_cache, key, cached)
        return cached

    def _cross_input_ids(
        self,
        mention: Mention,
        candidates: Sequence[Entity],
        prefix: Optional[List[int]] = None,
    ) -> np.ndarray:
        """Cross-encoder id rows; identical to ``Tokenizer.encode_cross`` output.

        ``prefix`` optionally supplies the mention-side id sequence (e.g. from
        the serving pipeline's tokenize stage) so the mention is not
        re-tokenised here.
        """
        max_length = self.config.encoder.max_length
        rows = np.full((len(candidates), max_length), self.tokenizer.pad_id, dtype=np.int64)
        if prefix is None:
            prefix = self._mention_prefix_ids(mention)
        for position, candidate in enumerate(candidates):
            ids = (prefix + self._entity_suffix_ids(candidate))[:max_length]
            rows[position, : len(ids)] = ids
        return rows

    def _entity_feature_sets(self, entity: Entity) -> Tuple[frozenset, frozenset, frozenset]:
        cached = self._entity_feature_cache.get(entity.entity_id)
        if cached is None:
            cached = (
                frozenset(simple_tokenize(entity.title)),
                frozenset(simple_tokenize(entity.description)),
                frozenset(
                    {
                        normalize_text(entity.title),
                        normalize_text(strip_disambiguation(entity.title)),
                    }
                ),
            )
            _cache_put(self._entity_feature_cache, entity.entity_id, cached)
        return cached

    def _candidate_features(
        self,
        mention: Mention,
        candidates: Sequence[Entity],
        mention_sets: Optional[Tuple[frozenset, frozenset, str]] = None,
    ) -> np.ndarray:
        """Interaction features of :func:`lexical_features`, with the
        mention-side token sets computed once per mention and the entity-side
        sets cached per entity id.  ``mention_sets`` optionally supplies
        precomputed ``(surface_tokens, context_tokens, normalized_surface)``.
        """
        if mention_sets is not None:
            surface_tokens, context_tokens, normalized_surface = mention_sets
        else:
            surface_tokens, context_tokens, normalized_surface = self._mention_feature_sets(mention)
        features = np.empty((len(candidates), NUM_LEXICAL_FEATURES), dtype=np.float64)
        for position, candidate in enumerate(candidates):
            title_tokens, description_tokens, title_forms = self._entity_feature_sets(candidate)
            features[position, 0] = _jaccard(surface_tokens, title_tokens)
            features[position, 1] = _jaccard(context_tokens, description_tokens)
            features[position, 2] = float(normalized_surface in title_forms)
        return features * LEXICAL_FEATURE_SCALE

    def score_candidates(self, mention: Mention, candidates: Sequence[Entity]) -> np.ndarray:
        """Inference-time candidate scores for one mention."""
        ids = self._cross_input_ids(mention, candidates)
        features = self._candidate_features(mention, candidates)
        self.eval()
        with no_grad():
            return self.scores_from_ids(ids, features).data.copy()

    def rank(self, mention: Mention, candidates: Sequence[Entity]) -> List[Entity]:
        """Candidates sorted by decreasing score."""
        scores = self.score_candidates(mention, candidates)
        order = np.argsort(-scores)
        return [candidates[i] for i in order]

    def predict(self, mention: Mention, candidates: Sequence[Entity]) -> Optional[Entity]:
        """Best candidate, or None when the candidate list is empty."""
        if not candidates:
            return None
        return self.rank(mention, candidates)[0]

    # ------------------------------------------------------------------
    # Batched inference
    # ------------------------------------------------------------------
    def score_candidate_batch(
        self,
        mentions: Sequence[Mention],
        candidate_lists: Sequence[Sequence[Entity]],
        mention_tokens: Optional[Sequence[object]] = None,
    ) -> List[np.ndarray]:
        """Candidate scores for many mentions in one encoder forward pass.

        All ``(mention, candidate)`` rows are concatenated into a single id
        matrix and scored together — the vectorized rerank stage of the
        serving pipeline.  Returns one score array per mention, aligned with
        its candidate list (empty array for an empty list).

        ``mention_tokens`` optionally carries per-mention tokenisation
        artefacts (objects exposing ``prefix_ids``, ``surface_tokens``,
        ``context_tokens`` and ``normalized_surface``, e.g.
        :class:`repro.serving.stages.MentionTokens`) so mentions are not
        re-tokenised here.

        Example::

            scores = crossencoder.score_candidate_batch(mentions, candidates)
            best = [cands[int(np.argmax(s))] for s, cands in zip(scores, candidates) if len(cands)]
        """
        if len(mentions) != len(candidate_lists):
            raise ValueError("mentions and candidate lists must align")
        if mention_tokens is not None and len(mention_tokens) != len(mentions):
            raise ValueError("mention_tokens and mentions must align")
        row_blocks: List[np.ndarray] = []
        feature_blocks: List[np.ndarray] = []
        lengths: List[int] = []
        for position, (mention, candidates) in enumerate(zip(mentions, candidate_lists)):
            lengths.append(len(candidates))
            if not candidates:
                continue
            prefix = None
            mention_sets = None
            if mention_tokens is not None:
                tokens = mention_tokens[position]
                prefix = tokens.prefix_ids
                mention_sets = (
                    tokens.surface_tokens,
                    tokens.context_tokens,
                    tokens.normalized_surface,
                )
            row_blocks.append(self._cross_input_ids(mention, candidates, prefix=prefix))
            feature_blocks.append(self._candidate_features(mention, candidates, mention_sets=mention_sets))
        if not row_blocks:
            return [np.zeros(0) for _ in lengths]

        ids = np.concatenate(row_blocks, axis=0)
        features = np.concatenate(feature_blocks, axis=0)
        self.eval()
        with no_grad():
            flat_scores = self.scores_from_ids(ids, features).data.copy()

        scores: List[np.ndarray] = []
        offset = 0
        for length in lengths:
            scores.append(flat_scores[offset:offset + length])
            offset += length
        return scores

    def predict_batch(
        self,
        mentions: Sequence[Mention],
        candidate_lists: Sequence[Sequence[Entity]],
    ) -> List[Optional[Entity]]:
        """Best candidate per mention (None for empty candidate lists).

        Ties are broken toward the earlier candidate, matching the retrieval
        order, so batched prediction is deterministic.
        """
        all_scores = self.score_candidate_batch(mentions, candidate_lists)
        best: List[Optional[Entity]] = []
        for scores, candidates in zip(all_scores, candidate_lists):
            if len(candidates) == 0:
                best.append(None)
                continue
            best.append(candidates[int(np.argmax(scores))])
        return best

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def example_loss(self, example: RankingExample):
        """Cross entropy of the gold candidate within the candidate list."""
        ids = self._cross_input_ids(example.mention, example.candidates)
        features = self._candidate_features(example.mention, example.candidates)
        scores = self.scores_from_ids(ids, features).reshape(1, len(example.candidates))
        return F.cross_entropy(scores, [example.gold_index], reduction="sum")

    def prepare_examples_loss(self, examples: Sequence[RankingExample]):
        """Tokenize ranking examples once; return a loss-evaluating closure.

        All ``(mention, candidate)`` rows are concatenated into one id/feature
        matrix up front.  The returned ``run(reduction="mean",
        sample_weights=None)`` pushes those rows through the encoder in a
        single (chunked) forward at the model's **current** parameters and
        assembles per-example softmax cross-entropy losses — the batched
        replacement for looping ``example_loss`` over the list.  Examples may
        have differing candidate counts; rows are regrouped by count so each
        group softmaxes over a rectangular score matrix, and the per-example
        losses are returned in the original example order.
        """
        if not examples:
            raise ValueError("examples_loss requires at least one ranking example")
        for position, example in enumerate(examples):
            if not example.candidates:
                raise ValueError(f"ranking example {position} has no candidates")
            if not 0 <= example.gold_index < len(example.candidates):
                raise ValueError(
                    f"ranking example {position} gold_index {example.gold_index} "
                    f"out of range for {len(example.candidates)} candidates"
                )
        ids = np.concatenate(
            [self._cross_input_ids(e.mention, e.candidates) for e in examples], axis=0
        )
        features = np.concatenate(
            [self._candidate_features(e.mention, e.candidates) for e in examples], axis=0
        )
        counts = np.array([len(e.candidates) for e in examples], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # One (row indices, golds) group per distinct candidate count, plus the
        # permutation restoring original example order after regrouping.
        groups = []
        grouped_order: List[int] = []
        for count in sorted(set(counts.tolist())):
            members = np.flatnonzero(counts == count)
            flat_rows = (offsets[members][:, None] + np.arange(count)[None, :]).reshape(-1)
            golds = np.array([examples[i].gold_index for i in members], dtype=np.int64)
            groups.append((flat_rows, len(members), count, golds))
            grouped_order.extend(members.tolist())
        inverse_order = np.argsort(np.array(grouped_order))

        def run(reduction: str = "mean", sample_weights: Optional[np.ndarray] = None):
            flat_scores = self.scores_from_ids(ids, features)
            chunks = [
                F.cross_entropy(
                    flat_scores[rows].reshape(size, count), golds, reduction="none"
                )
                for rows, size, count, golds in groups
            ]
            losses = chunks[0] if len(chunks) == 1 else concatenate(chunks, axis=0)
            if len(groups) > 1:
                losses = losses[inverse_order]
            if sample_weights is not None:
                losses = losses * Tensor(np.asarray(sample_weights, dtype=np.float64))
            if reduction == "none":
                return losses
            if reduction == "sum":
                return losses.sum()
            if reduction == "mean":
                return losses.mean()
            raise ValueError(f"unknown reduction {reduction!r}")

        return run

    def examples_loss(
        self,
        examples: Sequence[RankingExample],
        reduction: str = "mean",
        sample_weights: Optional[np.ndarray] = None,
    ):
        """Batched ranking loss over many examples in one encoder forward.

        Equivalent to summing/averaging :meth:`example_loss` over ``examples``
        but with every (mention, candidate) row scored together.
        ``sample_weights`` scales each example's loss (zero-weight examples
        still contribute their 0 to sums, keeping logged epoch losses
        comparable across trainers).  Raises ``ValueError`` on an empty list.
        """
        return self.prepare_examples_loss(examples)(
            reduction=reduction, sample_weights=sample_weights
        )


def build_ranking_examples(
    pairs: Sequence[EntityMentionPair],
    candidate_pool: Sequence[Entity],
    num_candidates: int,
    seed: int = 0,
) -> List[RankingExample]:
    """Create ranking examples with random negatives from ``candidate_pool``.

    The gold entity always occupies a random slot among ``num_candidates``
    candidates; negatives are sampled without replacement from the pool.
    """
    if num_candidates < 2:
        raise ValueError("num_candidates must be at least 2")
    pool = [entity for entity in candidate_pool]
    if len(pool) < 2:
        raise ValueError("candidate pool must contain at least two entities")
    examples: List[RankingExample] = []
    for pair_index, pair in enumerate(pairs):
        rng = np.random.default_rng(derive_seed(seed, "ranking", pair.mention.mention_id, str(pair_index)))
        negatives: List[Entity] = []
        attempts = 0
        while len(negatives) < num_candidates - 1 and attempts < 10 * num_candidates:
            candidate = pool[int(rng.integers(0, len(pool)))]
            attempts += 1
            if candidate.entity_id == pair.entity.entity_id:
                continue
            if any(candidate.entity_id == chosen.entity_id for chosen in negatives):
                continue
            negatives.append(candidate)
        candidates = negatives + [pair.entity]
        gold_position = int(rng.integers(0, len(candidates)))
        candidates[gold_position], candidates[-1] = candidates[-1], candidates[gold_position]
        examples.append(
            RankingExample(
                mention=pair.mention,
                candidates=candidates,
                gold_index=gold_position,
                weight=pair.weight,
            )
        )
    return examples


class CrossEncoderTrainer:
    """BLINK's cross-encoder training: the shared loop over :class:`RankingExample` lists."""

    def __init__(self, model: CrossEncoder, config: Optional[CrossEncoderConfig] = None) -> None:
        self.model = model
        self.config = config or model.config

    def fit(
        self,
        examples: Sequence[RankingExample],
        epochs: Optional[int] = None,
        seed: int = 0,
    ) -> MetricHistory:
        """Train on ranking examples, each under its own weight.

        The engine that ran is kept as ``self.engine``.
        """
        # Imported here: repro.training's task adapters import this module.
        from ..training import CrossEncoderMetaTask, TrainingEngine

        self.engine = TrainingEngine.for_stage(self.model, CrossEncoderMetaTask(self.model), self.config)
        return self.engine.fit(examples, epochs=epochs, seed=seed)
