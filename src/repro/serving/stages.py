"""Vectorized pipeline stages for the serving path.

Each stage is a callable object transforming a :class:`PipelineBatch` in
place and returning it.  The stage contract (see ``docs/architecture.md``) is
strictly additive — a stage only *fills* fields, never removes them — so
stages compose linearly and a partial pipeline (e.g. retrieval without
reranking) is just a shorter stage list:

=================  ============================  ==============================
Stage              Reads                         Fills
=================  ============================  ==============================
TokenizeStage      ``mentions``                  ``mention_tokens``
EmbedStage         ``mention_tokens``            ``query_vectors``
RetrieveStage      ``query_vectors, mentions``   ``retrievals``, ``candidates``
RerankStage        ``mention_tokens,             ``rerank_scores``,
                   candidates``                  ``predictions``
TopCandidateStage  ``candidates``                ``predictions``
=================  ============================  ==============================

All stages are batch-first: one encoder forward for the whole micro-batch on
the embed side, one blocked matmul per routed shard group on the retrieval
side, and one cross-encoder forward over every (mention, candidate) row on
the rerank side.  No stage loops a model call per example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..index import RetrievalResult
from ..kb.entity import Entity, Mention
from ..linking.biencoder import BiEncoder
from ..linking.candidates import ShardedEntityIndex
from ..linking.crossencoder import CrossEncoder
from ..text.normalization import normalize_text
from ..text.tokenizer import Tokenizer


@dataclass
class MentionTokens:
    """Tokenisation artefacts of one mention, shared by the later stages.

    ``prefix_ids`` is the unpadded ``[bos] left <m> surface </m> right`` id
    sequence — the bi-encoder mention input *and* the mention half of every
    cross-encoder row.  The token sets feed the cross-encoder's lexical
    features without re-tokenising.
    """

    prefix_ids: List[int]
    surface_tokens: frozenset
    context_tokens: frozenset
    normalized_surface: str


@dataclass
class PipelineBatch:
    """Mutable carrier threaded through the pipeline stages.

    Fields start empty and are filled by the stage that owns them; the
    docstring table in :mod:`repro.serving.stages` records which stage fills
    what.
    """

    mentions: List[Mention]
    mention_tokens: Optional[List[MentionTokens]] = None
    query_vectors: Optional[np.ndarray] = None
    retrievals: Optional[List[RetrievalResult]] = None
    candidates: Optional[List[List[Entity]]] = None
    rerank_scores: Optional[List[np.ndarray]] = None
    predictions: Optional[List[Optional[Entity]]] = None

    def __len__(self) -> int:
        return len(self.mentions)


class TokenizeStage:
    """Tokenize each mention exactly once for the whole pipeline.

    Contract: reads ``batch.mentions``, fills ``batch.mention_tokens``.  The
    embed and rerank stages consume these artefacts instead of re-running the
    tokenizer (the seed code tokenised every mention three times: once for
    the bi-encoder input, once per cross-encoder row, once for the lexical
    features).
    """

    name = "tokenize"

    def __init__(self, tokenizer: Tokenizer) -> None:
        self.tokenizer = tokenizer

    def __call__(self, batch: PipelineBatch) -> PipelineBatch:
        encode_tokens = self.tokenizer.vocabulary.encode_tokens
        artefacts: List[MentionTokens] = []
        for mention in batch.mentions:
            left, surface, right = self.tokenizer.mention_token_parts(
                mention.surface, mention.context_left, mention.context_right
            )
            tokens = self.tokenizer.assemble_mention_tokens(left, surface, right)
            artefacts.append(
                MentionTokens(
                    prefix_ids=encode_tokens(tokens),
                    surface_tokens=frozenset(surface),
                    context_tokens=frozenset(left) | frozenset(right),
                    normalized_surface=normalize_text(mention.surface),
                )
            )
        batch.mention_tokens = artefacts
        return batch


class EmbedStage:
    """Embed the mention micro-batch with one bi-encoder forward.

    Contract: reads ``batch.mention_tokens``, fills ``batch.query_vectors``
    with a ``(len(batch), model_dim)`` unit-norm float64 matrix.
    """

    name = "embed"

    def __init__(self, biencoder: BiEncoder) -> None:
        self.biencoder = biencoder

    def __call__(self, batch: PipelineBatch) -> PipelineBatch:
        assert batch.mention_tokens is not None, "TokenizeStage must run before EmbedStage"
        max_length = self.biencoder.config.encoder.max_length
        pad_id = self.biencoder.tokenizer.pad_id
        ids = np.full((len(batch), max_length), pad_id, dtype=np.int64)
        for row, tokens in enumerate(batch.mention_tokens):
            prefix = tokens.prefix_ids[:max_length]
            ids[row, : len(prefix)] = prefix
        batch.query_vectors = self.biencoder.embed_mention_id_matrix(ids)
        return batch


class RetrieveStage:
    """Sharded MIPS retrieval with per-mention world routing.

    Contract: reads ``batch.query_vectors`` (and each mention's ``domain``
    when routing by domain), fills ``batch.retrievals`` (one
    :class:`RetrievalResult` per mention) and ``batch.candidates`` (the
    Entity lists the search itself resolved, ranking order preserved — never
    a second id lookup, which a concurrent removal could fail).
    """

    name = "retrieve"

    def __init__(self, index: ShardedEntityIndex, k: int, route_by_domain: bool = True) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.index = index
        self.k = k
        self.route_by_domain = route_by_domain

    def __call__(self, batch: PipelineBatch) -> PipelineBatch:
        assert batch.query_vectors is not None, "EmbedStage must run before RetrieveStage"
        if self.route_by_domain:
            routes = [mention.domain for mention in batch.mentions]
        else:
            routes = [None] * len(batch)
        batch.retrievals = self.index.search_routed(batch.query_vectors, self.k, routes)
        batch.candidates = [retrieval.entities for retrieval in batch.retrievals]
        return batch


class RerankStage:
    """Cross-encoder reranking of every candidate list in one forward pass.

    Contract: reads ``batch.mentions`` and ``batch.candidates``, fills
    ``batch.rerank_scores`` (one score array per mention, aligned with its
    candidates) and ``batch.predictions`` (argmax candidate, None when the
    candidate list is empty).
    """

    name = "rerank"

    def __init__(self, crossencoder: CrossEncoder) -> None:
        self.crossencoder = crossencoder

    def __call__(self, batch: PipelineBatch) -> PipelineBatch:
        assert batch.candidates is not None, "RetrieveStage must run before RerankStage"
        batch.rerank_scores = self.crossencoder.score_candidate_batch(
            batch.mentions, batch.candidates, mention_tokens=batch.mention_tokens
        )
        batch.predictions = [
            candidates[int(np.argmax(scores))] if len(candidates) else None
            for scores, candidates in zip(batch.rerank_scores, batch.candidates)
        ]
        return batch


class TopCandidateStage:
    """Rerank-free fallback: predict the best retrieval candidate.

    Contract: reads ``batch.candidates``, fills ``batch.predictions`` with
    each mention's top-ranked candidate (None when retrieval came up empty).
    """

    name = "top_candidate"

    def __call__(self, batch: PipelineBatch) -> PipelineBatch:
        assert batch.candidates is not None, "RetrieveStage must run before TopCandidateStage"
        batch.predictions = [
            candidates[0] if candidates else None for candidates in batch.candidates
        ]
        return batch
