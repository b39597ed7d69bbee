"""Bi-encoder: dense retrieval stage of BLINK (Section IV-B1).

Two transformer encoders independently embed the mention-in-context and the
entity (title + description); the match score is the inner product of the two
vectors (Eq. 5) and training maximises the gold pair against the other
entities of the batch (the in-batch contrastive loss of Eq. 6).  Per-example
weights enter the loss exactly where the meta-learning algorithm needs them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..kb.entity import Entity, EntityMentionPair, Mention
from ..nn import Module, Tensor, TransformerEncoder, no_grad
from ..nn import functional as F
from ..text.tokenizer import Tokenizer
from ..utils.config import BiEncoderConfig
from ..utils.logging import MetricHistory
from .candidates import ShardedEntityIndex
from .encoders import encode_entity_inputs, encode_mention_inputs, encode_pair_batch

#: Default chunk size for the batched inference entry points.
DEFAULT_EMBED_BATCH_SIZE = 64


class BiEncoder(Module):
    """Mention encoder + entity encoder with dot-product scoring."""

    def __init__(self, config: BiEncoderConfig, tokenizer: Tokenizer) -> None:
        super().__init__()
        self.config = config
        self.tokenizer = tokenizer
        encoder_config = config.encoder
        vocab_size = max(encoder_config.vocab_size, tokenizer.vocab_size)
        self.mention_encoder = TransformerEncoder(
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
        self.entity_encoder = TransformerEncoder(
            vocab_size=vocab_size,
            model_dim=encoder_config.model_dim,
            num_layers=encoder_config.num_layers,
            num_heads=encoder_config.num_heads,
            hidden_dim=encoder_config.hidden_dim,
            max_length=encoder_config.max_length,
            dropout=encoder_config.dropout,
            padding_idx=tokenizer.pad_id,
            seed=config.seed + 1,
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_mention_ids(self, mention_ids: np.ndarray) -> Tensor:
        return F.normalize(self.mention_encoder.encode(mention_ids))

    def encode_entity_ids(self, entity_ids: np.ndarray) -> Tensor:
        return F.normalize(self.entity_encoder.encode(entity_ids))

    def embed_mentions(
        self, mentions: Sequence[Mention], batch_size: Optional[int] = DEFAULT_EMBED_BATCH_SIZE
    ) -> np.ndarray:
        """Batched inference-time mention embeddings (no autodiff graph).

        Mentions are tokenized and pushed through the mention encoder
        ``batch_size`` at a time (``None`` = one pass over everything), so the
        serving hot path never runs a per-example forward.  Returns a
        ``(len(mentions), model_dim)`` unit-norm matrix.

        Example::

            vectors = biencoder.embed_mentions(mentions, batch_size=64)
        """
        return self._embed_batched(
            mentions,
            lambda chunk: encode_mention_inputs(chunk, self.tokenizer, self.config.encoder.max_length),
            self.encode_mention_ids,
            batch_size,
        )

    def embed_entities(
        self, entities: Sequence[Entity], batch_size: Optional[int] = DEFAULT_EMBED_BATCH_SIZE
    ) -> np.ndarray:
        """Batched inference-time entity embeddings (no autodiff graph).

        The entity-side twin of :meth:`embed_mentions`; used by
        :meth:`build_sharded_index` to embed whole entity collections in
        fixed-size chunks.
        """
        return self._embed_batched(
            entities,
            lambda chunk: encode_entity_inputs(chunk, self.tokenizer, self.config.encoder.max_length),
            self.encode_entity_ids,
            batch_size,
        )

    def embed_mention_id_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Embed pre-tokenized, pre-padded mention id rows (no autodiff graph).

        The serving pipeline's tokenize stage produces the id matrix once;
        this entry point lets it skip the tokenizer entirely.
        """
        self.eval()
        with no_grad():
            return self.encode_mention_ids(ids).data.copy()

    def _embed_batched(self, items, encode_fn, forward_fn, batch_size: Optional[int]) -> np.ndarray:
        items = list(items)
        if not items:
            return np.zeros((0, self.config.encoder.model_dim))
        step = len(items) if batch_size is None else max(1, batch_size)
        self.eval()
        chunks: List[np.ndarray] = []
        with no_grad():
            for start in range(0, len(items), step):
                ids = encode_fn(items[start:start + step])
                chunks.append(forward_fn(ids).data.copy())
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)

    def build_sharded_index(
        self,
        entities: Sequence[Entity],
        batch_size: int = 64,
        lazy: bool = True,
        backend=None,
    ) -> ShardedEntityIndex:
        """Build a per-world :class:`ShardedEntityIndex` over ``entities``.

        With ``lazy=True`` (the default) no embedding happens here: each
        world's shard is embedded on first search, which is what the serving
        pipeline wants when only a few worlds receive traffic.

        ``backend`` picks the shards' coarse stage: None scans every entity
        (exact); :class:`repro.index.IVFBackend` probes k-means cells
        (approximate, exact re-scoring).

        Example::

            index = biencoder.build_sharded_index(corpus_entities)
            index.search(queries, k=64, worlds=["lego"])
        """
        index = ShardedEntityIndex.from_entities(
            entities,
            embed_fn=lambda chunk: self.embed_entities(chunk, batch_size=batch_size),
            backend=backend,
        )
        if not lazy:
            for world in index.worlds():
                index.shard(world)
        return index

    def load_sharded_index(
        self,
        path,
        batch_size: int = 64,
        mmap: bool = False,
        backend=None,
    ) -> ShardedEntityIndex:
        """Restore a :meth:`ShardedEntityIndex.save` snapshot with this encoder.

        Snapshots persist vectors and entity metadata but not the embedding
        callable; this rebinds ``embed_fn`` to this bi-encoder so still-cold
        shards can materialise lazily after a process restart.

        ``mmap=True`` opens the snapshot arrays with ``mmap_mode="r"``: the
        embedding pages are read on first touch, and a replica pool built
        over the index loads it once and restarts a replica without a
        reload; ``backend`` clusters exhaustive-saved shards into cells at
        load.

        Example::

            biencoder.build_sharded_index(entities).save("snapshots/kb")
            ...                                     # process restart
            index = biencoder.load_sharded_index("snapshots/kb")
        """
        return ShardedEntityIndex.load(
            path,
            embed_fn=lambda chunk: self.embed_entities(chunk, batch_size=batch_size),
            mmap=mmap,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def batch_loss(
        self,
        mention_ids: np.ndarray,
        entity_ids: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
        reduction: str = "mean",
    ):
        """In-batch contrastive loss (Eq. 6) with optional per-example weights."""
        mention_vectors = self.encode_mention_ids(mention_ids)
        entity_vectors = self.encode_entity_ids(entity_ids)
        # Scores of every mention against every entity in the batch; the
        # temperature sharpens the distribution since vectors are unit norm.
        scores = mention_vectors.matmul(entity_vectors.T) * 10.0
        targets = np.arange(len(mention_ids))
        return F.cross_entropy(scores, targets, reduction=reduction, sample_weights=sample_weights)

    def pairs_loss(self, pairs: Sequence[EntityMentionPair], reduction: str = "mean"):
        """Convenience wrapper computing the loss directly from pairs."""
        batch = encode_pair_batch(pairs, self.tokenizer, self.config.encoder.max_length)
        weights = batch.weights if not np.allclose(batch.weights, 1.0) else None
        return self.batch_loss(batch.mention_ids, batch.entity_ids, sample_weights=weights,
                               reduction=reduction)

    def prepare_pairs_loss(self, pairs: Sequence[EntityMentionPair]):
        """Tokenize a pair batch once; return a closure re-evaluating its loss.

        The closure ``run(reduction="sum", sample_weights=None)`` computes the
        in-batch loss of the *same* examples at the model's **current**
        parameters (``pair.weight`` is not applied; weights enter through
        ``sample_weights``).  The training loop builds its objective from it,
        and the meta-reweighter shares one tokenisation pass between the base
        and shifted JVP evaluations.
        """
        batch = encode_pair_batch(pairs, self.tokenizer, self.config.encoder.max_length)

        def run(reduction: str = "sum", sample_weights: Optional[np.ndarray] = None):
            return self.batch_loss(
                batch.mention_ids, batch.entity_ids,
                sample_weights=sample_weights, reduction=reduction,
            )

        return run


class BiEncoderTrainer:
    """BLINK's bi-encoder training: the shared loop, every pair under its own weight."""

    def __init__(self, model: BiEncoder, config: Optional[BiEncoderConfig] = None) -> None:
        self.model = model
        self.config = config or model.config

    def fit(
        self,
        pairs: Sequence[EntityMentionPair],
        epochs: Optional[int] = None,
        seed: int = 0,
    ) -> MetricHistory:
        """Train on weighted pairs; returns per-epoch mean loss.

        The engine that ran is kept as ``self.engine`` (step metrics,
        checkpoint helpers).
        """
        # Imported here: repro.training's task adapters import this module.
        from ..training import BiEncoderMetaTask, TrainingEngine

        self.engine = TrainingEngine.for_stage(self.model, BiEncoderMetaTask(self.model), self.config)
        return self.engine.fit(pairs, epochs=epochs, seed=seed)
