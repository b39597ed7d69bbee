"""Sequence-to-sequence model (T5 stand-in) built on :mod:`repro.nn`.

The model is a transformer encoder-decoder trained with teacher forcing on
(source ids → target ids) pairs.  Decoding is greedy, optionally constrained
to tokens that occur in the source sequence ("copy-biased" decoding), which
keeps generations on-topic even for the very small models that are practical
on CPU — the role T5's pre-training plays in the original system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam, Module, TransformerDecoder, TransformerEncoder, clip_grad_norm, no_grad
from ..nn import functional as F
from ..utils.config import RewriterConfig
from ..utils.logging import MetricHistory
from ..utils.rng import batched_indices


@dataclass
class Seq2SeqBatch:
    """A teacher-forcing batch: encoder inputs and padded decoder targets."""

    source_ids: np.ndarray
    target_ids: np.ndarray


class Seq2SeqModel(Module):
    """Transformer encoder-decoder with teacher-forcing training utilities."""

    def __init__(self, config: RewriterConfig, pad_id: int, bos_id: int, eos_id: int) -> None:
        super().__init__()
        self.config = config
        self.pad_id = pad_id
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.encoder = TransformerEncoder(
            vocab_size=config.vocab_size,
            model_dim=config.model_dim,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            hidden_dim=config.hidden_dim,
            max_length=config.max_source_length,
            dropout=0.1,
            padding_idx=pad_id,
            seed=config.seed,
        )
        self.decoder = TransformerDecoder(
            vocab_size=config.vocab_size,
            model_dim=config.model_dim,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            hidden_dim=config.hidden_dim,
            max_length=config.max_target_length + 1,
            dropout=0.1,
            padding_idx=pad_id,
            seed=config.seed + 1,
        )

    # ------------------------------------------------------------------
    # Loss / training
    # ------------------------------------------------------------------
    def batch_loss(self, source_ids: np.ndarray, target_ids: np.ndarray):
        """Teacher-forced cross entropy, ignoring padding targets."""
        source_ids = np.asarray(source_ids, dtype=np.int64)
        target_ids = np.asarray(target_ids, dtype=np.int64)
        decoder_input = target_ids[:, :-1]
        decoder_target = target_ids[:, 1:]

        memory = self.encoder(source_ids)
        logits = self.decoder(decoder_input, memory, memory_padding_mask=(source_ids == self.pad_id))

        batch, length, vocab = logits.shape
        flat_logits = logits.reshape(batch * length, vocab)
        flat_targets = decoder_target.reshape(-1)
        keep = (flat_targets != self.pad_id).astype(np.float64)
        total_real = max(keep.sum(), 1.0)
        loss = F.cross_entropy(flat_logits, flat_targets, reduction="none", sample_weights=keep)
        return loss.sum() * (1.0 / total_real)

    def fit(
        self,
        source_ids: np.ndarray,
        target_ids: np.ndarray,
        epochs: Optional[int] = None,
        batch_size: Optional[int] = None,
        learning_rate: Optional[float] = None,
        seed: int = 0,
    ) -> MetricHistory:
        """Train with Adam over the provided pairs; returns the loss history."""
        if len(source_ids) != len(target_ids):
            raise ValueError("source and target batches must have equal length")
        if len(source_ids) == 0:
            raise ValueError("cannot fit on an empty dataset")
        epochs = self.config.epochs if epochs is None else epochs
        batch_size = self.config.batch_size if batch_size is None else batch_size
        learning_rate = self.config.learning_rate if learning_rate is None else learning_rate

        optimizer = Adam(self.parameters(), lr=learning_rate)
        history = MetricHistory()
        rng = np.random.default_rng(seed)
        self.train()
        try:
            for epoch in range(epochs):
                epoch_losses: List[float] = []
                for batch in batched_indices(len(source_ids), batch_size, rng):
                    loss = self.batch_loss(source_ids[batch], target_ids[batch])
                    self.zero_grad()
                    loss.backward()
                    clip_grad_norm(self.parameters(), 1.0)
                    optimizer.step()
                    epoch_losses.append(loss.item())
                history.add("loss", float(np.mean(epoch_losses)))
        finally:
            self.eval()
        return history

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _per_row_ids(
        self, token_ids: Optional[Sequence], batch: int
    ) -> Optional[List[np.ndarray]]:
        """Normalise a constraint argument to one id array per batch row.

        Accepts either a flat sequence of ints (shared by every row) or a
        sequence of per-row id collections (one per batch row, enabling
        per-entity constraints in a single batched decode).
        """
        if token_ids is None:
            return None
        seq = list(token_ids)
        if seq and isinstance(seq[0], (list, tuple, set, frozenset, np.ndarray)):
            if len(seq) != batch:
                raise ValueError(
                    f"per-row token id lists ({len(seq)}) must match batch size {batch}"
                )
            return [np.asarray(sorted(row) if isinstance(row, (set, frozenset)) else list(row),
                               dtype=np.int64) for row in seq]
        shared = np.asarray(seq, dtype=np.int64)
        return [shared] * batch

    def _decode_biases(
        self,
        batch: int,
        allowed: Optional[List[np.ndarray]],
        banned: Optional[List[np.ndarray]],
        boosted: Optional[List[np.ndarray]],
        boost: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Precomputed per-row decode constraints.

        Returns ``(additive, blocked)``: a ``(batch, vocab)`` float matrix of
        copy-mechanism boosts added to every step's logits, and a
        ``(batch, vocab)`` boolean matrix of tokens forced to ``-1e9``
        (banned tokens, tokens outside the allowed set).  Together with the
        repetition matrix these replace the per-row / per-token Python loops
        of the naive decoder with three vectorized array ops per step.
        """
        vocab = self.config.vocab_size
        additive = np.zeros((batch, vocab))
        blocked = np.zeros((batch, vocab), dtype=bool)
        if boosted is not None:
            for row, ids in enumerate(boosted):
                additive[row, ids] = boost
        if allowed is not None:
            blocked[:] = True
            for row, ids in enumerate(allowed):
                blocked[row, ids] = False
            blocked[:, self.eos_id] = False
        blocked[:, self.pad_id] = True
        if banned is not None:
            for row, ids in enumerate(banned):
                blocked[row, ids] = True
        return additive, blocked

    def greedy_decode(
        self,
        source_ids: np.ndarray,
        max_length: Optional[int] = None,
        allowed_token_ids: Optional[Sequence] = None,
        banned_token_ids: Optional[Sequence] = None,
        boosted_token_ids: Optional[Sequence] = None,
        boost: float = 2.0,
        repetition_penalty: float = 4.0,
        min_length: int = 1,
    ) -> List[List[int]]:
        """Greedy decoding for a batch of source sequences (KV-cached).

        ``allowed_token_ids`` restricts generation to a token subset (plus the
        end-of-sequence token); ``banned_token_ids`` removes tokens such as
        padding / unknown from consideration.  ``boosted_token_ids`` receive a
        logit bonus (a lightweight copy mechanism that keeps small models
        on-topic), and already-generated tokens are penalised to avoid the
        degenerate repetition small seq2seq models are prone to.  Each
        constraint accepts either a flat id sequence (shared across the
        batch) or one id collection per row.

        The decode runs on the incremental engine: one encoder pass and one
        BOS prefill build a :class:`~repro.nn.DecoderState`, then every step
        feeds only the newly chosen token — cached K/V make the attention
        cost linear instead of quadratic in the target length.  Constraint
        logic is applied through precomputed bias matrices and finished rows
        are dropped from the active batch.  Output is token-for-token
        identical to :meth:`greedy_decode_naive`.
        """
        source_ids = np.asarray(source_ids, dtype=np.int64)
        if source_ids.ndim == 1:
            source_ids = source_ids[None, :]
        max_length = self.config.max_target_length if max_length is None else max_length

        batch = source_ids.shape[0]
        additive, blocked = self._decode_biases(
            batch,
            self._per_row_ids(allowed_token_ids, batch),
            self._per_row_ids(banned_token_ids, batch),
            self._per_row_ids(boosted_token_ids, batch),
            boost,
        )
        repetition = np.zeros_like(additive) if repetition_penalty else None

        self.eval()
        sequences = np.full((batch, max_length), self.pad_id, dtype=np.int64)
        active = np.arange(batch)
        with no_grad():
            memory = self.encoder(source_ids)
            state = self.decoder.init_state(
                memory, source_ids == self.pad_id, max_length=max_length + 1
            )
            tokens = np.full((batch, 1), self.bos_id, dtype=np.int64)
            for step in range(max_length):
                logits = self.decoder.forward_step(tokens, state)
                step_logits = logits.data[:, -1, :] + additive[active]
                if step < min_length:
                    step_logits[:, self.eos_id] = -1e9
                if repetition is not None:
                    step_logits += repetition[active]
                step_logits[blocked[active]] = -1e9
                next_tokens = step_logits.argmax(axis=-1)
                sequences[active, step] = next_tokens
                if repetition is not None:
                    repetition[active, next_tokens] = -repetition_penalty
                alive = next_tokens != self.eos_id
                if not alive.all():
                    active = active[alive]
                    if active.size == 0:
                        break
                    state.select_rows(alive)
                    next_tokens = next_tokens[alive]
                tokens = next_tokens[:, None]
        return self._trim_sequences(sequences)

    def greedy_decode_naive(
        self,
        source_ids: np.ndarray,
        max_length: Optional[int] = None,
        allowed_token_ids: Optional[Sequence[int]] = None,
        banned_token_ids: Optional[Sequence[int]] = None,
        boosted_token_ids: Optional[Sequence[int]] = None,
        boost: float = 2.0,
        repetition_penalty: float = 4.0,
        min_length: int = 1,
    ) -> List[List[int]]:
        """Reference greedy decoder: full re-forward over the growing prefix.

        The original O(T²) loop, kept verbatim as the ground truth for the
        KV-cache parity suite.  Constraints here are flat id sequences
        shared by the whole batch (the pre-engine signature).
        """
        source_ids = np.asarray(source_ids, dtype=np.int64)
        if source_ids.ndim == 1:
            source_ids = source_ids[None, :]
        max_length = self.config.max_target_length if max_length is None else max_length

        vocab = self.config.vocab_size
        allowed_mask = None
        if allowed_token_ids is not None:
            allowed_mask = np.full(vocab, True)
            allowed_mask[np.asarray(list(allowed_token_ids), dtype=np.int64)] = False
            allowed_mask[self.eos_id] = False
        banned = set(int(t) for t in (banned_token_ids or ()))
        banned.add(self.pad_id)
        boost_vector = np.zeros(vocab)
        if boosted_token_ids is not None:
            boost_vector[np.asarray(list(boosted_token_ids), dtype=np.int64)] = boost

        self.eval()
        batch = source_ids.shape[0]
        sequences = np.full((batch, 1), self.bos_id, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        with no_grad():
            memory = self.encoder(source_ids)
            padding_mask = source_ids == self.pad_id
            for step in range(max_length):
                logits = self.decoder(sequences, memory, memory_padding_mask=padding_mask)
                step_logits = logits.data[:, -1, :].copy()
                step_logits = step_logits + boost_vector[None, :]
                if step < min_length:
                    step_logits[:, self.eos_id] = -1e9
                if repetition_penalty:
                    for row_index in range(batch):
                        generated = sequences[row_index, 1:]
                        step_logits[row_index, generated] -= repetition_penalty
                if allowed_mask is not None:
                    step_logits[:, allowed_mask] = -1e9
                for token in banned:
                    step_logits[:, token] = -1e9
                next_tokens = step_logits.argmax(axis=-1)
                next_tokens = np.where(finished, self.pad_id, next_tokens)
                sequences = np.concatenate([sequences, next_tokens[:, None]], axis=1)
                finished |= next_tokens == self.eos_id
                if finished.all():
                    break
        return self._trim_sequences(sequences[:, 1:])

    def _trim_sequences(self, sequences: np.ndarray) -> List[List[int]]:
        """Cut each generated row at its first end-of-sequence / pad token."""
        outputs: List[List[int]] = []
        for row in sequences:
            tokens: List[int] = []
            for token in row:
                if token == self.eos_id or token == self.pad_id:
                    break
                tokens.append(int(token))
            outputs.append(tokens)
        return outputs
