"""Vocabulary mapping tokens to integer ids.

The vocabulary reserves special tokens used by the encoders and the seq2seq
rewriter (padding, unknown, begin/end of sequence, the ``summarize:`` task
prefix, and T5-style sentinel tokens for the denoising objective).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
SEP_TOKEN = "<sep>"
MENTION_START = "<m>"
MENTION_END = "</m>"
SUMMARIZE_TOKEN = "<summarize>"
NUM_SENTINELS = 8

SPECIAL_TOKENS: List[str] = [
    PAD_TOKEN,
    UNK_TOKEN,
    BOS_TOKEN,
    EOS_TOKEN,
    SEP_TOKEN,
    MENTION_START,
    MENTION_END,
    SUMMARIZE_TOKEN,
] + [f"<extra_id_{i}>" for i in range(NUM_SENTINELS)]


def sentinel_token(index: int) -> str:
    """Return the ``index``-th sentinel token (``<extra_id_i>``)."""
    if not 0 <= index < NUM_SENTINELS:
        raise ValueError(f"sentinel index {index} out of range [0, {NUM_SENTINELS})")
    return f"<extra_id_{index}>"


class Vocabulary:
    """Token ↔ id mapping with special-token handling."""

    def __init__(self, tokens: Optional[Iterable[str]] = None) -> None:
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        for token in SPECIAL_TOKENS:
            self._add(token)
        for token in tokens or []:
            self._add(token)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, token: str) -> int:
        if token in self._token_to_id:
            return self._token_to_id[token]
        index = len(self._id_to_token)
        self._token_to_id[token] = index
        self._id_to_token.append(token)
        return index

    def add_token(self, token: str) -> int:
        """Add a token (idempotent) and return its id."""
        return self._add(token)

    @classmethod
    def build(
        cls,
        texts: Iterable[Sequence[str]],
        max_size: Optional[int] = None,
        min_frequency: int = 1,
    ) -> "Vocabulary":
        """Build a vocabulary from pre-tokenised texts by frequency."""
        counts: Counter = Counter()
        for tokens in texts:
            counts.update(tokens)
        most_common = [
            token
            for token, count in counts.most_common()
            if count >= min_frequency and token not in SPECIAL_TOKENS
        ]
        budget = None if max_size is None else max(0, max_size - len(SPECIAL_TOKENS))
        if budget is not None:
            most_common = most_common[:budget]
        return cls(most_common)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS_TOKEN]

    @property
    def summarize_id(self) -> int:
        return self._token_to_id[SUMMARIZE_TOKEN]

    def sentinel_id(self, index: int) -> int:
        return self._token_to_id[sentinel_token(index)]

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, index: int) -> str:
        if not 0 <= index < len(self._id_to_token):
            raise IndexError(f"token id {index} out of range")
        return self._id_to_token[index]

    def encode_tokens(self, tokens: Sequence[str]) -> List[int]:
        return [self.token_to_id(token) for token in tokens]

    def decode_ids(self, ids: Sequence[int], skip_special: bool = True) -> List[str]:
        tokens = [self.id_to_token(int(i)) for i in ids]
        if skip_special:
            tokens = [t for t in tokens if t not in SPECIAL_TOKENS]
        return tokens

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the vocabulary to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"tokens": self._id_to_token}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Vocabulary":
        """Load a vocabulary written by :meth:`save`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        vocabulary = cls()
        for token in payload["tokens"]:
            vocabulary._add(token)
        return vocabulary
