"""Text substrate: normalisation, vocabulary, tokenisation and ROUGE."""

from .normalization import (
    disambiguation_phrase,
    has_disambiguation,
    normalize_text,
    normalize_whitespace,
    simple_tokenize,
    strip_disambiguation,
    token_overlap_ratio,
)
from .rouge import (
    RougeScore,
    best_match_rouge_1_f1,
    corpus_rouge_1_f1,
    rouge_1,
    rouge_n,
)
from .tokenizer import EncodedPair, Tokenizer
from .vocab import (
    BOS_TOKEN,
    EOS_TOKEN,
    MENTION_END,
    MENTION_START,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    SUMMARIZE_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    sentinel_token,
)

__all__ = [
    "normalize_text",
    "normalize_whitespace",
    "simple_tokenize",
    "strip_disambiguation",
    "disambiguation_phrase",
    "has_disambiguation",
    "token_overlap_ratio",
    "RougeScore",
    "rouge_n",
    "rouge_1",
    "corpus_rouge_1_f1",
    "best_match_rouge_1_f1",
    "Tokenizer",
    "EncodedPair",
    "Vocabulary",
    "sentinel_token",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "BOS_TOKEN",
    "EOS_TOKEN",
    "SEP_TOKEN",
    "MENTION_START",
    "MENTION_END",
    "SUMMARIZE_TOKEN",
    "SPECIAL_TOKENS",
]
