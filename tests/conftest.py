"""Shared fixtures: small corpora and tokenizers reused across test modules."""

import pytest

from repro.data import generate_corpus
from repro.generation import build_tokenizer_for_corpus
from repro.utils.config import CorpusConfig, RewriterConfig


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small but complete 16-domain corpus (fast to generate)."""
    return generate_corpus(CorpusConfig(entities_per_domain=24, mentions_per_domain=90, seed=11))


@pytest.fixture(scope="session")
def tiny_tokenizer(tiny_corpus):
    return build_tokenizer_for_corpus(tiny_corpus, max_vocab_size=2048, max_length=32)


@pytest.fixture(scope="session")
def tiny_rewriter_config():
    """Rewriter sized for unit tests (single short epoch)."""
    return RewriterConfig(
        model_dim=32,
        num_layers=1,
        num_heads=2,
        hidden_dim=64,
        max_source_length=32,
        max_target_length=8,
        epochs=1,
        denoising_epochs=1,
        batch_size=16,
    )


@pytest.fixture
def fanout_helper(monkeypatch):
    """A fresh pool of one fan-out helper thread in place of the process's.

    A large fan-out then runs its parallel path whatever the machine's CPU
    count, and a test sees only the helper starts its own searches cause.
    """
    from repro.linking import candidates

    helpers = candidates._ScanHelpers(1)
    monkeypatch.setattr(candidates, "_HELPERS", helpers)
    yield helpers
    if helpers._executor is not None:
        helpers._executor.shutdown(wait=True)
