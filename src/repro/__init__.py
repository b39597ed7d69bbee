"""Reproduction of "Effective Few-Shot Named Entity Linking by Meta-Learning".

The package is organised as a set of substrates (``nn``, ``text``, ``kb``,
``data``, ``generation``, ``linking``) underneath the paper's contribution
(``meta``), plus an evaluation harness (``eval``) that regenerates every table
and figure of the paper, and ``serving``, the batched linker every evaluation
runs through.  README.md maps the layout and docs/architecture.md the
design; ``python scripts/generate_experiments_report.py`` writes
EXPERIMENTS.md, the paper-vs-measured numbers.

Typical usage (train MetaBLINK on one test world, then score it)::

    from repro import default_config
    from repro.data import generate_corpus, pairs_from_mentions, split_domain
    from repro.eval import evaluate_pipeline
    from repro.generation import build_bundle, build_tokenizer_for_corpus
    from repro.meta import MetaBlinkTrainer, few_shot_seed
    from repro.serving import EntityLinkingPipeline

    config = default_config(seed=13)
    corpus = generate_corpus(config.corpus)
    tokenizer = build_tokenizer_for_corpus(corpus, max_length=config.biencoder.encoder.max_length)
    split = split_domain(corpus, "lego", seed_size=config.seed_size, dev_size=config.dev_size)
    entities = corpus.entities("lego")
    bundle = build_bundle(corpus, "lego", tokenizer=tokenizer, rewriter_config=config.rewriter)
    seed_pairs = few_shot_seed(pairs_from_mentions(corpus, "lego", split.train, source="seed"))

    trainer = MetaBlinkTrainer(tokenizer, config.biencoder, config.crossencoder, config.meta)
    trainer.train(bundle.syn, seed_pairs, candidate_pool=entities)
    serving = EntityLinkingPipeline.from_blink(trainer.pipeline, entities, k=config.recall_k)
    print(evaluate_pipeline(serving, split.test).metrics)
"""

from .utils.config import ExperimentConfig, default_config

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "default_config", "__version__"]
