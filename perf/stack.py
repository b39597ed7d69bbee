"""Set-up shared by the workloads: corpus, trained model, the stacks under test.

Everything here is built through the program's public API with fixed seeds;
its cost is what ``setup_s`` reports.  Service knobs that are not named
(``max_batch_size``, ``max_wait_ms``, ``batch_size``, admission watermark,
index backend) stay at the product defaults so a change of default shows.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.bench.synthetic import enlarge_kb
from repro.data.few_shot import FewShotSplit, pairs_from_mentions, split_all_test_domains
from repro.data.zeshel import Corpus, generate_corpus
from repro.eval.experiments import small_experiment_config
from repro.generation.synthesis import build_tokenizer_for_corpus, source_domain_pairs
from repro.kb.entity import Entity, Mention
from repro.linking.blink import BlinkPipeline
from repro.linking.candidates import ShardedEntityIndex
from repro.serving import EntityLinkingPipeline, ReplicaPool, Router
from repro.utils.config import ExperimentConfig

CONFIG_SEED = 13
#: Serving KB: 16 worlds x 64 entities.  100 mentions per world make a pool
#: of 1 600, which one run's requests cover about once whatever the seed.
SERVING_ENTITIES_PER_WORLD = 64
SERVING_MENTIONS_PER_WORLD = 100
#: Mentions held out per test world besides the 50 seed mentions (unused here).
SERVING_DEV_SIZE = 10
SERVING_K = 8
SERVING_REPLICAS = 2
KB_K = 64
#: Gold pairs per training world the served model is trained on (plus the
#: few-shot seed pairs of the test worlds); about 1.5 s of training.
TRAIN_PAIRS_PER_WORLD = 30

T = TypeVar("T")


def median_setup(build: Callable[[], T], repeats: int) -> Tuple[T, float]:
    """Run the whole set-up ``repeats`` times; keep the last, report the median seconds."""
    seconds: List[float] = []
    built: Optional[T] = None
    for _ in range(repeats):
        if built is not None:
            built.close()
            built = None
            gc.collect()  # so peak RSS is one stack's, not a pile-up of three
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    gc.collect()  # and the measured window starts from a collected heap
    assert built is not None
    return built, float(np.median(seconds))


@dataclass
class Model:
    corpus: Corpus
    blink: BlinkPipeline

    def entities(self, worlds: Optional[List[str]] = None) -> List[Entity]:
        worlds = worlds or self.corpus.domain_names()
        return [entity for world in worlds for entity in self.corpus.entities(world)]

    def mentions(self, worlds: Optional[List[str]] = None) -> List[Mention]:
        worlds = worlds or self.corpus.domain_names()
        return [mention for world in worlds for mention in self.corpus.mentions(world)]

    @property
    def test_worlds(self) -> List[str]:
        return self.corpus.domain_names(split="test")


def train_model() -> Model:
    """Corpus, tokenizer and a BLINK model trained on general + seed pairs."""
    config = small_experiment_config(seed=CONFIG_SEED)
    config = replace(
        config,
        corpus=replace(
            config.corpus,
            entities_per_domain=SERVING_ENTITIES_PER_WORLD,
            mentions_per_domain=SERVING_MENTIONS_PER_WORLD,
        ),
        dev_size=SERVING_DEV_SIZE,
    )
    corpus = generate_corpus(config.corpus)
    tokenizer = build_tokenizer_for_corpus(corpus, max_length=config.biencoder.encoder.max_length)
    splits = split_all_test_domains(
        corpus, seed_size=config.seed_size, dev_size=config.dev_size, seed=config.seed
    )
    pairs = source_domain_pairs(corpus, limit_per_domain=TRAIN_PAIRS_PER_WORLD)
    for world, split in splits.items():
        pairs += pairs_from_mentions(corpus, world, split.train, source="seed")
    blink = BlinkPipeline(tokenizer, config.biencoder, config.crossencoder)
    blink.train(pairs, seed=0)
    return Model(corpus, blink)


@dataclass
class ServingStack:
    model: Model
    pipeline: EntityLinkingPipeline
    router: Router
    index_build_s: float

    def close(self) -> None:
        self.router.close()


def serving_stack() -> ServingStack:
    """Router over two thread replicas of a routed, reranking pipeline."""
    model = train_model()
    pipeline = EntityLinkingPipeline.from_blink(model.blink, model.entities(), k=SERVING_K)
    pool = ReplicaPool.from_pipeline(pipeline, replicas=SERVING_REPLICAS)
    router = Router(pool)
    started = time.perf_counter()
    router.warm_up()
    return ServingStack(model, pipeline, router, time.perf_counter() - started)


@dataclass
class KBStack:
    model: Model
    pipeline: EntityLinkingPipeline
    #: ``{world: (entities, vectors)}`` as handed to the index at build time.
    kb: Dict[str, Tuple[List[Entity], np.ndarray]]
    index_build_s: float

    def close(self) -> None:
        pass


def kb_stack(total_entities: int, backend=None, route_by_domain: bool = True) -> KBStack:
    """Retrieval-only pipeline over the test worlds enlarged to ``total_entities``."""
    model = train_model()
    worlds = model.test_worlds
    # No backend argument unless one is asked for: the default is under test.
    index = ShardedEntityIndex(backend=backend) if backend is not None else ShardedEntityIndex()
    kb: Dict[str, Tuple[List[Entity], np.ndarray]] = {}
    for world in worlds:
        base = model.corpus.entities(world)
        entities, vectors = enlarge_kb(
            base, model.blink.biencoder.embed_entities(base),
            total_entities // len(worlds), seed=CONFIG_SEED,
        )
        index.add_shard(world, entities, vectors)
        kb[world] = (entities, vectors)
    started = time.perf_counter()
    for world in worlds:
        index.shard(world)
    build_s = time.perf_counter() - started
    pipeline = EntityLinkingPipeline(
        model.blink.biencoder, index, k=KB_K, rerank=False, route_by_domain=route_by_domain
    )
    return KBStack(model, pipeline, kb, build_s)


@dataclass
class FewShotStack:
    config: ExperimentConfig
    corpus: Corpus
    tokenizer: object
    splits: Dict[str, FewShotSplit]

    def close(self) -> None:
        pass


#: fewshot_train sizes: a fifth of ExperimentSuite's, so one recipe takes
#: about 2 s and a 10 s run holds a median over at least four recipes.
FEWSHOT_MENTIONS_PER_WORLD = 100
FEWSHOT_SEED_SIZE = 20
FEWSHOT_DEV_SIZE = 10


def fewshot_stack() -> FewShotStack:
    config = small_experiment_config(seed=CONFIG_SEED)
    config = replace(
        config,
        corpus=replace(config.corpus, mentions_per_domain=FEWSHOT_MENTIONS_PER_WORLD),
        seed_size=FEWSHOT_SEED_SIZE,
        dev_size=FEWSHOT_DEV_SIZE,
    )
    corpus = generate_corpus(config.corpus)
    tokenizer = build_tokenizer_for_corpus(corpus, max_length=config.biencoder.encoder.max_length)
    splits = split_all_test_domains(
        corpus, seed_size=config.seed_size, dev_size=config.dev_size, seed=config.seed
    )
    return FewShotStack(config, corpus, tokenizer, splits)
