"""Experiment runners: one function per table / figure of the paper.

Every runner returns plain row dictionaries (ready for
:func:`repro.eval.reporting.format_table`), so the same code backs the unit
tests, the benchmark harness and the EXPERIMENTS.md generation script.

The :class:`ExperimentSuite` caches expensive shared artefacts — the corpus,
the tokenizer, few-shot splits, synthetic-data bundles and the
general-domain BLINK model — so running several experiments in one process
does not repeat work.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.few_shot import (
    FewShotSplit,
    pairs_from_mentions,
    remaining_test_mentions,
    sample_training_subset,
    split_all_test_domains,
    table4_rows,
)
from ..data.worlds import DISPLAY_NAMES, TEST_DOMAINS
from ..data.zeshel import Corpus, generate_corpus
from ..generation.noise import mix_with_noise
from ..generation.synthesis import (
    SyntheticDataBundle,
    build_bundle,
    build_tokenizer_for_corpus,
    source_domain_pairs,
)
from ..kb.entity import EntityMentionPair
from ..linking.blink import BlinkPipeline
from ..linking.biencoder import BiEncoder, BiEncoderTrainer
from ..linking.crossencoder import CrossEncoderTrainer
from ..linking.dl4el import DL4ELTrainer
from ..meta.metablink import MetaBlinkTrainer
from ..meta.reweight import ExampleReweighter
from ..meta.seed import build_zero_shot_seed, few_shot_seed
from ..text.rouge import corpus_rouge_1_f1
from ..training.tasks import BiEncoderMetaTask
from ..utils.config import EncoderConfig, ExperimentConfig
from ..utils.logging import get_logger
from ..utils.rng import derive_seed

_LOGGER = get_logger("experiments")

# One shuffle seed per (table, domain) cell: rows of a cell differ by method,
# not by the order their batches were drawn in.
TABLE5_6_SEED = 1
TABLE7_SEED = 8
TABLE9_SEED = 13
FIGURE4_SEED = 16


def small_experiment_config(seed: int = 13) -> ExperimentConfig:
    """The scaled-down configuration used by benchmarks and examples.

    Model and corpus sizes are chosen so a full table reproduces in minutes on
    CPU while keeping the paper's structure (16 domains, 50-sample seeds,
    two-stage evaluation).
    """
    config = ExperimentConfig()
    encoder = EncoderConfig(model_dim=32, num_layers=1, num_heads=2, hidden_dim=64, max_length=40)
    cross_encoder = EncoderConfig(model_dim=32, num_layers=1, num_heads=2, hidden_dim=64, max_length=72)
    return replace(
        config,
        corpus=replace(config.corpus, entities_per_domain=30, mentions_per_domain=160, seed=seed),
        biencoder=replace(config.biencoder, encoder=encoder, epochs=2, batch_size=16,
                          learning_rate=5e-3, seed=seed),
        crossencoder=replace(config.crossencoder, encoder=cross_encoder, epochs=2, batch_size=4,
                             num_candidates=4, learning_rate=5e-3, seed=seed + 1),
        rewriter=replace(config.rewriter, model_dim=32, hidden_dim=64, max_source_length=40,
                         max_target_length=8, epochs=1, denoising_epochs=1, batch_size=16),
        recall_k=8,
        seed_size=50,
        dev_size=50,
        seed=seed,
    )


class ExperimentSuite:
    """Shared context for all experiment runners."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or small_experiment_config()
        self._corpus: Optional[Corpus] = None
        self._tokenizer = None
        self._splits: Optional[Dict[str, FewShotSplit]] = None
        self._bundles: Dict[str, SyntheticDataBundle] = {}
        self._general_pairs: Optional[List[EntityMentionPair]] = None

    # ------------------------------------------------------------------
    # Cached artefacts
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            self._corpus = generate_corpus(self.config.corpus)
        return self._corpus

    @property
    def tokenizer(self):
        if self._tokenizer is None:
            self._tokenizer = build_tokenizer_for_corpus(
                self.corpus, max_length=self.config.biencoder.encoder.max_length
            )
        return self._tokenizer

    @property
    def splits(self) -> Dict[str, FewShotSplit]:
        if self._splits is None:
            self._splits = split_all_test_domains(
                self.corpus,
                seed_size=self.config.seed_size,
                dev_size=self.config.dev_size,
                seed=self.config.seed,
            )
        return self._splits

    def bundle(self, domain: str, include_syn_star: bool = True) -> SyntheticDataBundle:
        """Exact-match / syn / syn* data for a domain (cached)."""
        key = f"{domain}:{include_syn_star}"
        if key not in self._bundles:
            self._bundles[key] = build_bundle(
                self.corpus,
                domain,
                tokenizer=self.tokenizer,
                rewriter_config=self.config.rewriter,
                per_entity=2,
                include_syn_star=include_syn_star,
                limit_per_domain=40,
                seed=self.config.seed,
            )
        return self._bundles[key]

    def general_pairs(self, limit_per_domain: int = 30) -> List[EntityMentionPair]:
        """Gold pairs from the 8 training (general) domains."""
        if self._general_pairs is None:
            self._general_pairs = source_domain_pairs(self.corpus, limit_per_domain=limit_per_domain)
        return self._general_pairs

    # ------------------------------------------------------------------
    # Training / evaluation helpers
    # ------------------------------------------------------------------
    def seed_pairs(self, domain: str) -> List[EntityMentionPair]:
        return few_shot_seed(
            pairs_from_mentions(self.corpus, domain, self.splits[domain].train, source="seed")
        )

    def _new_pipeline(self) -> BlinkPipeline:
        return BlinkPipeline(self.tokenizer, self.config.biencoder, self.config.crossencoder)

    def _evaluate(self, pipeline: BlinkPipeline, domain: str, mentions=None) -> Dict[str, float]:
        """Evaluate through the batched serving pipeline (one index build)."""
        from ..serving.pipeline import EntityLinkingPipeline
        from .protocol import evaluate_pipeline

        mentions = mentions if mentions is not None else self.splits[domain].test
        serving = EntityLinkingPipeline.from_blink(
            pipeline, entities=self.corpus.entities(domain), k=self.config.recall_k
        )
        result = evaluate_pipeline(serving, mentions)
        return result.metrics.rounded().as_dict()

    def train_blink(self, pairs: Sequence[EntityMentionPair], domain: str, seed: int = 0) -> BlinkPipeline:
        """Train a vanilla BLINK pipeline on the given pairs."""
        pipeline = self._new_pipeline()
        pipeline.train(
            pairs,
            candidate_pool=self.corpus.entities(domain),
            max_crossencoder_examples=60,
            seed=seed,
        )
        return pipeline

    def train_dl4el(self, pairs: Sequence[EntityMentionPair], domain: str, seed: int = 0) -> BlinkPipeline:
        """DL4EL baseline: denoising bi-encoder + standard cross-encoder."""
        pipeline = self._new_pipeline()
        DL4ELTrainer(pipeline.biencoder, self.config.biencoder).fit(pairs, seed=seed)
        examples = pipeline.ranking_examples(pairs, self.corpus.entities(domain), 60, seed=seed)
        CrossEncoderTrainer(pipeline.crossencoder, self.config.crossencoder).fit(examples, seed=seed)
        return pipeline

    def train_metablink(
        self,
        synthetic: Sequence[EntityMentionPair],
        seed_pairs: Sequence[EntityMentionPair],
        domain: str,
        seed: int = 0,
    ) -> MetaBlinkTrainer:
        """Train MetaBLINK (Algorithm 2) on synthetic + seed data."""
        trainer = MetaBlinkTrainer(
            self.tokenizer, self.config.biencoder, self.config.crossencoder, self.config.meta
        )
        trainer.train(
            synthetic,
            seed_pairs,
            candidate_pool=self.corpus.entities(domain),
            max_crossencoder_examples=60,
            seed=seed,
        )
        return trainer

    # ------------------------------------------------------------------
    # Figure 1 — accuracy degradation with less in-domain data
    # ------------------------------------------------------------------
    def run_figure1(
        self,
        domain: str = "yugioh",
        sizes: Sequence[int] = (0, 10, 25, 50),
    ) -> List[Dict[str, object]]:
        """U.Acc of a BLINK-style linker as the in-domain training set shrinks."""
        split = self.splits[domain]
        rows: List[Dict[str, object]] = []
        for size in sizes:
            if size == 0:
                pipeline = self._new_pipeline()  # untrained model
                eval_mentions = split.test
            else:
                train_mentions = sample_training_subset(split, size, self.corpus, seed=self.config.seed)
                pairs = pairs_from_mentions(self.corpus, domain, train_mentions, source="gold")
                pipeline = self.train_blink(pairs, domain, seed=size)
                eval_mentions = remaining_test_mentions(split, train_mentions)
            metrics = self._evaluate(pipeline, domain, mentions=eval_mentions)
            rows.append({"domain": DISPLAY_NAMES[domain], "train_size": size, **metrics})
        return rows

    # ------------------------------------------------------------------
    # Table II — qualitative errors of exact-match training
    # ------------------------------------------------------------------
    def run_table2_examples(self, domain: str = "yugioh", max_rows: int = 3) -> List[Dict[str, object]]:
        """Mentions the exact-match model gets wrong but the syn model gets right."""
        bundle = self.bundle(domain, include_syn_star=False)
        split = self.splits[domain]
        exact_pipeline = self.train_blink(bundle.exact_match, domain, seed=1)
        syn_pipeline = self.train_blink(bundle.syn, domain, seed=1)
        entities = self.corpus.entities(domain)
        exact_preds = exact_pipeline.predict(split.test, entities, k=self.config.recall_k)
        syn_preds = syn_pipeline.predict(split.test, entities, k=self.config.recall_k)

        index = self.corpus.domain(domain).entity_index
        rows: List[Dict[str, object]] = []
        for mention, exact_pred, syn_pred in zip(split.test, exact_preds, syn_preds):
            if len(rows) >= max_rows:
                break
            if exact_pred.correct or not syn_pred.correct:
                continue
            wrong_id = exact_pred.predicted_entity_id
            rows.append(
                {
                    "mention": mention.surface,
                    "context": mention.context[:80],
                    "gold_entity": index[mention.gold_entity_id].title,
                    "exact_match_prediction": index[wrong_id].title if wrong_id in index else str(wrong_id),
                    "syn_prediction": index[syn_pred.predicted_entity_id].title,
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Tables III and IV — dataset statistics and few-shot splits
    # ------------------------------------------------------------------
    def run_table3_statistics(self) -> List[Dict[str, object]]:
        """Per-domain entity counts grouped by split (Table III analogue)."""
        rows: List[Dict[str, object]] = []
        for name, data in sorted(self.corpus.domains.items(), key=lambda item: (item[1].split, item[0])):
            rows.append(
                {
                    "split": data.split,
                    "domain": DISPLAY_NAMES[name],
                    "entities": len(data.entities),
                    "mentions": len(data.mentions),
                }
            )
        return rows

    def run_table4_splits(self) -> List[Dict[str, object]]:
        """Few-shot train/dev/test sizes per test domain (Table IV)."""
        rows = table4_rows(self.splits)
        for row in rows:
            row["domain"] = DISPLAY_NAMES[str(row["domain"])]
        return rows

    # ------------------------------------------------------------------
    # Tables V and VI — few-shot entity linking in specific domains
    # ------------------------------------------------------------------
    def run_table5_6(
        self,
        domains: Sequence[str] = ("forgotten_realms", "lego"),
        methods: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, object]]:
        """The main few-shot comparison (Table V covers FR+Lego, VI covers ST+YuGiOh)."""
        all_methods = [
            "name_matching",
            "blink_seed",
            "blink_syn",
            "blink_syn_seed",
            "dl4el_syn_seed",
            "metablink_syn_seed",
            "metablink_synstar_seed",
        ]
        methods = list(methods) if methods is not None else all_methods
        rows: List[Dict[str, object]] = []
        for domain in domains:
            rows.extend(self._run_domain_method_rows(domain, methods))
        return rows

    def _run_domain_method_rows(self, domain: str, methods: Sequence[str]) -> List[Dict[str, object]]:
        from .protocol import evaluate_name_matching

        split = self.splits[domain]
        seed_pairs = self.seed_pairs(domain)
        needs_syn_star = "metablink_synstar_seed" in methods
        bundle = self.bundle(domain, include_syn_star=needs_syn_star)
        entities = self.corpus.entities(domain)
        rows: List[Dict[str, object]] = []

        seed = TABLE5_6_SEED
        for method in methods:
            _LOGGER.debug("running %s on %s", method, domain)
            if method == "name_matching":
                # No candidate-generation stage: only U.Acc exists for this row.
                metrics = {
                    **evaluate_name_matching(entities, split.test).rounded().as_dict(),
                    "recall": "n/a",
                    "normalized_accuracy": "n/a",
                }
            elif method == "blink_seed":
                metrics = self._evaluate(self.train_blink(seed_pairs, domain, seed=seed), domain)
            elif method == "blink_syn":
                metrics = self._evaluate(self.train_blink(bundle.syn, domain, seed=seed), domain)
            elif method == "blink_syn_seed":
                metrics = self._evaluate(
                    self.train_blink(bundle.syn + seed_pairs, domain, seed=seed), domain
                )
            elif method == "dl4el_syn_seed":
                metrics = self._evaluate(
                    self.train_dl4el(bundle.syn + seed_pairs, domain, seed=seed), domain
                )
            elif method == "metablink_syn_seed":
                trainer = self.train_metablink(bundle.syn, seed_pairs, domain, seed=seed)
                metrics = self._evaluate(trainer.pipeline, domain)
            elif method == "metablink_synstar_seed":
                trainer = self.train_metablink(bundle.syn_star, seed_pairs, domain, seed=seed)
                metrics = self._evaluate(trainer.pipeline, domain)
            else:
                raise KeyError(f"unknown method {method!r}")
            rows.append({"domain": DISPLAY_NAMES[domain], "method": method, **metrics})
        return rows

    # ------------------------------------------------------------------
    # Table VII — zero-shot domain transfer
    # ------------------------------------------------------------------
    def run_table7_transfer(
        self,
        domains: Sequence[str] = TEST_DOMAINS,
    ) -> List[Dict[str, object]]:
        """Zero-shot transfer: BLINK (general), +heuristic seed, MetaBLINK syn+seed."""
        rows: List[Dict[str, object]] = []
        general = self.general_pairs()
        for domain in domains:
            entities = self.corpus.entities(domain)
            bundle = self.bundle(domain, include_syn_star=False)
            heuristic_seed = build_zero_shot_seed(
                bundle.syn, entities, size=self.config.seed_size, seed=self.config.seed
            )

            base = self.train_blink(general, domain, seed=TABLE7_SEED)
            base_metrics = self._evaluate(base, domain)

            seeded = self.train_blink(general + heuristic_seed, domain, seed=TABLE7_SEED)
            seeded_metrics = self._evaluate(seeded, domain)

            meta = self.train_metablink(bundle.syn, heuristic_seed, domain, seed=TABLE7_SEED)
            meta_metrics = self._evaluate(meta.pipeline, domain)

            display = DISPLAY_NAMES[domain]
            rows.append({"domain": display, "method": "blink", **base_metrics})
            rows.append({"domain": display, "method": "blink_seed", **seeded_metrics})
            rows.append({"domain": display, "method": "metablink_syn_seed", **meta_metrics})
        return rows

    # ------------------------------------------------------------------
    # Table VIII — domain gap
    # ------------------------------------------------------------------
    def run_table8_gap(
        self,
        domains: Sequence[str] = TEST_DOMAINS,
        finetune_size: int = 100,
    ) -> List[Dict[str, object]]:
        """Gap = U.Acc(BLINK fine-tuned on in-domain data) − U.Acc(BLINK general)."""
        rows: List[Dict[str, object]] = []
        general = self.general_pairs()
        for domain in domains:
            split = self.splits[domain]
            base = self.train_blink(general, domain, seed=11)

            available = len(split.train) + len(split.test) - 10
            size = min(finetune_size, max(available, len(split.train)))
            train_mentions = sample_training_subset(split, size, self.corpus, seed=self.config.seed)
            in_domain = pairs_from_mentions(self.corpus, domain, train_mentions, source="gold")
            finetuned = self.train_blink(general + in_domain, domain, seed=12)

            eval_mentions = remaining_test_mentions(split, train_mentions)
            base_metrics = self._evaluate(base, domain, mentions=eval_mentions)
            finetuned_metrics = self._evaluate(finetuned, domain, mentions=eval_mentions)
            rows.append(
                {
                    "domain": DISPLAY_NAMES[domain],
                    "blink": base_metrics["unnormalized_accuracy"],
                    "blink_ft": finetuned_metrics["unnormalized_accuracy"],
                    "gap": round(
                        finetuned_metrics["unnormalized_accuracy"]
                        - base_metrics["unnormalized_accuracy"],
                        2,
                    ),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Table IX — transfer with different training sources
    # ------------------------------------------------------------------
    def run_table9_sources(
        self,
        domains: Sequence[str] = ("lego", "yugioh"),
    ) -> List[Dict[str, object]]:
        """Zero-shot transfer with different training-source combinations."""
        rows: List[Dict[str, object]] = []
        general = self.general_pairs()
        for domain in domains:
            entities = self.corpus.entities(domain)
            bundle = self.bundle(domain, include_syn_star=True)
            heuristic_seed = build_zero_shot_seed(
                bundle.syn, entities, size=self.config.seed_size, seed=self.config.seed
            )
            display = DISPLAY_NAMES[domain]

            configurations = [
                ("blink", None, False),
                ("blink_seed", general + heuristic_seed, False),
                ("metablink_syn_seed", bundle.syn, True),
                ("metablink_general_seed", general, True),
                ("metablink_general_syn_seed", general + bundle.syn, True),
                ("metablink_general_synstar_seed", general + bundle.syn_star, True),
            ]
            for name, data, is_meta in configurations:
                if name == "blink":
                    pipeline = self.train_blink(general, domain, seed=TABLE9_SEED)
                    metrics = self._evaluate(pipeline, domain)
                elif not is_meta:
                    pipeline = self.train_blink(data, domain, seed=TABLE9_SEED)
                    metrics = self._evaluate(pipeline, domain)
                else:
                    trainer = self.train_metablink(data, heuristic_seed, domain, seed=TABLE9_SEED)
                    metrics = self._evaluate(trainer.pipeline, domain)
                rows.append({"domain": display, "method": name, **metrics})
        return rows

    # ------------------------------------------------------------------
    # Figure 4 — effect of meta-learning on bad data
    # ------------------------------------------------------------------
    def run_figure4_selection(
        self,
        domain: str = "yugioh",
        noise_fraction: float = 0.5,
    ) -> Dict[str, float]:
        """Selection ratio of normal vs corrupted synthetic data (bi-encoder)."""
        bundle = self.bundle(domain, include_syn_star=False)
        seed_pairs = self.seed_pairs(domain)
        entities = self.corpus.entities(domain)

        # Warm up the bi-encoder so gradient alignment is informative, as it is
        # mid-training in Algorithm 1.
        biencoder = BiEncoder(self.config.biencoder, self.tokenizer)
        BiEncoderTrainer(biencoder, self.config.biencoder).fit(
            bundle.syn + seed_pairs, epochs=max(1, self.config.biencoder.epochs), seed=FIGURE4_SEED
        )

        mixed = mix_with_noise(bundle.syn, entities, fraction=noise_fraction, seed=self.config.seed)
        reweighter = ExampleReweighter(biencoder, BiEncoderMetaTask(biencoder), self.config.meta)
        ratios = reweighter.selection_ratio_by_source(
            mixed, seed_pairs, batch_size=self.config.meta.meta_batch_size, seed=FIGURE4_SEED
        )
        return {
            "normal_selected_ratio": round(ratios.get("rewritten", ratios.get("exact_match", 0.0)), 4),
            "bad_selected_ratio": round(ratios.get("noise", 0.0), 4),
        }

    # ------------------------------------------------------------------
    # Table X — effectiveness of mention rewriting
    # ------------------------------------------------------------------
    def run_table10_rewriting(
        self,
        domains: Sequence[str] = ("lego", "yugioh"),
    ) -> List[Dict[str, object]]:
        """Recall / N.Acc of BLINK trained on Exact Match vs Syn vs Syn* data."""
        rows: List[Dict[str, object]] = []
        for domain in domains:
            bundle = self.bundle(domain, include_syn_star=True)
            for source_name in ("exact_match", "syn", "syn_star"):
                data = bundle.by_name(source_name)
                metrics = self._evaluate(self.train_blink(data, domain, seed=18), domain)
                rows.append({"domain": DISPLAY_NAMES[domain], "data": source_name, **metrics})
        return rows

    # ------------------------------------------------------------------
    # Table XI — ROUGE-1 of generated mentions
    # ------------------------------------------------------------------
    def run_table11_rouge(
        self,
        domains: Sequence[str] = ("lego", "yugioh"),
        sample_size: int = 60,
    ) -> List[Dict[str, object]]:
        """ROUGE-1 F1 of Exact Match / Syn / Syn* mentions vs golden mentions."""
        rows: List[Dict[str, object]] = []
        for domain in domains:
            bundle = self.bundle(domain, include_syn_star=True)
            golden_pool = [mention.surface for mention in self.splits[domain].test]
            rng = np.random.default_rng(derive_seed(self.config.seed, "rouge", domain))
            row: Dict[str, object] = {"domain": DISPLAY_NAMES[domain]}
            for source_name in ("exact_match", "syn", "syn_star"):
                candidates = [pair.mention.surface for pair in bundle.by_name(source_name)]
                if not candidates:
                    row[source_name] = 0.0
                    continue
                size = min(sample_size, len(candidates), len(golden_pool))
                candidate_sample = [candidates[i] for i in rng.choice(len(candidates), size=size, replace=False)]
                golden_sample = [golden_pool[i] for i in rng.choice(len(golden_pool), size=size, replace=False)]
                row[source_name] = round(corpus_rouge_1_f1(candidate_sample, golden_sample), 2)
            rows.append(row)
        return rows
