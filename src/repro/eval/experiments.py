"""Experiment runners: the paper's tables and figures as views over cells.

Every accuracy number of the paper is the same experiment — train a two-stage
linker on some combination of data sources for one domain, evaluate — so the
unit here is the *cell* ``(domain, Method, seed)``.  :meth:`ExperimentSuite.cell`
is the one place that trains, :meth:`ExperimentSuite.metrics` the one place
that evaluates; a ``run_table*`` / ``run_figure*`` only says which cells it
shows, as plain row dictionaries (ready for :func:`repro.eval.reporting.format_table`),
so one cell reads one number in every table that shows it.

The suite caches, in memory and for its own lifetime: the corpus, the
tokenizer, the few-shot splits, the pairs of each training source, the
trained cells and the serving pipeline over each.  A cached cell is shared by
every caller — read it (``predict``, ``metrics``, probe its gradients), never
train it further.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    build_exact_match_data,
    build_synthetic_data,
    build_tokenizer_for_corpus,
    source_domain_pairs,
    train_rewriter,
)
from ..kb.entity import EntityMentionPair, Mention
from ..linking.blink import BlinkPipeline
from ..linking.dl4el import DL4ELTrainer
from ..meta.metablink import MetaBlinkTrainer
from ..meta.reweight import ExampleReweighter
from ..meta.seed import build_zero_shot_seed, few_shot_seed
from ..serving.pipeline import EntityLinkingPipeline
from ..text.rouge import corpus_rouge_1_f1
from ..text.tokenizer import Tokenizer
from ..training.tasks import BiEncoderMetaTask
from ..utils.config import EncoderConfig, ExperimentConfig
from ..utils.rng import derive_seed
from .protocol import evaluate_name_matching, evaluate_pipeline

Row = Dict[str, object]

# The shuffle seed of every cell a table shows, and the seeds the directional
# check averages over (benchmarks/test_bench_seed_matrix.py).
CELL_SEED = 1
SEEDS = (1, 2, 3, 4, 5)

# Training-source names :meth:`ExperimentSuite.pairs` resolves.
SOURCES = ("seed", "exact_match", "syn", "syn_star", "general", "heuristic_seed", "gold:<size>")
SYNTHETIC_SOURCES = ("exact_match", "syn", "syn_star")


@dataclass(frozen=True)
class Method:
    """What a cell trains on and how a batch is weighted — the cell's identity.

    ``train`` names the sources concatenated into the training set (empty: the
    untrained model), ``weighting`` is ``unit`` (BLINK), ``dl4el`` (denoising
    bi-encoder) or ``meta`` (MetaBLINK, Algorithm 2), and ``guide`` names the
    clean set that steers a ``meta`` cell's weights.
    """

    train: Tuple[str, ...]
    weighting: str = "unit"
    guide: Optional[str] = None

    def __post_init__(self) -> None:
        if self.weighting not in ("unit", "dl4el", "meta"):
            raise ValueError(f"unknown weighting {self.weighting!r}")


# Row label → method, per table.  Labels are the paper's and are local to a
# table (``blink_seed`` is *seed only* in Table V and *general + heuristic
# seed* in Table VII); the Method is the identity.  ``None`` is the Name
# Matching heuristic: no model, so no cell.
TABLE5_6_METHODS: Dict[str, Optional[Method]] = {
    "name_matching": None,
    "blink_seed": Method(("seed",)),
    "blink_syn": Method(("syn",)),
    "blink_syn_seed": Method(("syn", "seed")),
    "dl4el_syn_seed": Method(("syn", "seed"), "dl4el"),
    "metablink_syn_seed": Method(("syn",), "meta", "seed"),
    "metablink_synstar_seed": Method(("syn_star",), "meta", "seed"),
}
TABLE7_METHODS: Dict[str, Method] = {
    "blink": Method(("general",)),
    "blink_seed": Method(("general", "heuristic_seed")),
    "metablink_syn_seed": Method(("syn",), "meta", "heuristic_seed"),
}
TABLE9_METHODS: Dict[str, Method] = {
    **TABLE7_METHODS,
    "metablink_general_seed": Method(("general",), "meta", "heuristic_seed"),
    "metablink_general_syn_seed": Method(("general", "syn"), "meta", "heuristic_seed"),
    "metablink_general_synstar_seed": Method(("general", "syn_star"), "meta", "heuristic_seed"),
}


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
        self._pairs: Dict[Tuple[Optional[str], str], List[EntityMentionPair]] = {}
        self._cells: Dict[Tuple[str, Method, int], BlinkPipeline] = {}
        # The serving pipeline over each cell, so its domain's KB is embedded once.
        self._serving: Dict[Tuple[str, Method, int], EntityLinkingPipeline] = {}

    # ------------------------------------------------------------------
    # Cached artefacts
    # ------------------------------------------------------------------
    @cached_property
    def corpus(self) -> Corpus:
        return generate_corpus(self.config.corpus)

    @cached_property
    def tokenizer(self) -> Tokenizer:
        return build_tokenizer_for_corpus(self.corpus, max_length=self.config.biencoder.encoder.max_length)

    @cached_property
    def splits(self) -> Dict[str, FewShotSplit]:
        return split_all_test_domains(
            self.corpus, seed_size=self.config.seed_size, dev_size=self.config.dev_size, seed=self.config.seed
        )

    def pairs(self, domain: str, source: str) -> List[EntityMentionPair]:
        """The training pairs a source name stands for in ``domain`` (cached).

        The one resolver of source names (:data:`SOURCES`).  ``general`` does
        not depend on the domain and is one list for all of them.
        """
        key = (None if source == "general" else domain, source)
        if key in self._pairs:
            return self._pairs[key]
        corpus, config = self.corpus, self.config
        if source == "seed":
            pairs = few_shot_seed(pairs_from_mentions(corpus, domain, self.splits[domain].train, source="seed"))
        elif source == "exact_match":
            pairs = build_exact_match_data(corpus, domain, per_entity=2, seed=config.seed)
        elif source in ("syn", "syn_star"):
            # build_bundle's recipe, one generator at a time: syn* adds the
            # denoising pass over the target domain's documents.
            star = source == "syn_star"
            rewriter = train_rewriter(
                corpus, self.tokenizer, target_domain=domain if star else None,
                config=config.rewriter, limit_per_domain=40,
                seed=config.seed + 1 if star else config.seed,
            )
            pairs = build_synthetic_data(corpus, domain, rewriter, exact_pairs=self.pairs(domain, "exact_match"))
        elif source == "general":
            pairs = source_domain_pairs(corpus, limit_per_domain=30)
        elif source == "heuristic_seed":
            pairs = build_zero_shot_seed(
                self.pairs(domain, "syn"), corpus.entities(domain),
                size=config.seed_size, seed=config.seed,
            )
        elif source.startswith("gold:"):
            # That many labelled in-domain mentions: the seed first, then drawn from test.
            size = int(source.partition(":")[2])
            mentions = sample_training_subset(self.splits[domain], size, corpus, seed=config.seed)
            pairs = pairs_from_mentions(corpus, domain, mentions, source="gold")
        else:
            raise KeyError(f"unknown source {source!r}; known: {', '.join(SOURCES)}")
        self._pairs[key] = pairs
        return pairs

    # ------------------------------------------------------------------
    # The cell: the one place that trains, the one place that evaluates
    # ------------------------------------------------------------------
    def cell(self, domain: str, method: Method, seed: int = CELL_SEED) -> BlinkPipeline:
        """The pipeline trained by ``method`` on ``domain`` with shuffle seed ``seed`` (cached)."""
        key = (domain, method, seed)
        if key in self._cells:
            return self._cells[key]
        config, pool = self.config, self.corpus.entities(domain)
        training = [pair for source in method.train for pair in self.pairs(domain, source)]
        if method.weighting == "meta":
            trainer = MetaBlinkTrainer(self.tokenizer, config.biencoder, config.crossencoder, config.meta)
            trainer.train(
                training, self.pairs(domain, method.guide),
                candidate_pool=pool, max_crossencoder_examples=60, seed=seed,
            )
            pipeline = trainer.pipeline
        else:
            pipeline = BlinkPipeline(self.tokenizer, config.biencoder, config.crossencoder)
            if method.weighting == "dl4el":
                DL4ELTrainer(pipeline.biencoder, config.biencoder).fit(training, seed=seed)
            if training:
                pipeline.train(
                    training, candidate_pool=pool, train_biencoder=method.weighting == "unit",
                    max_crossencoder_examples=60, seed=seed,
                )
        self._cells[key] = pipeline
        return pipeline

    def metrics(
        self,
        domain: str,
        method: Method,
        seed: int = CELL_SEED,
        mentions: Optional[Sequence[Mention]] = None,
    ) -> Dict[str, float]:
        """Recall@k / N.Acc / U.Acc of a cell on ``mentions`` (default: the test split),
        through the batched serving pipeline (one index build per cell, cached)."""
        key = (domain, method, seed)
        serving = self._serving.get(key)
        if serving is None:
            serving = self._serving[key] = EntityLinkingPipeline.from_blink(
                self.cell(domain, method, seed), entities=self.corpus.entities(domain), k=self.config.recall_k
            )
        mentions = self.splits[domain].test if mentions is None else mentions
        return evaluate_pipeline(serving, mentions).metrics.rounded().as_dict()

    def _method_rows(
        self,
        domains: Sequence[str],
        methods: Mapping[str, Optional[Method]],
        label: str = "method",
    ) -> List[Row]:
        """One row per (domain, labelled method): what Tables V–VII, IX and X are."""
        rows: List[Row] = []
        for domain in domains:
            for name, method in methods.items():
                if method is None:
                    # No candidate-generation stage: only U.Acc exists for this row.
                    scores = evaluate_name_matching(self.corpus.entities(domain), self.splits[domain].test)
                    metrics = {**scores.rounded().as_dict(), "recall": "n/a", "normalized_accuracy": "n/a"}
                else:
                    metrics = self.metrics(domain, method)
                rows.append({"domain": DISPLAY_NAMES[domain], label: name, **metrics})
        return rows

    # ------------------------------------------------------------------
    # Tables V–VII, IX, X — labelled methods per domain
    # ------------------------------------------------------------------
    def run_table5_6(
        self,
        domains: Sequence[str] = ("forgotten_realms", "lego"),
        methods: Optional[Sequence[str]] = None,
    ) -> List[Row]:
        """The main few-shot comparison (Table V covers FR+Lego, VI covers ST+YuGiOh)."""
        names = TABLE5_6_METHODS if methods is None else methods
        return self._method_rows(domains, {name: TABLE5_6_METHODS[name] for name in names})

    def run_table7_transfer(self, domains: Sequence[str] = TEST_DOMAINS) -> List[Row]:
        """Zero-shot transfer: BLINK (general), +heuristic seed, MetaBLINK syn+seed."""
        return self._method_rows(domains, TABLE7_METHODS)

    def run_table9_sources(self, domains: Sequence[str] = ("lego", "yugioh")) -> List[Row]:
        """Zero-shot transfer with different training-source combinations."""
        return self._method_rows(domains, TABLE9_METHODS)

    def run_table10_rewriting(self, domains: Sequence[str] = ("lego", "yugioh")) -> List[Row]:
        """Recall / N.Acc of BLINK trained on Exact Match vs Syn vs Syn* data."""
        methods = {source: Method((source,)) for source in SYNTHETIC_SOURCES}
        return self._method_rows(domains, methods, label="data")

    # ------------------------------------------------------------------
    # Figure 1, Table VIII — in-domain gold subsets, scored on the test mentions left over
    # ------------------------------------------------------------------
    def _held_out(self, domain: str, method: Method) -> List[Mention]:
        """The test mentions ``method`` does not train on."""
        used = [pair.mention for source in method.train for pair in self.pairs(domain, source)]
        return remaining_test_mentions(self.splits[domain], used)

    def run_figure1(
        self,
        domain: str = "yugioh",
        sizes: Sequence[int] = (0, 10, 25, 50),
    ) -> List[Row]:
        """U.Acc of a BLINK-style linker as the in-domain training set shrinks."""
        rows: List[Row] = []
        for size in sizes:
            method = Method((f"gold:{size}",) if size else ())
            metrics = self.metrics(domain, method, mentions=self._held_out(domain, method))
            rows.append({"domain": DISPLAY_NAMES[domain], "train_size": size, **metrics})
        return rows

    def run_table8_gap(
        self,
        domains: Sequence[str] = TEST_DOMAINS,
        finetune_size: int = 100,
    ) -> List[Row]:
        """Gap = U.Acc(BLINK fine-tuned on in-domain data) − U.Acc(BLINK general),
        both on the test mentions the fine-tuning did not see."""
        rows: List[Row] = []
        for domain in domains:
            split = self.splits[domain]
            available = len(split.train) + len(split.test) - 10
            size = min(finetune_size, max(available, len(split.train)))
            finetuned_on = Method(("general", f"gold:{size}"))
            held_out = self._held_out(domain, finetuned_on)
            blink, finetuned = (
                self.metrics(domain, method, mentions=held_out)["unnormalized_accuracy"]
                for method in (TABLE7_METHODS["blink"], finetuned_on)
            )
            rows.append(
                {
                    "domain": DISPLAY_NAMES[domain],
                    "blink": blink,
                    "blink_ft": finetuned,
                    "gap": round(finetuned - blink, 2),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Table II, Figure 4 — looking inside cached cells
    # ------------------------------------------------------------------
    def run_table2_examples(self, domain: str = "yugioh", max_rows: int = 3) -> List[Row]:
        """Mentions the exact-match model gets wrong but the syn model gets right."""
        test = self.splits[domain].test
        entities = self.corpus.entities(domain)
        exact_preds, syn_preds = (
            self.cell(domain, Method((source,))).predict(test, entities, k=self.config.recall_k)
            for source in ("exact_match", "syn")
        )
        index = self.corpus.domain(domain).entity_index
        rows: List[Row] = []
        for mention, exact_pred, syn_pred in zip(test, exact_preds, syn_preds):
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

    def run_figure4_selection(
        self,
        domain: str = "yugioh",
        noise_fraction: float = 0.5,
    ) -> Dict[str, float]:
        """Selection ratio of normal vs corrupted synthetic data (bi-encoder)."""
        syn, seed_pairs = self.pairs(domain, "syn"), self.pairs(domain, "seed")
        # Gradient alignment is informative on a warmed-up bi-encoder, as it is
        # mid-training in Algorithm 1: borrow the syn + seed cell's.  Probing
        # restores its parameters and mode; it is not trained here.
        biencoder = self.cell(domain, TABLE5_6_METHODS["blink_syn_seed"]).biencoder
        mixed = mix_with_noise(
            syn, self.corpus.entities(domain), fraction=noise_fraction, seed=self.config.seed
        )
        reweighter = ExampleReweighter(biencoder, BiEncoderMetaTask(biencoder), self.config.meta)
        ratios = reweighter.selection_ratio_by_source(
            mixed, seed_pairs, batch_size=self.config.meta.meta_batch_size, seed=CELL_SEED
        )
        return {
            "normal_selected_ratio": round(ratios.get("rewritten", ratios.get("exact_match", 0.0)), 4),
            "bad_selected_ratio": round(ratios.get("noise", 0.0), 4),
        }

    # ------------------------------------------------------------------
    # Tables III, IV, XI — the data alone
    # ------------------------------------------------------------------
    def run_table3_statistics(self) -> List[Row]:
        """Per-domain entity counts grouped by split (Table III analogue)."""
        rows: List[Row] = []
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

    def run_table4_splits(self) -> List[Row]:
        """Few-shot train/dev/test sizes per test domain (Table IV)."""
        rows = table4_rows(self.splits)
        for row in rows:
            row["domain"] = DISPLAY_NAMES[str(row["domain"])]
        return rows

    def run_table11_rouge(
        self,
        domains: Sequence[str] = ("lego", "yugioh"),
        sample_size: int = 60,
    ) -> List[Row]:
        """ROUGE-1 F1 of Exact Match / Syn / Syn* mentions vs golden mentions."""
        rows: List[Row] = []
        for domain in domains:
            golden_pool = [mention.surface for mention in self.splits[domain].test]
            rng = np.random.default_rng(derive_seed(self.config.seed, "rouge", domain))
            row: Row = {"domain": DISPLAY_NAMES[domain]}
            for source in SYNTHETIC_SOURCES:
                candidates = [pair.mention.surface for pair in self.pairs(domain, source)]
                size = min(sample_size, len(candidates), len(golden_pool))
                candidate_sample = [candidates[i] for i in rng.choice(len(candidates), size=size, replace=False)]
                golden_sample = [golden_pool[i] for i in rng.choice(len(golden_pool), size=size, replace=False)]
                row[source] = round(corpus_rouge_1_f1(candidate_sample, golden_sample), 2)
            rows.append(row)
        return rows
