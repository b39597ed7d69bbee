"""Integration tests: the full MetaBLINK workflow on a tiny configuration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.eval import ExperimentSuite, compute_metrics, small_experiment_config
from repro.eval.experiments import CELL_SEED, TABLE5_6_METHODS, TABLE9_METHODS, Method
from repro.generation import MentionRewriter, build_bundle
from repro.linking import BiEncoder, BlinkPipeline, CrossEncoderTrainer, DL4ELTrainer
from repro.meta import MetaBlinkTrainer


@pytest.fixture(scope="module")
def tiny_suite():
    config = small_experiment_config(seed=7)
    config = replace(
        config,
        corpus=replace(config.corpus, entities_per_domain=20, mentions_per_domain=120),
        biencoder=replace(config.biencoder, epochs=1),
        crossencoder=replace(config.crossencoder, epochs=1),
        seed_size=20,
        dev_size=10,
        recall_k=4,
    )
    return ExperimentSuite(config)


def _count_calls(monkeypatch, owner, name, calls=None):
    """Wrap ``owner.name`` so every call appends to the returned list."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestExperimentSuiteCaching:
    def test_corpus_and_tokenizer_are_cached(self, tiny_suite):
        assert tiny_suite.corpus is tiny_suite.corpus
        assert tiny_suite.tokenizer is tiny_suite.tokenizer

    def test_bundle_is_cached_per_domain(self, tiny_suite, monkeypatch):
        """Each generator (syn, syn*) is trained once per domain, on first use."""
        fits = _count_calls(monkeypatch, MentionRewriter, "fit")
        suite = ExperimentSuite(tiny_suite.config)  # nothing cached yet, so the counts are exact
        syn = suite.pairs("yugioh", "syn")
        assert suite.pairs("yugioh", "syn") is syn and len(fits) == 1
        assert len(syn) == len(suite.pairs("yugioh", "exact_match"))
        star = suite.pairs("yugioh", "syn_star")
        assert suite.pairs("yugioh", "syn") is syn and suite.pairs("yugioh", "syn_star") is star
        assert len(fits) == 2

        # One source at a time is still build_bundle's recipe (what perf/ measures).
        bundle = build_bundle(
            suite.corpus, "yugioh", tokenizer=suite.tokenizer, rewriter_config=suite.config.rewriter,
            per_entity=2, include_syn_star=True, limit_per_domain=40, seed=suite.config.seed,
        )
        for source in ("exact_match", "syn", "syn_star"):
            assert suite.pairs("yugioh", source) == bundle.by_name(source)

    def test_every_source_resolves_on_every_test_domain(self, tiny_suite):
        methods = {**TABLE5_6_METHODS, **TABLE9_METHODS}.values()  # Table VII's are Table IX's first three
        sources = {s for method in methods if method for s in (*method.train, method.guide) if s}
        assert sources == {"seed", "syn", "syn_star", "general", "heuristic_seed"}
        for domain in tiny_suite.splits:
            for source in sorted(sources | {"exact_match", "gold:25"}):
                assert tiny_suite.pairs(domain, source), (domain, source)
        assert tiny_suite.pairs("lego", "general") is tiny_suite.pairs("yugioh", "general")
        assert len(tiny_suite.pairs("lego", "gold:25")) == 25
        with pytest.raises(KeyError, match="known: seed, exact_match, syn, syn_star, general, heuristic_seed"):
            tiny_suite.pairs("lego", "silver")

    def test_splits_cover_all_test_domains(self, tiny_suite):
        assert set(tiny_suite.splits) == {"forgotten_realms", "lego", "star_trek", "yugioh"}


class TestStaticExperiments:
    def test_table3_lists_all_sixteen_domains(self, tiny_suite):
        rows = tiny_suite.run_table3_statistics()
        assert len(rows) == 16
        assert {row["split"] for row in rows} == {"train", "dev", "test"}

    def test_table4_split_sizes(self, tiny_suite):
        rows = tiny_suite.run_table4_splits()
        assert len(rows) == 4
        assert all(row["train"] == 20 for row in rows)

    def test_table11_rouge_direction(self, tiny_suite):
        rows = tiny_suite.run_table11_rouge(domains=["yugioh"], sample_size=30)
        row = rows[0]
        # Rewritten mentions should look more like natural mentions than raw titles.
        assert row["syn"] >= row["exact_match"]


class TestTrainedExperiments:
    def test_figure1_shape(self, tiny_suite):
        rows = tiny_suite.run_figure1(domain="yugioh", sizes=(0, 20))
        assert [row["train_size"] for row in rows] == [0, 20]
        trained = rows[-1]["unnormalized_accuracy"]
        untrained = rows[0]["unnormalized_accuracy"]
        assert trained >= untrained

    def test_figure4_selection_ratios(self, tiny_suite):
        result = tiny_suite.run_figure4_selection(domain="yugioh")
        assert set(result) == {"normal_selected_ratio", "bad_selected_ratio"}
        assert 0.0 <= result["bad_selected_ratio"] <= 1.0
        assert result["bad_selected_ratio"] <= result["normal_selected_ratio"] + 0.15

    def test_table5_rows_well_formed(self, tiny_suite):
        rows = tiny_suite.run_table5_6(
            domains=["yugioh"], methods=["name_matching", "blink_seed", "metablink_syn_seed"]
        )
        assert len(rows) == 3
        for row in rows:
            assert 0.0 <= row["unnormalized_accuracy"] <= 100.0
        meta_row = rows[-1]
        assert meta_row["method"] == "metablink_syn_seed"
        assert meta_row["recall"] > 0.0

    def test_metrics_consistency_on_pipeline_output(self, tiny_suite):
        domain = "lego"
        pipeline = tiny_suite.cell(domain, TABLE5_6_METHODS["blink_seed"])
        predictions = pipeline.predict(
            tiny_suite.splits[domain].test[:20], tiny_suite.corpus.entities(domain), k=4
        )
        metrics = compute_metrics(predictions)
        assert metrics.num_examples == 20
        assert metrics.unnormalized_accuracy <= metrics.recall + 1e-9


def _parameters(pipeline):
    return np.concatenate([pipeline.biencoder.flatten_parameters(), pipeline.crossencoder.flatten_parameters()])


class TestCells:
    def test_cell_is_cached_per_domain_method_seed(self, tiny_suite):
        method = TABLE5_6_METHODS["blink_seed"]
        cell = tiny_suite.cell("lego", method)
        assert tiny_suite.cell("lego", method) is cell
        assert tiny_suite.cell("lego", Method(("seed",)), seed=CELL_SEED) is cell
        assert tiny_suite.cell("lego", method, seed=CELL_SEED + 1) is not cell
        with pytest.raises(ValueError, match="weighting"):
            Method(("seed",), "Meta", "seed")

    def test_tables_sharing_a_cell_train_it_once_and_read_one_number(self, tiny_suite, monkeypatch):
        trained = _count_calls(monkeypatch, BlinkPipeline, "train", _count_calls(monkeypatch, MetaBlinkTrainer, "train"))
        domain = "star_trek"  # no other test of this module trains a cell here, so the count is exact
        table7 = tiny_suite.run_table7_transfer(domains=[domain])
        table9 = tiny_suite.run_table9_sources(domains=[domain])
        assert len(trained) == 6  # not 3 + 6
        assert table9[:3] == table7

        table6 = tiny_suite.run_table5_6(domains=[domain], methods=["blink_syn"])
        table10 = tiny_suite.run_table10_rewriting(domains=[domain])
        assert len(trained) == 6 + 3
        syn_row = {**table10[1], "method": "blink_syn"}
        assert syn_row.pop("data") == "syn" and syn_row == table6[0]

    @pytest.mark.parametrize("label", ["blink_syn_seed", "dl4el_syn_seed", "metablink_syn_seed"])
    def test_cell_recipe_is_the_trainers_written_out(self, tiny_suite, label):
        domain, seed = "lego", 3
        config, tokenizer = tiny_suite.config, tiny_suite.tokenizer
        pool = tiny_suite.corpus.entities(domain)
        syn, seed_pairs = tiny_suite.pairs(domain, "syn"), tiny_suite.pairs(domain, "seed")
        if label == "metablink_syn_seed":
            trainer = MetaBlinkTrainer(tokenizer, config.biencoder, config.crossencoder, config.meta)
            trainer.train(syn, seed_pairs, candidate_pool=pool, max_crossencoder_examples=60, seed=seed)
            reference = trainer.pipeline
        else:
            reference = BlinkPipeline(tokenizer, config.biencoder, config.crossencoder)
            pairs = syn + seed_pairs
            if label == "dl4el_syn_seed":
                DL4ELTrainer(reference.biencoder, config.biencoder).fit(pairs, seed=seed)
                examples = reference.ranking_examples(pairs, pool, 60, seed=seed)
                CrossEncoderTrainer(reference.crossencoder, config.crossencoder).fit(examples, seed=seed)
            else:
                reference.train(pairs, candidate_pool=pool, max_crossencoder_examples=60, seed=seed)
        cell = tiny_suite.cell(domain, TABLE5_6_METHODS[label], seed=seed)
        assert np.array_equal(_parameters(cell), _parameters(reference))

    def test_metrics_embed_a_cells_kb_once(self, tiny_suite, monkeypatch):
        method = Method(())  # untrained, so nothing to train; no other test evaluates it on lego
        embeds = _count_calls(monkeypatch, BiEncoder, "embed_entities")
        metrics = tiny_suite.metrics("lego", method)
        embedded = len(embeds)
        assert embedded > 0
        assert tiny_suite.metrics("lego", method) == metrics
        assert len(embeds) == embedded

    def test_figure4_leaves_the_cell_it_borrows_unchanged(self, tiny_suite):
        method = TABLE5_6_METHODS["blink_syn_seed"]
        cell = tiny_suite.cell("yugioh", method)
        parameters, mode = _parameters(cell), cell.biencoder.training
        metrics = tiny_suite.metrics("yugioh", method)
        tiny_suite.run_figure4_selection(domain="yugioh")
        assert tiny_suite.cell("yugioh", method) is cell
        assert np.array_equal(_parameters(cell), parameters) and cell.biencoder.training == mode
        assert tiny_suite.metrics("yugioh", method) == metrics
