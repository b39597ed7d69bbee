"""Unit tests for the synthetic Zeshel corpus generator and splits."""

import numpy as np
import pytest

from repro.data import (
    CATEGORY_PROPORTIONS,
    DEV_DOMAINS,
    OverlapCategory,
    TEST_DOMAINS,
    TRAIN_DOMAINS,
    WORLDS,
    ZeshelGenerator,
    category_distribution,
    categorize,
    domains_for_split,
    generate_corpus,
    get_world,
    pairs_from_mentions,
    sample_training_subset,
    split_all_test_domains,
    split_domain,
    table4_rows,
)
from repro.utils.config import CorpusConfig


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(CorpusConfig(entities_per_domain=40, mentions_per_domain=140, seed=7))


class TestWorldSpecs:
    def test_sixteen_domains(self):
        assert len(WORLDS) == 16

    def test_split_sizes_match_paper(self):
        assert len(TRAIN_DOMAINS) == 8
        assert len(DEV_DOMAINS) == 4
        assert len(TEST_DOMAINS) == 4

    def test_test_domains_are_papers(self):
        assert set(TEST_DOMAINS) == {"forgotten_realms", "lego", "star_trek", "yugioh"}

    def test_gap_ordering_matches_table8(self):
        # Lego / YuGiOh must be "far" domains, Forgotten Realms / Star Trek "near".
        assert get_world("lego").gap > get_world("forgotten_realms").gap
        assert get_world("yugioh").gap > get_world("star_trek").gap

    def test_unknown_domain_raises(self):
        with pytest.raises(KeyError):
            get_world("narnia")

    def test_domains_for_split_validation(self):
        with pytest.raises(ValueError):
            domains_for_split("bogus")


class TestCategorize:
    def test_high_overlap(self):
        assert categorize("Golden Master", "Golden Master") == OverlapCategory.HIGH_OVERLAP

    def test_multiple_categories(self):
        assert categorize("SORA", "SORA (satellite)") == OverlapCategory.MULTIPLE_CATEGORIES

    def test_ambiguous_substring(self):
        assert categorize("Master", "Golden Master") == OverlapCategory.AMBIGUOUS_SUBSTRING

    def test_low_overlap(self):
        assert categorize("the old one", "Golden Master") == OverlapCategory.LOW_OVERLAP

    def test_title_with_phrase_exact_match_is_high(self):
        assert categorize("SORA (satellite)", "SORA (satellite)") == OverlapCategory.HIGH_OVERLAP


class TestGeneratedCorpus:
    def test_all_domains_present(self, small_corpus):
        assert set(small_corpus.domains) == set(WORLDS)

    def test_mentions_link_to_domain_entities(self, small_corpus):
        for domain in TEST_DOMAINS:
            index = small_corpus.domain(domain).entity_index
            for mention in small_corpus.mentions(domain):
                assert mention.gold_entity_id in index

    def test_entity_ids_unique_across_corpus(self, small_corpus):
        ids = [entity.entity_id for data in small_corpus.domains.values() for entity in data.entities]
        assert len(ids) == len(set(ids))

    def test_deterministic_given_seed(self):
        config = CorpusConfig(entities_per_domain=20, mentions_per_domain=50, seed=3)
        first = ZeshelGenerator(config).generate(domains=["lego"])
        second = ZeshelGenerator(config).generate(domains=["lego"])
        assert [e.title for e in first.entities("lego")] == [e.title for e in second.entities("lego")]
        assert [m.surface for m in first.mentions("lego")] == [m.surface for m in second.mentions("lego")]

    def test_different_seeds_differ(self):
        first = ZeshelGenerator(CorpusConfig(entities_per_domain=20, mentions_per_domain=50, seed=1)).generate(["lego"])
        second = ZeshelGenerator(CorpusConfig(entities_per_domain=20, mentions_per_domain=50, seed=2)).generate(["lego"])
        assert [e.title for e in first.entities("lego")] != [e.title for e in second.entities("lego")]

    def test_low_overlap_is_majority_category(self, small_corpus):
        pairs = [(p.mention, p.entity) for p in small_corpus.pairs("yugioh")]
        distribution = category_distribution(pairs)
        assert distribution[OverlapCategory.LOW_OVERLAP] == max(distribution.values())

    def test_category_proportions_sum_to_one(self):
        assert sum(CATEGORY_PROPORTIONS.values()) == pytest.approx(1.0)

    def test_entity_scale_ordering(self, small_corpus):
        stats = small_corpus.statistics()
        assert stats["military"]["entities"] > stats["lego"]["entities"]
        assert stats["star_trek"]["entities"] > stats["yugioh"]["entities"]

    def test_descriptions_mention_keywords_in_context(self, small_corpus):
        # At least some mentions should share a content word with the gold
        # entity description; this is what makes linking learnable.
        shared = 0
        pairs = small_corpus.pairs("lego")
        for pair in pairs:
            description_tokens = set(pair.entity.description.lower().split())
            context_tokens = set(pair.mention.context.lower().split())
            if description_tokens & context_tokens - {"the", "of", "a", "in"}:
                shared += 1
        assert shared / len(pairs) > 0.5

    def test_documents_exist_for_every_domain(self, small_corpus):
        assert set(small_corpus.documents.domains()) == set(WORLDS)
        assert len(small_corpus.documents.texts("lego")) > 0

    def test_all_texts_nonempty(self, small_corpus):
        texts = small_corpus.all_texts()
        assert len(texts) > 1000
        assert all(isinstance(t, str) for t in texts[:50])

    def test_unknown_domain_raises(self, small_corpus):
        with pytest.raises(KeyError):
            small_corpus.domain("narnia")


class TestFewShotSplits:
    def test_split_sizes(self, small_corpus):
        split = split_domain(small_corpus, "lego", seed_size=50, dev_size=50)
        assert split.sizes()["train"] == 50
        assert split.sizes()["dev"] == 50
        assert split.sizes()["test"] == len(small_corpus.mentions("lego")) - 100

    def test_split_partitions_are_disjoint(self, small_corpus):
        split = split_domain(small_corpus, "yugioh")
        ids = [m.mention_id for m in split.train + split.dev + split.test]
        assert len(ids) == len(set(ids))

    def test_split_train_marked_as_seed(self, small_corpus):
        split = split_domain(small_corpus, "lego")
        assert all(m.source == "seed" for m in split.train)

    def test_split_requires_enough_mentions(self):
        corpus = generate_corpus(CorpusConfig(entities_per_domain=10, mentions_per_domain=30), domains=["lego"])
        with pytest.raises(ValueError):
            split_domain(corpus, "lego", seed_size=50, dev_size=50)

    def test_split_all_test_domains(self, small_corpus):
        splits = split_all_test_domains(small_corpus)
        assert set(splits) == set(TEST_DOMAINS)

    def test_table4_rows(self, small_corpus):
        rows = table4_rows(split_all_test_domains(small_corpus))
        assert len(rows) == 4
        assert all(row["train"] == 50 for row in rows)

    def test_sample_training_subset_small(self, small_corpus):
        split = split_domain(small_corpus, "lego")
        subset = sample_training_subset(split, 10, small_corpus)
        assert len(subset) == 10

    def test_sample_training_subset_large_draws_from_test(self, small_corpus):
        split = split_domain(small_corpus, "lego")
        subset = sample_training_subset(split, 80, small_corpus)
        assert len(subset) == 80
        assert len({m.mention_id for m in subset}) == 80

    def test_sample_training_subset_too_large(self, small_corpus):
        split = split_domain(small_corpus, "lego")
        with pytest.raises(ValueError):
            sample_training_subset(split, 10_000, small_corpus)

    def test_pairs_from_mentions(self, small_corpus):
        split = split_domain(small_corpus, "lego")
        pairs = pairs_from_mentions(small_corpus, "lego", split.train, source="seed")
        assert len(pairs) == 50
        assert all(pair.source == "seed" for pair in pairs)

