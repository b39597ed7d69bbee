"""Dataset substrate: the synthetic Zeshel-substitute benchmark."""

from .categories import OverlapCategory, categorize, categorize_pair, category_distribution
from .documents import Document, DocumentCollection
from .few_shot import (
    FewShotSplit,
    pairs_from_mentions,
    remaining_test_mentions,
    sample_training_subset,
    split_all_test_domains,
    split_domain,
    table4_rows,
)
from .worlds import (
    DEV_DOMAINS,
    DISPLAY_NAMES,
    TEST_DOMAINS,
    TRAIN_DOMAINS,
    WORLDS,
    WorldSpec,
    domains_for_split,
    get_world,
)
from .zeshel import CATEGORY_PROPORTIONS, Corpus, DomainData, ZeshelGenerator, generate_corpus

__all__ = [
    "OverlapCategory",
    "categorize",
    "categorize_pair",
    "category_distribution",
    "Document",
    "DocumentCollection",
    "FewShotSplit",
    "split_domain",
    "split_all_test_domains",
    "sample_training_subset",
    "remaining_test_mentions",
    "pairs_from_mentions",
    "table4_rows",
    "WorldSpec",
    "WORLDS",
    "TRAIN_DOMAINS",
    "DEV_DOMAINS",
    "TEST_DOMAINS",
    "DISPLAY_NAMES",
    "get_world",
    "domains_for_split",
    "Corpus",
    "DomainData",
    "ZeshelGenerator",
    "generate_corpus",
    "CATEGORY_PROPORTIONS",
]
