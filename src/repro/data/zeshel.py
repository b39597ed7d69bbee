"""Synthetic Zeshel-substitute corpus generator.

The original benchmark is scraped from fandom.com wikis; so that the
reproduction needs no download, this module procedurally generates a corpus
with the same *structure*:

* 16 domains named and split exactly as in Table III (8 train / 4 dev / 4 test);
* each domain has its own entity dictionary with titles and descriptions;
* labelled mentions whose surface forms follow the paper's four overlap
  categories, with Low Overlap as the majority class;
* unlabelled domain documents for the rewriter's denoising task;
* a controllable "domain gap": test domains share more (Forgotten Realms,
  Star Trek) or less (Lego, YuGiOh) vocabulary with the training domains,
  which is what drives the transfer-gap analysis of Tables VII–IX.

Linking is learnable because every entity owns a small set of *keyword*
tokens that appear both in its description and in the contexts of its
mentions; surface forms alone are deliberately insufficient (Low Overlap
mentions use aliases that do not share tokens with the title).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kb.entity import Entity, EntityMentionPair, Mention
from ..utils.config import CorpusConfig
from ..utils.rng import derive_seed
from .categories import OverlapCategory
from .documents import Document, DocumentCollection
from .worlds import GENERAL_TOPICS, WORLDS, WorldSpec, get_world

# Target proportions of the four overlap categories among generated mentions.
# The paper observes that the majority of Zeshel samples are Low Overlap.
CATEGORY_PROPORTIONS: Dict[OverlapCategory, float] = {
    OverlapCategory.LOW_OVERLAP: 0.45,
    OverlapCategory.HIGH_OVERLAP: 0.25,
    OverlapCategory.AMBIGUOUS_SUBSTRING: 0.15,
    OverlapCategory.MULTIPLE_CATEGORIES: 0.15,
}

_DISAMBIGUATION_PHRASES = ("series", "character", "location", "episode", "item", "faction")

_DESCRIPTION_TEMPLATES = (
    "{title} is a {type_word} known for the {kw0} and the {kw1} in the {flavor} {general}",
    "{title} appears during the {kw0} {general} and commands the {kw1} near {related}",
    "{title} was first seen in the {flavor} {kw0} alongside {related} and the {kw1}",
    "{title} leads the {kw0} {type_word} and guards the {kw1} of the {flavor} {general}",
)

_CONTEXT_TEMPLATES = (
    ("during the {kw0} the", "joined the {kw1} against the {flavor} {general}"),
    ("the {general} of the {kw0} reached", "before the {kw1} could fall to the {flavor}"),
    ("many remember how", "defended the {kw0} with the {kw1} in that {general}"),
    ("after the {flavor} {general} the", "returned to the {kw0} carrying the {kw1}"),
    ("reports about the {kw0} say that", "was behind the {kw1} all along"),
)

_NICKNAME_PREFIXES = ("old", "young", "lost", "great", "silent", "crimson", "iron", "swift")
_NICKNAME_NOUNS = ("one", "wanderer", "founder", "champion", "outsider", "veteran", "stranger", "keeper")


@dataclass
class DomainData:
    """All generated material for one domain."""

    name: str
    split: str
    entities: List[Entity]
    mentions: List[Mention]
    documents: List[Document]

    @property
    def entity_index(self) -> Dict[str, Entity]:
        return {entity.entity_id: entity for entity in self.entities}


@dataclass
class Corpus:
    """The full 16-domain synthetic benchmark."""

    domains: Dict[str, DomainData]
    documents: DocumentCollection
    config: CorpusConfig

    def domain(self, name: str) -> DomainData:
        if name not in self.domains:
            known = ", ".join(sorted(self.domains))
            raise KeyError(f"unknown domain {name!r}; known: {known}")
        return self.domains[name]

    def mentions(self, domain: str) -> List[Mention]:
        return list(self.domain(domain).mentions)

    def entities(self, domain: str) -> List[Entity]:
        return list(self.domain(domain).entities)

    def pairs(self, domain: str) -> List[EntityMentionPair]:
        """Gold (mention, entity) pairs for one domain."""
        data = self.domain(domain)
        index = data.entity_index
        return [
            EntityMentionPair(mention=mention, entity=index[mention.gold_entity_id], source="gold")
            for mention in data.mentions
            if mention.gold_entity_id in index
        ]

    def domain_names(self, split: Optional[str] = None) -> List[str]:
        if split is None:
            return sorted(self.domains)
        return sorted(name for name, data in self.domains.items() if data.split == split)

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-domain entity / mention / document counts (Table III analogue)."""
        return {
            name: {
                "entities": len(data.entities),
                "mentions": len(data.mentions),
                "documents": len(data.documents),
            }
            for name, data in sorted(self.domains.items())
        }

    def all_texts(self) -> List[str]:
        """Every piece of text in the corpus (used to build tokenizer vocabularies)."""
        texts: List[str] = []
        for data in self.domains.values():
            for entity in data.entities:
                texts.append(entity.title)
                texts.append(entity.description)
            for mention in data.mentions:
                texts.append(mention.surface)
                texts.append(mention.context)
            for document in data.documents:
                texts.append(document.text)
        return texts


class ZeshelGenerator:
    """Procedural generator for the synthetic benchmark."""

    def __init__(self, config: Optional[CorpusConfig] = None) -> None:
        self.config = config or CorpusConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, domains: Optional[Sequence[str]] = None) -> Corpus:
        """Generate the corpus for ``domains`` (default: all 16 worlds)."""
        names = list(domains) if domains is not None else sorted(WORLDS)
        domain_data: Dict[str, DomainData] = {}
        collection = DocumentCollection()
        for name in names:
            data = self.generate_domain(name)
            domain_data[name] = data
            for document in data.documents:
                collection.add(document)
        return Corpus(domains=domain_data, documents=collection, config=self.config)

    def generate_domain(self, name: str) -> DomainData:
        """Generate entities, mentions and documents for one domain."""
        spec = get_world(name)
        rng = np.random.default_rng(derive_seed(self.config.seed, "domain", name))
        entity_count = max(8, int(round(self.config.entities_per_domain * spec.entity_scale)))
        # Test domains always get the full mention budget so the paper's
        # 50 / 50 / rest few-shot split (Table IV) is always possible.
        mention_scale = 1.0 if spec.split == "test" else max(spec.entity_scale, 0.6)
        mention_count = max(20, int(round(self.config.mentions_per_domain * mention_scale)))

        entities, aliases, keywords = self._generate_entities(spec, entity_count, rng)
        mentions = self._generate_mentions(spec, entities, aliases, keywords, mention_count, rng)
        documents = self._generate_documents(spec, entities, keywords, rng)
        return DomainData(
            name=name,
            split=spec.split,
            entities=entities,
            mentions=mentions,
            documents=documents,
        )

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    def _topic_word(self, spec: WorldSpec, rng: np.random.Generator) -> str:
        """Draw a topic word; ``spec.gap`` controls domain-specific probability."""
        if rng.random() < spec.gap:
            return str(rng.choice(spec.topics))
        return str(rng.choice(GENERAL_TOPICS))

    def _generate_entities(
        self,
        spec: WorldSpec,
        count: int,
        rng: np.random.Generator,
    ) -> Tuple[List[Entity], Dict[str, str], Dict[str, List[str]]]:
        entities: List[Entity] = []
        aliases: Dict[str, str] = {}
        keywords: Dict[str, List[str]] = {}
        used_titles: set = set()

        for index in range(count):
            entity_id = f"{spec.name}:{index}"
            entity_type = str(rng.choice(spec.entity_types))
            base_name = self._make_name(spec, rng, used_titles)
            has_phrase = rng.random() < 0.18
            title = f"{base_name} ({rng.choice(_DISAMBIGUATION_PHRASES)})" if has_phrase else base_name
            used_titles.add(base_name.lower())

            entity_keywords = self._make_keywords(spec, rng)
            keywords[entity_id] = entity_keywords
            aliases[entity_id] = self._make_alias(rng)

            description = self._make_description(
                spec, title, entity_type, entity_keywords, rng,
                related=self._related_title(entities, rng),
            )
            entities.append(
                Entity(
                    entity_id=entity_id,
                    title=title,
                    description=description,
                    domain=spec.name,
                    entity_type=entity_type,
                )
            )
        return entities, aliases, keywords

    def _make_name(self, spec: WorldSpec, rng: np.random.Generator, used: set) -> str:
        for _ in range(40):
            parts = rng.choice(spec.name_parts, size=int(rng.integers(1, 3)), replace=False)
            suffix = str(rng.choice(spec.topics)) if rng.random() < 0.5 else ""
            tokens = [str(part).capitalize() for part in parts]
            if suffix:
                tokens.append(suffix.capitalize())
            name = " ".join(tokens)
            if name.lower() not in used:
                return name
        # Fall back to a numbered name to guarantee uniqueness.
        return f"{str(rng.choice(spec.name_parts)).capitalize()} {rng.integers(0, 10_000)}"

    def _make_keywords(self, spec: WorldSpec, rng: np.random.Generator) -> List[str]:
        pool = list(spec.topics) + list(GENERAL_TOPICS)
        picked = rng.choice(len(pool), size=4, replace=False)
        return [pool[i] for i in picked]

    def _make_alias(self, rng: np.random.Generator) -> str:
        return f"the {rng.choice(_NICKNAME_PREFIXES)} {rng.choice(_NICKNAME_NOUNS)}"

    def _related_title(self, existing: List[Entity], rng: np.random.Generator) -> str:
        if not existing:
            return "the old order"
        return existing[int(rng.integers(0, len(existing)))].title

    def _make_description(
        self,
        spec: WorldSpec,
        title: str,
        entity_type: str,
        entity_keywords: List[str],
        rng: np.random.Generator,
        related: str,
    ) -> str:
        sentences = []
        for sentence_index in range(max(1, self.config.description_sentences)):
            template = _DESCRIPTION_TEMPLATES[int(rng.integers(0, len(_DESCRIPTION_TEMPLATES)))]
            sentences.append(
                template.format(
                    title=title,
                    type_word=entity_type,
                    kw0=entity_keywords[(2 * sentence_index) % len(entity_keywords)],
                    kw1=entity_keywords[(2 * sentence_index + 1) % len(entity_keywords)],
                    flavor=self._topic_word(spec, rng),
                    general=str(rng.choice(GENERAL_TOPICS)),
                    related=related,
                )
            )
        return ". ".join(sentences) + "."

    # ------------------------------------------------------------------
    # Mentions
    # ------------------------------------------------------------------
    def _generate_mentions(
        self,
        spec: WorldSpec,
        entities: List[Entity],
        aliases: Dict[str, str],
        keywords: Dict[str, List[str]],
        count: int,
        rng: np.random.Generator,
    ) -> List[Mention]:
        categories = list(CATEGORY_PROPORTIONS)
        probabilities = np.array([CATEGORY_PROPORTIONS[c] for c in categories])
        probabilities = probabilities / probabilities.sum()

        entities_with_phrase = [entity for entity in entities if "(" in entity.title]
        mentions: List[Mention] = []
        for index in range(count):
            category = categories[int(rng.choice(len(categories), p=probabilities))]
            # Multiple Categories requires a title with a disambiguation
            # phrase; sample the entity from that sub-pool when possible so
            # the generated distribution matches the target proportions.
            if category == OverlapCategory.MULTIPLE_CATEGORIES and entities_with_phrase:
                entity = entities_with_phrase[int(rng.integers(0, len(entities_with_phrase)))]
            else:
                entity = entities[int(rng.integers(0, len(entities)))]
            surface = self._surface_for_category(entity, aliases[entity.entity_id], category, rng)
            left, right = self._make_context(spec, entity, keywords[entity.entity_id], entities, rng)
            mentions.append(
                Mention(
                    mention_id=f"{spec.name}:m{index}",
                    surface=surface,
                    context_left=left,
                    context_right=right,
                    domain=spec.name,
                    gold_entity_id=entity.entity_id,
                    source="gold",
                )
            )
        return mentions

    def _surface_for_category(
        self,
        entity: Entity,
        alias: str,
        category: OverlapCategory,
        rng: np.random.Generator,
    ) -> str:
        title_tokens = entity.title.split()
        base_title = entity.title.split(" (")[0]
        if category == OverlapCategory.HIGH_OVERLAP:
            return entity.title
        if category == OverlapCategory.MULTIPLE_CATEGORIES:
            if "(" in entity.title:
                return base_title
            return entity.title
        if category == OverlapCategory.AMBIGUOUS_SUBSTRING:
            if len(title_tokens) > 1:
                return str(title_tokens[int(rng.integers(0, len(title_tokens) - 1))])
            return entity.title
        return alias

    def _make_context(
        self,
        spec: WorldSpec,
        entity: Entity,
        entity_keywords: List[str],
        entities: List[Entity],
        rng: np.random.Generator,
    ) -> Tuple[str, str]:
        left_template, right_template = _CONTEXT_TEMPLATES[int(rng.integers(0, len(_CONTEXT_TEMPLATES)))]
        values = {
            "kw0": entity_keywords[int(rng.integers(0, len(entity_keywords)))],
            "kw1": entity_keywords[int(rng.integers(0, len(entity_keywords)))],
            "flavor": self._topic_word(spec, rng),
            "general": str(rng.choice(GENERAL_TOPICS)),
        }
        left = left_template.format(**values)
        right = right_template.format(**values)
        # Occasionally mention another entity in the context, which is what
        # makes exact-match-only training fall into the shortcut the paper
        # describes (Table II).
        if len(entities) > 1 and rng.random() < 0.3:
            other = entities[int(rng.integers(0, len(entities)))]
            if other.entity_id != entity.entity_id:
                right = f"{right} together with {other.title.split(' (')[0].lower()}"
        return left, right

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _generate_documents(
        self,
        spec: WorldSpec,
        entities: List[Entity],
        keywords: Dict[str, List[str]],
        rng: np.random.Generator,
    ) -> List[Document]:
        documents: List[Document] = []
        count = max(4, len(entities) // 2)
        for index in range(count):
            entity = entities[int(rng.integers(0, len(entities)))]
            extra_topic = self._topic_word(spec, rng)
            body = (
                f"{entity.description} The {extra_topic} of {entity.title} remains part of the "
                f"{str(rng.choice(GENERAL_TOPICS))} records. Scholars of {spec.name.replace('_', ' ')} "
                f"still debate the {keywords[entity.entity_id][0]}."
            )
            documents.append(
                Document(
                    document_id=f"{spec.name}:d{index}",
                    domain=spec.name,
                    title=f"Notes on {entity.title}",
                    text=body,
                )
            )
        return documents


def generate_corpus(
    config: Optional[CorpusConfig] = None,
    domains: Optional[Sequence[str]] = None,
) -> Corpus:
    """Convenience wrapper: build a :class:`Corpus` from a config."""
    return ZeshelGenerator(config).generate(domains=domains)
