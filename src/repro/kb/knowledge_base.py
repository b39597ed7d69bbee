"""Knowledge base ``G = {E, R, T}``: entities, relations and fact triples.

The paper defines a knowledge base as a directed graph whose nodes are
entities and whose edges are subject-property-object triples (Section II-A).
The synthetic corpus generator populates one :class:`KnowledgeBase` per
domain; the linking models only read entity titles/descriptions, while the
graph structure is used by corpus generation (related entities co-occur in
contexts) and available for downstream analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from .entity import Entity


@dataclass(frozen=True)
class Triple:
    """A fact triple (head entity id, relation, tail entity id)."""

    head: str
    relation: str
    tail: str


class KnowledgeBase:
    """A collection of entities plus a typed relation graph."""

    def __init__(self, name: str = "kb") -> None:
        self.name = name
        self._entities: Dict[str, Entity] = {}
        self._title_index: Dict[str, List[str]] = {}
        self._graph = nx.MultiDiGraph(name=name)

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    def add_entity(self, entity: Entity) -> None:
        """Add an entity; raises on duplicate ids."""
        if entity.entity_id in self._entities:
            raise KeyError(f"duplicate entity id {entity.entity_id!r}")
        self._entities[entity.entity_id] = entity
        self._graph.add_node(entity.entity_id)
        key = entity.title.lower()
        self._title_index.setdefault(key, []).append(entity.entity_id)

    def add_entities(self, entities: Iterable[Entity]) -> None:
        for entity in entities:
            self.add_entity(entity)

    def get(self, entity_id: str) -> Entity:
        if entity_id not in self._entities:
            raise KeyError(f"unknown entity id {entity_id!r}")
        return self._entities[entity_id]

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def entities(self, domain: Optional[str] = None) -> List[Entity]:
        """All entities, optionally filtered to one domain."""
        if domain is None:
            return list(self._entities.values())
        return [entity for entity in self._entities.values() if entity.domain == domain]

    def domains(self) -> List[str]:
        return sorted({entity.domain for entity in self._entities.values()})

    def find_by_title(self, title: str) -> List[Entity]:
        """Case-insensitive exact title lookup (used by Name Matching)."""
        return [self._entities[eid] for eid in self._title_index.get(title.lower(), [])]

    # ------------------------------------------------------------------
    # Relations / triples
    # ------------------------------------------------------------------
    def add_triple(self, head: str, relation: str, tail: str) -> Triple:
        """Add a fact triple; both endpoints must already exist."""
        if head not in self._entities:
            raise KeyError(f"unknown head entity {head!r}")
        if tail not in self._entities:
            raise KeyError(f"unknown tail entity {tail!r}")
        self._graph.add_edge(head, tail, relation=relation)
        return Triple(head=head, relation=relation, tail=tail)

    def triples(self) -> List[Triple]:
        return [
            Triple(head=head, relation=data.get("relation", ""), tail=tail)
            for head, tail, data in self._graph.edges(data=True)
        ]

    def relations(self) -> List[str]:
        return sorted({data.get("relation", "") for _, _, data in self._graph.edges(data=True)})

    def neighbors(self, entity_id: str) -> List[Entity]:
        """Entities directly connected to ``entity_id`` (either direction)."""
        if entity_id not in self._entities:
            raise KeyError(f"unknown entity id {entity_id!r}")
        ids = set(self._graph.successors(entity_id)) | set(self._graph.predecessors(entity_id))
        return [self._entities[eid] for eid in sorted(ids)]

    def degree(self, entity_id: str) -> int:
        return int(self._graph.degree(entity_id))

    # ------------------------------------------------------------------
    # Stats / export
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, int]:
        """Summary counts (entities, triples, relations, domains)."""
        return {
            "entities": len(self._entities),
            "triples": self._graph.number_of_edges(),
            "relations": len(self.relations()),
            "domains": len(self.domains()),
        }

    def subgraph(self, domain: str) -> "KnowledgeBase":
        """Return a new KB restricted to one domain (triples kept if both ends match)."""
        sub = KnowledgeBase(name=f"{self.name}:{domain}")
        sub.add_entities(self.entities(domain))
        for triple in self.triples():
            if triple.head in sub and triple.tail in sub:
                sub.add_triple(triple.head, triple.relation, triple.tail)
        return sub

    def to_records(self) -> List[Dict[str, str]]:
        """Entity payloads as plain dictionaries (for JSON export)."""
        return [entity.to_dict() for entity in self._entities.values()]

    @classmethod
    def from_records(
        cls,
        records: Sequence[Dict[str, str]],
        triples: Sequence[Tuple[str, str, str]] = (),
        name: str = "kb",
    ) -> "KnowledgeBase":
        kb = cls(name=name)
        kb.add_entities(Entity.from_dict(record) for record in records)
        for head, relation, tail in triples:
            kb.add_triple(head, relation, tail)
        return kb
