"""Alias table mapping normalised surface forms to candidate entities.

The paper notes that many production linkers depend on powerful KB resources
such as alias tables and frequency statistics, which are *not* available in
specialised few-shot domains.  We still implement the structure because (a)
the Name Matching baseline is an alias lookup with only exact titles, and (b)
it provides a fast candidate-generation fallback for analysis.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from ..text.normalization import normalize_text, strip_disambiguation
from .entity import Entity
from .knowledge_base import KnowledgeBase


class AliasTable:
    """Surface form → [(entity_id, prior)] lookup with frequency priors."""

    def __init__(self) -> None:
        self._aliases: Dict[str, Dict[str, int]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_alias(self, surface: str, entity_id: str, count: int = 1) -> None:
        """Register ``surface`` as an alias of ``entity_id`` with a count."""
        key = normalize_text(surface)
        if not key:
            return
        bucket = self._aliases[key]
        bucket[entity_id] = bucket.get(entity_id, 0) + count

    @classmethod
    def from_knowledge_base(cls, kb: KnowledgeBase) -> "AliasTable":
        """Build a table from entity titles (with and without disambiguation)."""
        table = cls()
        for entity in kb:
            table.add_alias(entity.title, entity.entity_id)
            stripped = strip_disambiguation(entity.title)
            if stripped != entity.title:
                table.add_alias(stripped, entity.entity_id)
        return table

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, str]]) -> "AliasTable":
        """Build from (surface, entity_id) pairs, e.g. observed links."""
        table = cls()
        for surface, entity_id in pairs:
            table.add_alias(surface, entity_id)
        return table

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def candidates(self, surface: str, top_k: Optional[int] = None) -> List[Tuple[str, float]]:
        """Return (entity_id, prior probability) sorted by prior, best first."""
        key = normalize_text(surface)
        bucket = self._aliases.get(key, {})
        total = sum(bucket.values())
        if not total:
            return []
        ranked = sorted(bucket.items(), key=lambda item: (-item[1], item[0]))
        if top_k is not None:
            ranked = ranked[:top_k]
        return [(entity_id, count / total) for entity_id, count in ranked]

    def best(self, surface: str) -> Optional[str]:
        """Most frequent entity for a surface form, or None."""
        ranked = self.candidates(surface, top_k=1)
        return ranked[0][0] if ranked else None

    def lookup_entities(self, surface: str, kb: KnowledgeBase, top_k: Optional[int] = None) -> List[Entity]:
        """Resolve candidate ids through a knowledge base."""
        return [kb.get(entity_id) for entity_id, _ in self.candidates(surface, top_k=top_k) if entity_id in kb]

    def __len__(self) -> int:
        return len(self._aliases)

    def ambiguity(self) -> float:
        """Average number of entities per alias (1.0 = unambiguous table)."""
        if not self._aliases:
            return 0.0
        return sum(len(bucket) for bucket in self._aliases.values()) / len(self._aliases)
