"""Name Matching baseline (Riedel et al., 2010; Table V/VI first row).

A mention is linked to an entity whose title (optionally with its
disambiguation phrase stripped) matches the mention's surface form exactly.
Mentions without a match are left unlinked, which is why this baseline's
accuracy roughly equals the fraction of High Overlap / Multiple Categories
samples in the evaluation set.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..kb.entity import Entity, Mention
from ..text.normalization import normalize_text, strip_disambiguation


class NameMatchingLinker:
    """Exact title lookup linker."""

    def __init__(self, entities: Sequence[Entity]) -> None:
        self._entities = list(entities)
        self._index: Dict[str, Entity] = {}
        for entity in self._entities:
            # First writer wins, mirroring the naive behaviour of the heuristic.
            for key in (normalize_text(entity.title), normalize_text(strip_disambiguation(entity.title))):
                if key and key not in self._index:
                    self._index[key] = entity

    def predict(self, mention: Mention) -> Optional[Entity]:
        """Return the matched entity or None when no title matches."""
        return self._index.get(normalize_text(mention.surface))

    def accuracy(self, mentions: Sequence[Mention]) -> float:
        """Unnormalised accuracy over mentions with gold labels."""
        labelled = [mention for mention in mentions if mention.gold_entity_id is not None]
        if not labelled:
            return 0.0
        hits = 0
        for mention in labelled:
            predicted = self.predict(mention)
            if predicted is not None and predicted.entity_id == mention.gold_entity_id:
                hits += 1
        return hits / len(labelled)

    def coverage(self, mentions: Sequence[Mention]) -> float:
        """Fraction of mentions for which *any* entity is predicted."""
        if not mentions:
            return 0.0
        return sum(1 for mention in mentions if self.predict(mention) is not None) / len(mentions)
