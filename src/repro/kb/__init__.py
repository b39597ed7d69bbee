"""Knowledge-base substrate: entities, mentions and (mention, entity) pairs."""

from .entity import Entity, EntityMentionPair, Mention

__all__ = [
    "Entity",
    "Mention",
    "EntityMentionPair",
]
