"""Unit tests for the knowledge-base substrate."""

from repro.kb import Entity, EntityMentionPair, Mention


def make_entity(idx, domain="lego", title=None):
    return Entity(
        entity_id=f"{domain}:{idx}",
        title=title or f"Brick Set {idx}",
        description=f"description of entity {idx} in {domain}",
        domain=domain,
    )


def make_mention(idx, entity_id, domain="lego", surface="Brick Set"):
    return Mention(
        mention_id=f"{domain}:m{idx}",
        surface=surface,
        context_left="in the review of",
        context_right="fans praised the build",
        domain=domain,
        gold_entity_id=entity_id,
    )


class TestEntityAndMention:
    def test_entity_roundtrip(self):
        entity = make_entity(1)
        assert Entity.from_dict(entity.to_dict()) == entity

    def test_mention_roundtrip(self):
        mention = make_mention(1, "lego:1")
        assert Mention.from_dict(mention.to_dict()) == mention

    def test_mention_context_joins_parts(self):
        mention = make_mention(1, "lego:1")
        assert "in the review of Brick Set fans praised" in mention.context

    def test_with_surface_returns_new_mention(self):
        mention = make_mention(1, "lego:1")
        rewritten = mention.with_surface("the classic set", source="rewritten")
        assert rewritten.surface == "the classic set"
        assert rewritten.source == "rewritten"
        assert mention.surface == "Brick Set"

    def test_pair_reweighted(self):
        pair = EntityMentionPair(mention=make_mention(1, "lego:1"), entity=make_entity(1))
        assert pair.reweighted(0.25).weight == 0.25
        assert pair.weight == 1.0

    def test_pair_relabelled(self):
        pair = EntityMentionPair(mention=make_mention(1, "lego:1"), entity=make_entity(1))
        noisy = pair.relabelled(make_entity(2), source="noise")
        assert noisy.entity.entity_id == "lego:2"
        assert noisy.source == "noise"

