"""Mention linking: resolve a coarse-typed span against the knowledge base
and cluster the entity onto a fine subtype.

The surface is resolved by label-then-alias lookup; for a
person/location/organization mention a hit counts only when it is an instance
of the category's class closure. The entity description is scored by average
cosine similarity against each candidate subtype name. The best subtype
strictly above the similarity threshold wins; every failure mode falls back to
the coarse label so linking is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embeddings import (
    PAIRWISE_MEAN,
    SIMILARITY_MODES,
    EmbeddingTable,
    phrase_similarity,
    tokenize,
)
from .kb import NARROWED_CATEGORIES, EntityRecord, KnowledgeBase, MissingClassRootsError
from .tagger import MentionSpan
from .taxonomy import TypeHierarchy, TypeLabel


@dataclass
class LinkerConfig:
    """Knobs for the clustering step.

    ``class_roots`` maps a narrowable coarse label to the knowledge-base
    entity ids whose subclass closure defines that category (e.g. the
    "human" class for person).
    """

    threshold: float = 0.1
    class_roots: dict[str, frozenset[int]] = field(default_factory=dict)
    similarity_mode: str = PAIRWISE_MEAN

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.similarity_mode not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode: {self.similarity_mode!r}")
        self.class_roots = {k: frozenset(v) for k, v in self.class_roots.items()}


def require_class_roots(hierarchy: TypeHierarchy, cfg: LinkerConfig) -> None:
    """Fail unless every narrowable category among the hierarchy roots has
    class roots configured; linking a mention of it would fail otherwise."""
    missing = [
        f"class_roots.{root}" for root in map(str, hierarchy.roots)
        if root in NARROWED_CATEGORIES and not cfg.class_roots.get(root)
    ]
    if missing:
        raise MissingClassRootsError(
            f"no class roots configured for narrowable categories: set {', '.join(missing)}"
        )


@dataclass(frozen=True)
class FineTypedMention:
    """A linked mention: fine_type is a child of the span's coarse label, or
    the coarse label itself on fallback; score accompanies clustered subtypes
    only."""

    span: MentionSpan
    entity: int | None
    fine_type: str
    score: float | None


def candidate_fields(entity: EntityRecord, coarse: str) -> list[int]:
    """Typing evidence links: occupation for person, instance-of otherwise."""
    if str(coarse) == "person":
        return list(entity.occupation)
    return list(entity.instance_of)


def cluster_to_subtype(
    entity: EntityRecord,
    coarse: str,
    hierarchy: TypeHierarchy,
    table: EmbeddingTable,
    cfg: LinkerConfig,
    kb: KnowledgeBase | None = None,
) -> tuple[TypeLabel, float] | None:
    """Best subtype of ``coarse`` for the entity, with its similarity score.

    The entity description is tokenized and scored against each subtype name
    in hierarchy document order; when the description is empty and ``kb`` is
    given, the labels of the candidate-field entities stand in for it. Only
    scores strictly above the threshold qualify; ties keep the earliest
    subtype. Returns None when nothing qualifies or every score is undefined.
    """
    subtypes = hierarchy.subtypes_of(coarse)
    if not subtypes:
        return None
    evidence = tokenize(entity.description)
    if not evidence and kb is not None:
        for linked_id in candidate_fields(entity, coarse):
            linked = kb.records.get(linked_id)
            if linked is not None:
                evidence.extend(tokenize(linked.label))
    if not evidence:
        return None
    best: tuple[TypeLabel, float] | None = None
    for subtype in subtypes:
        score = phrase_similarity(
            evidence, tokenize(subtype.leaf), table, cfg.similarity_mode
        )
        if score is None or score <= cfg.threshold:
            continue
        if best is None or score > best[1]:
            best = (subtype, score)
    return best


def link_mention(
    span: MentionSpan,
    tokens: list[str],
    kb: KnowledgeBase,
    hierarchy: TypeHierarchy,
    table: EmbeddingTable,
    cfg: LinkerConfig,
) -> FineTypedMention:
    """Narrow, look up, and cluster one mention; never fails.

    Coarse tags outside the hierarchy roots (date, cardinal, ...) bypass
    linking entirely. Lookup misses and below-threshold clusterings fall
    back to the coarse label, keeping whatever entity was resolved.
    """
    coarse = str(span.coarse)
    if not hierarchy.is_root(coarse):
        return FineTypedMention(span, entity=None, fine_type=coarse, score=None)
    surface = " ".join(tokens[span.start : span.end])
    record = kb.lookup(surface, classes=kb.narrow_candidates(coarse, cfg.class_roots))
    if record is None:
        return FineTypedMention(span, entity=None, fine_type=coarse, score=None)
    clustered = cluster_to_subtype(record, coarse, hierarchy, table, cfg, kb=kb)
    if clustered is None:
        return FineTypedMention(span, entity=record.id, fine_type=coarse, score=None)
    subtype, score = clustered
    return FineTypedMention(span, entity=record.id, fine_type=subtype, score=score)
