"""Mention linking: resolve a coarse-typed span against the knowledge base
and cluster the entity onto a fine subtype.

A ``Linker`` is built once per run: it holds, for each hierarchy root, the
classes a lookup hit must be an instance of and the directions of the root's
subtype names. The surface is resolved by label-then-alias lookup; for a
person/location/organization mention a hit counts only when it is an instance
of the category's class closure. The entity description is reduced once to a
direction and scored by average cosine similarity against each subtype name's
direction. The best subtype strictly above the similarity threshold wins;
every failure mode falls back to the coarse label so linking is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import (
    EmbeddingTable,
    direction_similarity,
    phrase_direction,
    phrase_similarity,  # noqa: F401  unused here; perfbench/spans.py traces it by this module
    tokenize,
)
from .kb import NARROWED_CATEGORIES, EntityRecord, KnowledgeBase, MissingClassRootsError
from .tagger import MentionSpan
from .taxonomy import TypeHierarchy


@dataclass
class LinkerConfig:
    """Knobs for the clustering step.

    ``class_roots`` maps a narrowable coarse label to the knowledge-base
    entity ids whose subclass closure defines that category (e.g. the
    "human" class for person).
    """

    threshold: float = 0.1
    class_roots: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        self.class_roots = {k: frozenset(v) for k, v in self.class_roots.items()}


class Linker:
    """What linking needs that does not change during a run, built once.

    For each hierarchy root it holds the lookup classes from one
    ``kb.narrow_candidates`` call (None for a category that is not narrowed)
    and, in document order, the root's subtypes whose name has a usable
    vector, each with that name's ``phrase_direction``. Construction fails
    unless every narrowable category among the roots has class roots
    configured, naming each missing ``class_roots.<root>``.
    """

    def __init__(self, kb: KnowledgeBase, hierarchy: TypeHierarchy, table: EmbeddingTable,
                 cfg: LinkerConfig):
        roots = hierarchy.roots
        missing = [f"class_roots.{root}" for root in roots
                   if root in NARROWED_CATEGORIES and not cfg.class_roots.get(root)]
        if missing:
            raise MissingClassRootsError("no class roots configured for narrowable categories:"
                                         f" set {', '.join(missing)}")
        self.kb, self.table, self.cfg = kb, table, cfg
        self.classes = {root: kb.narrow_candidates(root, cfg.class_roots) for root in roots}
        self.leaves: dict[str, list[tuple[str, np.ndarray]]] = {}
        for root in roots:
            directions = [(s, phrase_direction(tokenize(leaf), table))
                          for s, leaf in hierarchy.subtypes_of(root).items()]
            self.leaves[root] = [(s, leaf) for s, leaf in directions if leaf is not None]


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
    if coarse == "person":
        return list(entity.occupation)
    return list(entity.instance_of)


def cluster_to_subtype(
    linker: Linker, entity: EntityRecord, coarse: str
) -> tuple[str, float] | None:
    """Best subtype of the root ``coarse`` for the entity, with its similarity score.

    The entity description is tokenized and reduced once by
    ``phrase_direction``; each of the linker's subtype directions for
    ``coarse``, in hierarchy document order, is scored against it by
    ``direction_similarity``. When the description is empty, the labels of
    the candidate-field entities stand in for it. Only scores strictly above
    the threshold qualify; ties keep the earliest subtype. Returns None when
    nothing qualifies, no side has a usable vector, or ``coarse`` is no root.
    """
    leaves = linker.leaves.get(coarse, ())
    if not leaves:
        return None
    tokens = tokenize(entity.description)
    if not tokens:
        for linked_id in candidate_fields(entity, coarse):
            linked = linker.kb.records.get(linked_id)
            if linked is not None:
                tokens.extend(tokenize(linked.label))
    evidence = phrase_direction(tokens, linker.table)
    if evidence is None:
        return None
    best: tuple[str, float] | None = None
    for subtype, leaf in leaves:
        score = direction_similarity(evidence, leaf)
        if score > linker.cfg.threshold and (best is None or score > best[1]):
            best = (subtype, score)
    return best


def link_mention(linker: Linker, span: MentionSpan, tokens: list[str]) -> FineTypedMention:
    """Look up and cluster one mention; never fails.

    Coarse tags outside the hierarchy roots (date, cardinal, ...) bypass
    linking entirely. Lookup misses and below-threshold clusterings fall
    back to the coarse label, keeping whatever entity was resolved.
    """
    coarse = span.coarse
    if coarse not in linker.classes:
        return FineTypedMention(span, entity=None, fine_type=coarse, score=None)
    surface = " ".join(tokens[span.start : span.end])
    record = linker.kb.lookup(surface, classes=linker.classes[coarse])
    clustered = None if record is None else cluster_to_subtype(linker, record, coarse)
    fine_type, score = clustered or (coarse, None)
    entity = None if record is None else record.id
    return FineTypedMention(span, entity=entity, fine_type=fine_type, score=score)
