"""Fine-grained named-entity typing toolkit.

Combines a coarse BIO sequence tagger, knowledge-base entity linking with
alias redirection, and cosine-similarity clustering onto a two-level type
hierarchy, plus an exact-match evaluation engine.
"""

from .embeddings import EmbeddingTable, load_embeddings, phrase_similarity, tokenize
from .evaluation import (
    Counts,
    EvalReport,
    MatchCounts,
    build_report,
    macro_f1,
    match_exact,
    micro_f1,
    precision_recall_f1,
)
from .kb import EntityRecord, KnowledgeBase, ingest_snapshot, load_snapshot
from .linker import FineTypedMention, LinkerConfig, cluster_to_subtype, link_mention
from .tagger import (
    MentionSpan,
    SequenceExample,
    TaggerConfig,
    TaggerModel,
    extract_spans,
    tags_of_spans,
    train,
)
from .taxonomy import TypeHierarchy, TypeLabel, default_hierarchy_path, load_hierarchy

__version__ = "0.1.0"

__all__ = [
    "Counts",
    "EmbeddingTable",
    "EntityRecord",
    "EvalReport",
    "FineTypedMention",
    "KnowledgeBase",
    "LinkerConfig",
    "MatchCounts",
    "MentionSpan",
    "SequenceExample",
    "TaggerConfig",
    "TaggerModel",
    "TypeHierarchy",
    "TypeLabel",
    "build_report",
    "cluster_to_subtype",
    "default_hierarchy_path",
    "extract_spans",
    "ingest_snapshot",
    "link_mention",
    "load_embeddings",
    "load_hierarchy",
    "load_snapshot",
    "macro_f1",
    "match_exact",
    "micro_f1",
    "phrase_similarity",
    "precision_recall_f1",
    "tags_of_spans",
    "tokenize",
    "train",
]
