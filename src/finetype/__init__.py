"""Fine-grained named-entity typing toolkit.

Combines a coarse BIO sequence tagger, knowledge-base entity linking with
alias redirection, and cosine-similarity clustering onto a two-level type
hierarchy, plus an exact-match evaluation engine.
"""

from .embeddings import load_embeddings
from .kb import load_snapshot
from .linker import Linker, LinkerConfig, link_mention
from .tagger import MentionSpan
from .taxonomy import default_hierarchy_path, load_hierarchy

__version__ = "0.1.0"

__all__ = [
    "Linker",
    "LinkerConfig",
    "MentionSpan",
    "default_hierarchy_path",
    "link_mention",
    "load_embeddings",
    "load_hierarchy",
    "load_snapshot",
]
