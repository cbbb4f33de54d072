"""Word-vector table plus the cosine machinery that drives subtype clustering."""

from __future__ import annotations

import logging
import os
import re
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

PAIRWISE_MEAN = "pairwise-mean"
MEAN_VECTOR = "mean-vector"
SIMILARITY_MODES = (PAIRWISE_MEAN, MEAN_VECTOR)

# Lowercase word tokens: unicode letters/digits, no underscores, no stemming.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmbeddingError(ValueError):
    """Malformed embedding file or invalid similarity input."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, matching the table's vocabulary style."""
    return _TOKEN_RE.findall(text.lower())


class EmbeddingTable:
    """token -> dense vector store with a fixed dimension, immutable after load."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        if dim < 1:
            raise EmbeddingError(f"dimension must be positive, got {dim}")
        for token, vec in vectors.items():
            if vec.shape != (dim,):
                raise EmbeddingError(f"vector for {token!r} has length {vec.shape[0]}, expected {dim}")
        self.dim = dim
        self._vectors = {tok: np.asarray(vec, dtype=float) for tok, vec in vectors.items()}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._vectors

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token.lower())

    def tokens(self) -> list[str]:
        return list(self._vectors)


def parse_embeddings(lines: Iterable[str]) -> EmbeddingTable:
    """Parse one ``token v1 .. vd`` entry per line.

    An optional first line ``COUNT DIM`` (two integers) declares the shape up
    front. The dimension is otherwise fixed by the first entry; any later
    mismatch is an error citing the line. Duplicate tokens keep the last
    occurrence and emit a warning.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    declared_count: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if dim is None and not vectors and len(parts) == 2:
            try:
                declared_count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if dim < 1:
                    raise EmbeddingError(f"line {lineno}: declared dimension must be positive")
                continue
        token = parts[0].lower()
        try:
            values = np.array([float(v) for v in parts[1:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise EmbeddingError(f"line {lineno}: entry has no vector values")
        if len(values) != dim:
            raise EmbeddingError(
                f"line {lineno}: expected {dim} values for {token!r}, found {len(values)}"
            )
        if token in vectors:
            log.warning("duplicate token %r at line %d: keeping the last occurrence", token, lineno)
        vectors[token] = values
    if dim is None or not vectors:
        raise EmbeddingError("embedding file contains no entries")
    if declared_count is not None and declared_count != len(vectors):
        log.warning("header declared %d entries, file contains %d", declared_count, len(vectors))
    return EmbeddingTable(dim, vectors)


def load_embeddings(path: str | os.PathLike[str]) -> EmbeddingTable:
    with open(path, encoding="utf-8") as fh:
        return parse_embeddings(fh)


def phrase_direction(
    tokens: Sequence[str], table: EmbeddingTable, mode: str = PAIRWISE_MEAN
) -> np.ndarray | None:
    """One token list reduced to the vector that ``phrase_similarity`` dots.

    The default mode averages the unit vectors of the tokens; the alternative
    normalizes their mean vector to unit length. Out-of-vocabulary tokens and
    zero vectors, which carry no direction, are skipped; the result is None
    when no token has a usable vector.
    """
    if mode not in SIMILARITY_MODES:
        raise EmbeddingError(f"unknown similarity mode: {mode!r}")
    rows = np.array([v for v in map(table.get, tokens) if v is not None and v.any()])
    if not len(rows):
        return None
    if mode == PAIRWISE_MEAN:
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    mean = rows.mean(axis=0)
    if mode == MEAN_VECTOR:
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            return None
        mean = mean / norm
    return mean


def direction_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """The score of two ``phrase_direction`` results: their dot product, clipped to [-1, 1]."""
    return float(np.clip(left @ right, -1.0, 1.0))


def phrase_similarity(
    description_tokens: Sequence[str],
    subtype_tokens: Sequence[str],
    table: EmbeddingTable,
    mode: str = PAIRWISE_MEAN,
) -> float | None:
    """Similarity between two token lists under the table's vocabulary.

    Each side is reduced by ``phrase_direction`` and the two are scored by
    ``direction_similarity``. In the default mode each side is the mean of
    its unit vectors, so by bilinearity the score is the mean cosine over all
    description x subtype token pairs. The result is None (undefined) when a
    side has no usable vector, so out-of-vocabulary phrases never masquerade
    as low-similarity ones.
    """
    if not description_tokens or not subtype_tokens:
        raise EmbeddingError("phrase similarity requires nonempty token lists")
    description = phrase_direction(description_tokens, table, mode)
    if description is None:
        return None
    subtype = phrase_direction(subtype_tokens, table, mode)
    if subtype is None:
        return None
    return direction_similarity(description, subtype)
