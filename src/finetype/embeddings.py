"""Word-vector table plus the cosine machinery that drives subtype clustering."""

from __future__ import annotations

import logging
import os
import re
from typing import Iterable, Sequence

import numpy as np

from .textfile import open_utf8

log = logging.getLogger(__name__)

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


def bounded_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Whether each row's sum of squares is finite: false for nan, ±inf or overflow."""
    block = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore"):
        return np.isfinite(np.einsum("ij,ij->i", block, block))


def parse_embeddings(lines: Iterable[str]) -> EmbeddingTable:
    """Parse one ``token v1 .. vd`` entry per line.

    An optional first line ``COUNT DIM`` (two integers) declares the shape up
    front. The dimension is otherwise fixed by the first entry; any later
    mismatch, or a row that ``bounded_rows`` rejects, is an error citing the line.
    Duplicate tokens keep the last occurrence and emit a warning.
    """
    vectors: dict[str, np.ndarray] = {}
    rows: list[tuple[int, str, np.ndarray]] = []  # line, token and values of each entry
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
        rows.append((lineno, token, values))
    if dim is None or not vectors:
        raise EmbeddingError("embedding file contains no entries")
    # one check per block of rows, not per row; a block's copy stays small
    for lo in range(0, len(rows), 4096):
        ok = bounded_rows([values for _, _, values in rows[lo : lo + 4096]])
        if not ok.all():
            lineno, token, _ = rows[lo + int(ok.argmin())]
            raise EmbeddingError(f"line {lineno}: values for {token!r} are not finite or too large")
    if declared_count is not None and declared_count != len(vectors):
        log.warning("header declared %d entries, file contains %d", declared_count, len(vectors))
    return EmbeddingTable(dim, vectors)


def load_embeddings(path: str | os.PathLike[str]) -> EmbeddingTable:
    with open_utf8(path, EmbeddingError) as fh:
        return parse_embeddings(fh)


def phrase_direction(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray | None:
    """One token list reduced to the vector that ``phrase_similarity`` dots:
    the mean of the tokens' unit vectors.

    Out-of-vocabulary tokens and vectors whose norm is zero, which carry no
    direction, are skipped (a nonzero row of subnormal values has a norm that
    underflows to zero); the result is None when no token has a usable vector.
    """
    rows = np.array([v for v in map(table.get, tokens) if v is not None]).reshape(-1, table.dim)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    usable = norms[:, 0] > 0.0
    rows, norms = rows[usable], norms[usable]
    if not len(rows):
        return None
    return (rows / norms).mean(axis=0)


def direction_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """The score of two ``phrase_direction`` results: their dot product, clipped to [-1, 1]."""
    return float(np.clip(left @ right, -1.0, 1.0))


def phrase_similarity(
    description_tokens: Sequence[str],
    subtype_tokens: Sequence[str],
    table: EmbeddingTable,
) -> float | None:
    """Similarity between two token lists under the table's vocabulary.

    Each side is reduced by ``phrase_direction`` to the mean of its unit
    vectors and the two are scored by ``direction_similarity``, so by
    bilinearity the score is the mean cosine over all description x subtype
    token pairs. The result is None (undefined) when a side has no usable
    vector, so out-of-vocabulary phrases never masquerade as low-similarity
    ones.
    """
    if not description_tokens or not subtype_tokens:
        raise EmbeddingError("phrase similarity requires nonempty token lists")
    description = phrase_direction(description_tokens, table)
    if description is None:
        return None
    subtype = phrase_direction(subtype_tokens, table)
    if subtype is None:
        return None
    return direction_similarity(description, subtype)
