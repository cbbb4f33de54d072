"""The two vector files, and the cosine machinery that drives subtype clustering.

The word-vector table and the precomputed contextual-vector sidecar hold the
same kind of value row, and both readers parse their rows through ``_rows``.
"""

from __future__ import annotations

import itertools
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
    """Malformed word-vector table or sidecar file, or invalid similarity input."""


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


_BLOCK_ROWS = 1024  # rows a reader holds as text before it parses them: bounds its memory


def _rows(rows: list[tuple[int, str]], dim: int) -> np.ndarray:
    """The values of ``rows``, (line number, text) pairs, as one (rows,
    ``dim``) array: each row holds ``dim`` values that Python ``float`` accepts
    and passes ``bounded_rows``. They are parsed in one ``np.loadtxt`` block,
    which takes a subset of what ``float`` takes, with equal values; where it
    is refused (``1_0``, non-ASCII digits, a bad row), each row is read
    through ``float`` and the first bad row in file order is named."""
    texts = [text for _, text in rows]
    if all(texts):  # loadtxt skips an empty row, and warns on no rows
        try:  # '#' is not a comment: float rejects it
            block = np.loadtxt(texts, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape == (len(texts), dim) and bounded_rows(block).all():
                return block
    values: list[list[float]] = []
    fault = ""  # why float or the width refuses the row after ``values``
    for text in texts:
        try:
            row = [float(v) for v in text.split()]
            if len(row) != dim:
                raise ValueError(f"expected {dim} values, found {len(row)}")
        except ValueError as exc:
            fault = str(exc)
            break
        values.append(row)
    if values:  # an unbounded row comes before the refused one
        ok = bounded_rows(values)
        if not ok.all():
            raise EmbeddingError(f"line {rows[int(ok.argmin())][0]}: values are not finite"
                                 " or too large")
    if fault:
        raise EmbeddingError(f"line {rows[len(values)][0]}: {fault}")
    return np.array(values, dtype=float)


def parse_embeddings(lines: Iterable[str]) -> EmbeddingTable:
    """Parse one ``token v1 .. vd`` entry per line, the values by the row rule
    of ``_rows``. An optional first line ``COUNT DIM`` (two integers) declares
    the shape up front; the dimension is otherwise fixed by the first entry.
    Duplicate tokens keep the last occurrence and emit a warning."""
    vectors: dict[str, np.ndarray] = {}
    tokens: list[str] = []
    rows: list[tuple[int, str]] = []  # the entries not parsed yet
    dim: int | None = None
    declared_count: int | None = None

    def parse_rows() -> None:
        for token, (lineno, _), row in zip(tokens, rows, _rows(rows, dim)):
            if token in vectors:
                log.warning("duplicate token %r at line %d: keeping the last occurrence",
                            token, lineno)
            vectors[token] = row
        tokens.clear()
        rows.clear()

    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split(None, 1)
        if not parts:
            continue
        if dim is None:
            try:  # two integers: a ``COUNT DIM`` header
                declared_count, dim = map(int, raw.split())
            except ValueError:
                dim = len(raw.split()) - 1
                if dim == 0:
                    raise EmbeddingError(f"line {lineno}: entry has no vector values") from None
            else:
                if dim < 1:
                    raise EmbeddingError(f"line {lineno}: declared dimension must be positive")
                continue
        tokens.append(parts[0].lower())
        rows.append((lineno, parts[1] if len(parts) == 2 else ""))
        if len(rows) == _BLOCK_ROWS:
            parse_rows()
    if rows:
        parse_rows()
    if not vectors:
        raise EmbeddingError("embedding file contains no entries")
    if declared_count is not None and declared_count != len(vectors):
        log.warning("header declared %d entries, file contains %d", declared_count, len(vectors))
    return EmbeddingTable(dim, vectors)


def load_embeddings(path: str | os.PathLike[str]) -> EmbeddingTable:
    with open_utf8(path, EmbeddingError) as fh:
        return parse_embeddings(fh)


def parse_sidecar(lines: Iterable[str]) -> list[np.ndarray]:
    """Read precomputed per-token vectors: a dimension header line, then one
    row per token by the row rule of ``_rows``, with blank lines between
    sentences. A line is blank when it holds only whitespace. Each sentence
    is a view of a block of rows."""
    dim: int | None = None
    sentences: list[np.ndarray] = []
    rows: list[tuple[int, str]] = []  # the rows not parsed yet
    lengths = [0]  # rows after each blank line; a sentence where not 0

    def parse_rows() -> None:
        block = _rows(rows, dim)
        ends = itertools.accumulate(lengths)
        sentences.extend(block[end - n : end] for n, end in zip(lengths, ends) if n)
        rows.clear()
        lengths.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            if len(rows) >= _BLOCK_ROWS:  # parsed once a sentence ends
                parse_rows()
            lengths.append(0)
        elif dim is None:
            dim = _sidecar_dim(line, lineno)
        else:
            rows.append((lineno, line))
            lengths[-1] += 1
    if dim is None:
        raise EmbeddingError("sidecar file has no dimension header")
    if rows:
        parse_rows()
    if not sentences:
        raise EmbeddingError("sidecar contains no sentences")
    return sentences


def _sidecar_dim(line: str, lineno: int) -> int:
    """The dimension a sidecar's header ``line``, stripped, declares."""
    # ASCII digits only: str.isdigit also accepts digits int() rejects, like '²'
    if not (line.isascii() and line.isdigit()):
        raise EmbeddingError(f"line {lineno}: expected a dimension header")
    try:
        dim = int(line)
    except ValueError:
        raise EmbeddingError(f"line {lineno}: dimension header is too long") from None
    if dim < 1:
        raise EmbeddingError(f"line {lineno}: dimension must be positive")
    return dim


def load_sidecar(path: str | os.PathLike[str]) -> list[np.ndarray]:
    with open_utf8(path, EmbeddingError) as fh:
        return parse_sidecar(fh)


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
    """The score of two ``phrase_direction`` results: their dot product, clipped to [-1, 1].

    The dot is clipped as a Python float, which gives ``np.clip``'s value bit
    for bit whenever the dot is finite. It always is: every row passed the
    reader's finiteness bound, so a direction is a mean of unit vectors.
    """
    score = float(left @ right)
    return -1.0 if score < -1.0 else 1.0 if score > 1.0 else score


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
