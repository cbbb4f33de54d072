from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from hypothesis import settings

from finetype import load_embeddings, load_hierarchy, load_snapshot
from finetype.embeddings import EmbeddingError, _sidecar_dim, bounded_rows
from finetype.tagger import MentionSpan, StaticVectors, read_conll
from finetype.taxonomy import default_hierarchy_path

DATA_DIR = Path(default_hierarchy_path()).parent
DEMO_DIR = DATA_DIR / "demo"

# A longer run of the derandomized properties, for a CI step that runs the
# vector-file parsers', the snapshot ingest's and float32 tagging's properties
# alone: --hypothesis-profile=fuzz-2000
settings.register_profile("fuzz-2000", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def hierarchy():
    return load_hierarchy(default_hierarchy_path())


@pytest.fixture(scope="session")
def demo_kb():
    return load_snapshot(DEMO_DIR / "snapshot.jsonl")


@pytest.fixture(scope="session")
def demo_table():
    return load_embeddings(DEMO_DIR / "wiki_vectors.vec")


@pytest.fixture(scope="session")
def demo_config_path():
    return DEMO_DIR / "pipeline.cfg"


@pytest.fixture(scope="session")
def demo_corpus_path():
    return DEMO_DIR / "corpus.conll"


def demo_sidecar_sentences():
    """Each demo corpus sentence's vectors from the demo token table: with
    these as a sidecar, a run reproduces the static-table one."""
    provider = StaticVectors(load_embeddings(DEMO_DIR / "token_vectors.vec"))
    corpus = read_conll(DEMO_DIR / "corpus.conll")
    return [provider.vectors_for(i, ex.tokens) for i, ex in enumerate(corpus)]


def sidecar_text(sentences) -> str:
    """A sidecar holding ``sentences``, every value in ``repr`` form."""
    rows = [f"{sentences[0].shape[1]}\n"]
    for sentence in sentences:
        rows.extend(" ".join(repr(float(v)) for v in row) + "\n" for row in sentence)
        rows.append("\n")
    return "".join(rows)


def tags_of_spans(spans: Iterable[MentionSpan], length: int) -> list[str]:
    """Encode non-overlapping spans as a BIO tag sequence of ``length``: the
    inverse of ``extract_spans`` that the codec round trips check."""
    tags = ["O"] * length
    for span in sorted(spans):
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        if any(t != "O" for t in tags[span.start : span.end]):
            raise ValueError(f"span {span} overlaps a previous span")
        tags[span.start] = f"B-{span.coarse}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.coarse}"
    return tags


def parse_sidecar_lines(lines: Iterable[str]) -> list[np.ndarray]:
    """``parse_sidecar`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
    dim: int | None = None
    sentences: list[np.ndarray] = []
    current: list[np.ndarray] = []

    def flush() -> None:
        if current:
            sentences.append(np.array(current, dtype=float))
            current.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if dim is None:
            if line:
                dim = _sidecar_dim(line, lineno)
            continue
        if not line:
            flush()
            continue
        try:
            row = np.array([float(v) for v in line.split()], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        current.append(row)
    if dim is None:
        raise EmbeddingError("sidecar file has no dimension header")
    flush()
    if not sentences:
        raise EmbeddingError("sidecar contains no sentences")
    return sentences
