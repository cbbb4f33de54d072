from pathlib import Path

import pytest

from finetype import load_embeddings, load_hierarchy, load_snapshot
from finetype.taxonomy import default_hierarchy_path

DATA_DIR = Path(default_hierarchy_path()).parent
DEMO_DIR = DATA_DIR / "demo"


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
    from finetype.tagger import StaticVectors, read_conll

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
