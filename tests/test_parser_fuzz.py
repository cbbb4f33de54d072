"""Every parser of outside input either returns or raises its own module's
error, whatever lines it is given; anything else would escape the CLI's
validation handling as a runtime failure (exit 2) without a line number.

Each property draws arbitrary text lines mixed with lines shaped like the
format, so generated input also reaches the checks past the first token.
Runs are derandomized so the suite stays deterministic.
"""

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finetype.cli import ConfigError, build_config, parse_config_text
from finetype.embeddings import EmbeddingError, parse_embeddings
from finetype.kb import SnapshotError, ingest_snapshot
from finetype.tagger import CorpusError, parse_conll, parse_sidecar
from finetype.taxonomy import HierarchyError, parse_hierarchy

fuzz = settings(derandomize=True, deadline=None)

numbers = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["²", "1" * 5000, "nan", "-0", "1e400", "0x10", "1_0"]),
)
words = st.one_of(st.text(max_size=8), numbers)


def lines_of(*shaped):
    """Lists of lines: arbitrary text or any of the format-shaped lines."""
    return st.lists(st.one_of(st.text(), *shaped), max_size=8)


def returns_or_raises(error, parse, *args):
    try:
        parse(*args)
    except error:
        pass


@fuzz
@given(lines_of(st.tuples(words, words).map("\t".join),
                st.tuples(words, words, words).map("\t".join)))
@example(["²"])
def test_parse_conll_fuzz(lines):
    returns_or_raises(CorpusError, parse_conll, lines)


@fuzz
@given(lines_of(numbers, st.lists(numbers, max_size=4).map(" ".join)))
@example(["²"])
@example(["²", "1 0"])
def test_parse_sidecar_fuzz(lines):
    returns_or_raises(CorpusError, parse_sidecar, lines)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
              st.integers(min_value=-3, max_value=10**6).map(lambda n: f"Q{n}")),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
records = st.dictionaries(
    st.sampled_from(["qid", "label", "aliases", "description", "instance_of",
                     "subclass_of", "occupation"]),
    json_values,
).map(json.dumps)


@fuzz
@given(lines_of(records, numbers))
@example(["²"])
@example(['{"qid": "Q1", "label": null, "aliases": [null]}'])
def test_ingest_snapshot_fuzz(lines):
    returns_or_raises(SnapshotError, ingest_snapshot, lines)


@fuzz
@given(lines_of(st.lists(numbers, min_size=1, max_size=3).map(" ".join),
                st.tuples(words, st.lists(numbers, max_size=3).map(" ".join)).map(" ".join)))
@example(["²"])
@example(["² 2", "a 1 2"])
def test_parse_embeddings_fuzz(lines):
    returns_or_raises(EmbeddingError, parse_embeddings, lines)


@fuzz
@given(lines_of(st.lists(st.text(max_size=6), min_size=1, max_size=3).map(".".join)))
@example(["²"])
def test_parse_hierarchy_fuzz(lines):
    returns_or_raises(HierarchyError, parse_hierarchy, lines)


config_keys = st.one_of(
    st.sampled_from([
        "hierarchy", "kb", "output_dir", "seed", "granularity", "vector_source",
        "case_sensitive", "bidirectional", "hidden_size", "embedding_dim", "dropout",
        "batch_size", "epochs", "learning_rate", "threshold", "similarity_mode",
        "class_roots.person", "class_roots.",
    ]),
    st.text(max_size=8),
)
config_lines = st.tuples(config_keys, st.one_of(words, numbers.map(lambda n: f"Q{n}"))).map(
    " = ".join)


def parse_and_build(lines):
    build_config(parse_config_text("\n".join(lines)), Path(__file__).parent)


@fuzz
@given(lines_of(config_lines))
@example(["²"])
@example(["seed = ²", "class_roots.person = Q²"])
@example(["kb = a\x00b"])
def test_parse_config_fuzz(lines):
    returns_or_raises(ConfigError, parse_and_build, lines)
