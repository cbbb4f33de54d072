"""Every parser of outside input either returns or raises its own module's
error, whatever lines it is given; anything else would escape the CLI's
validation handling as a runtime failure (exit 2) without a line number.

Each property draws arbitrary text lines mixed with lines shaped like the
format, so generated input also reaches the checks past the first token.
Runs are derandomized so the suite stays deterministic.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finetype.cli import ConfigError, build_config, parse_config_text, read_linked
from finetype.embeddings import EmbeddingError, parse_embeddings
from finetype.evaluation import EvalError
from finetype.kb import SnapshotError, ingest_snapshot
from finetype.tagger import CorpusError, _parse_sidecar_lines, parse_conll, parse_sidecar
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
@example(["3", "1 2 # x"])
@example(["1", "\u0661"])  # ARABIC-INDIC DIGIT ONE
@example(["1", "\uff11"])  # FULLWIDTH DIGIT ONE
@example(["1", "1_0"])
@example(["1", "1", "\xa0", "2", " \t", "3"])
def test_parse_sidecar_fuzz(lines):
    returns_or_raises(CorpusError, parse_sidecar, lines)


# Values float accepts, some that np.loadtxt does not (1_0, non-ASCII digits),
# and some neither does; rows that overflow bounded_rows; separators, line
# ends and blank lines that text files and plain lists of lines can hold.
clean_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.floats(-1e6, 1e6).map("{:.6f}".format),
                         st.integers(-10**20, 10**20).map(str))
odd_values = st.one_of(numbers, st.sampled_from(
    ["\u0661", "\uff11", "#", "1e200", "-1e160", "inf", "+.5", "1.", ".", "-", "1d3", "0x1p3",
     "\x00", "1e5_0"]))
clean_separators = st.sampled_from([" ", "\t", "\x0b", "\xa0", " \x0c ", "\u2003"])
odd_separators = st.sampled_from(["\r", "\n", "\x1c", "\x85", ",", ""])
clean_ends = st.sampled_from(["", "\n", "\r\n"])
odd_ends = st.sampled_from([" # x\n", "#", "\r\r\n", "\n\n"])
blank_lines = st.sampled_from(["", "\n", "\r\n", " \t", "\xa0\n", "\x0b", "\r"])


@st.composite
def sidecars(draw):
    """Sidecar lines that either parse in one block or hold one kind of
    defect, or every kind, in places."""
    kind = draw(st.sampled_from(["none", "header", "values", "widths", "separators", "ends",
                                 "all"]))

    def part(clean, odd, of):
        return st.one_of(clean, odd) if kind in (of, "all") else clean

    dim = draw(st.integers(1, 4))
    widths = part(st.just(dim), st.sampled_from([dim - 1, dim + 1]), "widths")
    values = part(clean_values, odd_values, "values")
    separators = part(clean_separators, odd_separators, "separators")
    ends = part(clean_ends, odd_ends, "ends")
    lines = draw(st.lists(blank_lines, max_size=2))
    headers = st.sampled_from(["0", "²", "x", f"{dim} {dim}", f"{dim + 1}"])
    lines.append(draw(part(st.sampled_from([f"{dim}\n", f" {dim}\r\n"]), headers, "header")))
    for _ in range(draw(st.integers(0, 4))):
        for _ in range(draw(st.integers(1, 4))):
            row = [draw(values) for _ in range(draw(widths))]
            lines.append(draw(separators).join(row) if draw(st.booleans())
                         else "".join(v + draw(separators) for v in row))
            lines[-1] += draw(ends)
        lines.extend(draw(st.lists(blank_lines, min_size=1, max_size=3)))
    return lines


def outcome(parse, lines):
    """Each sentence's shape, dtype and bytes, or the error's type and text."""
    try:
        return [(s.shape, s.dtype, s.tobytes()) for s in parse(lines)]
    except Exception as exc:  # the two parsers must fail alike, whatever the error
        return type(exc), str(exc)


@fuzz
@given(sidecars())
@example(["2", "1 2", "", "3 1_0"])
@example(["2", "1 2", "\uff11 2", "", "1e200 0"])
@example(["1", "1e200", "", "x"])
@example(["2", "1\r2"])
@example(["2", "1 2 # x"])
@example(["2", "1\n2", "3 4"])
def test_parse_sidecar_matches_the_per_line_loop(lines):
    assert outcome(parse_sidecar, lines) == outcome(_parse_sidecar_lines, lines)
    # a text file, which the per-line loop reads again from its start
    text = "\n".join(lines)
    assert (outcome(parse_sidecar, io.StringIO(text, newline=None))
            == outcome(_parse_sidecar_lines, io.StringIO(text, newline=None)))


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


linked_fields = {"doc": st.integers(), "start": st.integers(), "end": st.integers(),
                 "surface": st.text(max_size=8), "fine": st.text(max_size=8)}
linked_records = st.one_of(
    st.fixed_dictionaries(linked_fields),
    st.fixed_dictionaries({}, optional=dict.fromkeys(linked_fields, json_values)),
).map(json.dumps)


@fuzz
@given(st.one_of(lines_of(linked_records, numbers), st.lists(linked_records, max_size=4)))
@example(["5"])
@example(['{"doc": "x", "start": 0, "end": 1, "surface": "a", "fine": "b"}'])
@example(["[" * 100_000])
@example(["1" * 5000])
def test_read_linked_fuzz(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "linked.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            records = read_linked(path)
        except EvalError:
            return
    for _, record in records:  # what evaluate_linked indexes and compares
        assert all(type(record[key]) is int for key in ("doc", "start", "end"))
        assert all(type(record[key]) is str for key in ("surface", "fine"))


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
        "bidirectional", "hidden_size", "dropout", "batch_size", "epochs", "learning_rate",
        "threshold", "similarity_mode",
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
