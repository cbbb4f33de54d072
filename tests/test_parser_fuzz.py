"""Every parser of outside input either returns or raises its own module's
error, whatever lines it is given; anything else would escape the CLI's
validation handling as a runtime failure (exit 2) without a line number.

Each property draws arbitrary text lines mixed with lines shaped like the
format, so generated input also reaches the checks past the first token. The
two vector readers are also checked against their per-line oracles, bit for
bit and error for error; the snapshot ingest's oracle properties are in
tests/test_kb.py. Runs are derandomized so the suite stays deterministic.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finetype import embeddings
from finetype.cli import ConfigError, build_config, parse_config_text, read_linked
from finetype.embeddings import EmbeddingError, EmbeddingTable, parse_embeddings, parse_sidecar
from finetype.evaluation import EvalError
from finetype.tagger import CorpusError, parse_conll
from finetype.taxonomy import HierarchyError, parse_hierarchy

from conftest import json_values, numbers, parse_embeddings_lines, parse_sidecar_lines

fuzz = settings(derandomize=True, deadline=None)  # made at collection, as in test_kb.py

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


# The strategies sidecars draws from, each built once, with its defects left
# out and let in: Hypothesis would otherwise set up each one again on every draw.
sidecar_kinds = st.sampled_from(["none", "header", "values", "widths", "separators", "ends",
                                 "all"])
sidecar_dims = st.integers(1, 4)
widths = {dim: (st.just(dim), st.one_of(st.just(dim), st.sampled_from([dim - 1, dim + 1])))
          for dim in range(1, 5)}
headers = {dim: (st.sampled_from([f"{dim}\n", f" {dim}\r\n"]),
                 st.one_of(st.sampled_from([f"{dim}\n", f" {dim}\r\n"]),
                           st.sampled_from(["0", "²", "x", f"{dim} {dim}", f"{dim + 1}"])))
           for dim in range(1, 5)}
row_values = (clean_values, st.one_of(clean_values, odd_values))
row_separators = (clean_separators, st.one_of(clean_separators, odd_separators))
row_ends = (clean_ends, st.one_of(clean_ends, odd_ends))
leading_blanks = st.lists(blank_lines, max_size=2)
sentence_gaps = st.lists(blank_lines, min_size=1, max_size=3)
sentence_counts, row_counts = st.integers(0, 4), st.integers(1, 4)


@st.composite
def sidecars(draw):
    """Sidecar lines that either parse in one block or hold one kind of
    defect, or every kind, in places."""
    kind = draw(sidecar_kinds)

    def part(strategies, of):
        return strategies[kind in (of, "all")]

    dim = draw(sidecar_dims)
    width = part(widths[dim], "widths")
    values = part(row_values, "values")
    separators = part(row_separators, "separators")
    ends = part(row_ends, "ends")
    lines = draw(leading_blanks)
    lines.append(draw(part(headers[dim], "header")))
    for _ in range(draw(sentence_counts)):
        for _ in range(draw(row_counts)):
            row = [draw(values) for _ in range(draw(width))]
            lines.append(draw(separators).join(row) if draw(st.booleans())
                         else "".join(v + draw(separators) for v in row))
            lines[-1] += draw(ends)
        lines.extend(draw(sentence_gaps))
    return lines


def outcome(parse, lines):
    """Each sentence's shape, dtype and bytes, or a table's width and each
    token with its vector's dtype and bytes; or the error's type and text. Any
    error but the reader's own escapes and fails the test."""
    try:
        result = parse(lines)
    except EmbeddingError as exc:
        return type(exc), str(exc)
    if isinstance(result, EmbeddingTable):
        return result.dim, [(t, result.get(t).dtype, result.get(t).tobytes())
                            for t in result.tokens()]
    return [(s.shape, s.dtype, s.tobytes()) for s in result]


def assert_matches_per_line_loop(parse, per_line, lines):
    """``parse`` and ``per_line`` agree on ``lines``, and on them as a text file,
    split by text reading, whether ``parse`` reads the rows in one block or in
    blocks of one or two rows (a sidecar's blocks end where a sentence ends)."""
    text = "\n".join(lines)
    want = outcome(per_line, lines), outcome(per_line, io.StringIO(text, newline=None))
    for block_rows in (embeddings._BLOCK_ROWS, 1, 2):
        with mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
            assert (outcome(parse, lines),
                    outcome(parse, io.StringIO(text, newline=None))) == want, block_rows


# One property per generator, so each draws the full example count.
@fuzz
@given(lines_of(numbers, st.lists(numbers, max_size=4).map(" ".join)))
@example(["²"])
@example(["²", "1 0"])
@example(["3", "1 2 # x"])
@example(["1", "\u0661"])  # ARABIC-INDIC DIGIT ONE
@example(["1", "\uff11"])  # FULLWIDTH DIGIT ONE
@example(["1", "1_0"])
@example(["1", "1", "\xa0", "2", " \t", "3"])
def test_parse_sidecar_matches_the_per_line_loop_on_arbitrary_lines(lines):
    assert_matches_per_line_loop(parse_sidecar, parse_sidecar_lines, lines)


@fuzz
@given(sidecars())
@example(["2", "1 2", "", "3 1_0"])
@example(["2", "1 2", "\uff11 2", "", "1e200 0"])
@example(["1", "1e200", "", "x"])
@example(["2", "1\r2"])
@example(["2", "1 2 # x"])
@example(["2", "1\n2", "3 4"])
@example(["3\n", "0.0 0.0 1.3407807929942597e+154", "0.0 0.0 \u00b2", ""])
def test_parse_sidecar_matches_the_per_line_loop(lines):
    assert_matches_per_line_loop(parse_sidecar, parse_sidecar_lines, lines)


table_headers = st.sampled_from(["drop", "keep", "count"])
table_counts = st.integers(-1, 9)
table_tokens = st.one_of(st.sampled_from(["a", "A", "é", "2", "nan"]), st.text())


@st.composite
def tables(draw):
    """Table lines made from a generated sidecar: a token before each row, and
    the header dropped, kept, or turned into a ``COUNT DIM`` header."""
    lines, header = [], None
    for line in draw(sidecars()):
        if not line.strip():
            lines.append(line)
        elif header is None:
            header = draw(table_headers)
            if header != "drop":
                lines.append(line if header == "keep" else f"{draw(table_counts)} {line}")
        else:
            lines.append(draw(table_tokens) + draw(clean_separators) + line)
    return lines


@fuzz
@given(lines_of(st.lists(numbers, min_size=1, max_size=3).map(" ".join),
                st.tuples(words, st.lists(numbers, max_size=3).map(" ".join)).map(" ".join)))
@example(["²"])
@example(["² 2", "a 1 2"])
def test_parse_embeddings_matches_the_per_line_loop_on_arbitrary_lines(lines):
    assert_matches_per_line_loop(parse_embeddings, parse_embeddings_lines, lines)


@fuzz
@given(tables())
@example(["a 1 0", "b 1e200 0", "c x 0"])
@example(["2 2", "a 1 0", "A 1_0 0", "b 0 1"])
@example(["0 1", "a"])  # no row np.loadtxt takes: it would warn
def test_parse_embeddings_matches_the_per_line_loop(lines):
    assert_matches_per_line_loop(parse_embeddings, parse_embeddings_lines, lines)


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
