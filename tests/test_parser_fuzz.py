"""Every parser of outside input either returns or raises its own module's
error, whatever lines it is given; anything else would escape the CLI's
validation handling as a runtime failure (exit 2) without a line number.

Each property draws arbitrary text lines mixed with lines shaped like the
format, so generated input also reaches the checks past the first token.
Runs are derandomized so the suite stays deterministic.
"""

import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finetype import embeddings
from finetype import kb as kb_module
from finetype.cli import ConfigError, build_config, parse_config_text, read_linked
from finetype.embeddings import (EmbeddingError, EmbeddingTable, bounded_rows, parse_embeddings,
                                 parse_sidecar)
from finetype.evaluation import EvalError
from finetype.kb import SnapshotError, ingest_snapshot, normalize_surface
from finetype.tagger import CorpusError, parse_conll
from finetype.taxonomy import HierarchyError, parse_hierarchy

from conftest import parse_sidecar_lines
from test_kb import oracle_ingest
from test_kb import outcome as ingest_outcome

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
    returns_or_raises(EmbeddingError, parse_sidecar, lines)


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
    """Each sentence's shape, dtype and bytes, or a table's width and each
    token with its vector's dtype and bytes; or the error's type and text."""
    try:
        result = parse(lines)
    except Exception as exc:  # the two parsers must fail alike, whatever the error
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


def parse_embeddings_lines(lines):
    """``parse_embeddings`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
    vectors = {}
    dim = None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if dim is None and len(parts) == 2:
            try:
                int(parts[0])
                dim = int(parts[1])
            except ValueError:
                pass
            else:
                if dim < 1:
                    raise EmbeddingError(f"line {lineno}: declared dimension must be positive")
                continue
        try:
            row = np.array([float(v) for v in parts[1:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(row)
            if dim == 0:
                raise EmbeddingError(f"line {lineno}: entry has no vector values")
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        vectors[parts[0].lower()] = row
    if not vectors:
        raise EmbeddingError("embedding file contains no entries")
    return EmbeddingTable(dim, vectors)


@st.composite
def tables(draw):
    """Table lines made from a generated sidecar: a token before each row, and
    the header dropped, kept, or turned into a ``COUNT DIM`` header."""
    lines, header = [], None
    for line in draw(sidecars()):
        if not line.strip():
            lines.append(line)
        elif header is None:
            header = draw(st.sampled_from(["drop", "keep", "count"]))
            if header != "drop":
                lines.append(line if header == "keep" else f"{draw(st.integers(-1, 9))} {line}")
        else:
            token = draw(st.one_of(st.sampled_from(["a", "A", "é", "2", "nan"]), st.text()))
            lines.append(token + draw(clean_separators) + line)
    return lines


@fuzz
@given(tables())
@example(["a 1 0", "b 1e200 0", "c x 0"])
@example(["2 2", "a 1 0", "A 1_0 0", "b 0 1"])
@example(["0 1", "a"])  # no row np.loadtxt takes: it would warn
def test_parse_embeddings_matches_the_per_line_loop(lines):
    assert_matches_per_line_loop(parse_embeddings, parse_embeddings_lines, lines)


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


# Common-shape snapshot lines, each perturbed in at most one field or at its
# ends: what ingest checks inline must agree with the oracle wherever a line
# leaves that shape.
LONG_QID = "Q" + "9" * 60
SNAPSHOT_FIELDS = ("qid", "label", "aliases", "description", "instance_of", "subclass_of",
                   "occupation")
SNAPSHOT_NAMES = ["Ada", " Ada ", "ada", "Ada\t", "Bob  Lee", "\u00c9t\u00e9", "E\u0301te\u0301",
                  "\x0bAda", "", " "]
LINK_TEXTS = ["Q5", "Q515", "Q7", " Q5 ", "Q05", "q5", LONG_QID]
FIELD_VALUES = [None, 0, -1, 1.5, True, "", "Q5", "Q05", " Q5 ", "Ada", [], {}, {"Q5": 1},
                [None], [5], ["Q5", 5], ["Q5", ["Q5"]], ["Ada", None]]
LINE_ENDS = {"lf": "\n", "none": "", "crlf": "\r\n", "space": " \n", "vt": "\x0b",
             "trailing": " x\n", "second-record": ' {"qid": "Q8", "label": "x"}\n'}


def snapshot_line(obj, start="", end="\n", ensure_ascii=True):
    return start + json.dumps(obj, ensure_ascii=ensure_ascii) + end


@st.composite
def common_shape_snapshots(draw):
    """A few common-shape records, each with its Q-id, label, aliases and link
    texts drawn from small pools (so ids repeat and link texts are met both
    new and seen), and at most one perturbation: a field set to a value of
    another type or dropped, or the line given a BOM, leading whitespace or
    another ending; blank lines fall between them."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        label = draw(st.one_of(st.sampled_from(SNAPSHOT_NAMES), st.text(max_size=4)))
        names = st.one_of(st.sampled_from([*SNAPSHOT_NAMES, label, f" {label} "]),
                          st.text(max_size=3))
        obj = {"qid": draw(st.sampled_from(["Q1", "Q2", "Q3", LONG_QID])), "label": label,
               "aliases": draw(st.lists(names, max_size=3)),
               "description": draw(st.sampled_from(["", "a thing"])),
               **{field: draw(st.lists(st.sampled_from(LINK_TEXTS), max_size=2))
                  for field in SNAPSHOT_FIELDS[4:]}}
        start, end = "", "\n"
        kind = draw(st.sampled_from(["none", "field", "drop", "start", "end"]))
        if kind == "field":
            obj[draw(st.sampled_from(SNAPSHOT_FIELDS))] = draw(st.sampled_from(FIELD_VALUES))
        elif kind == "drop":
            del obj[draw(st.sampled_from(SNAPSHOT_FIELDS))]
        elif kind == "start":
            start = draw(st.sampled_from(["\ufeff", " ", "\t", "\x0b"]))
        elif kind == "end":
            end = LINE_ENDS[draw(st.sampled_from(sorted(LINE_ENDS)))]
        lines.append(snapshot_line(obj, start, end, draw(st.booleans())))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["\n", " \n", "\r\n", ""])))
    return lines


def common_line(qid="Q1", label="Ada", start="", end="\n", **fields):
    """A common-shape record line, with empty lists for the fields not given."""
    return snapshot_line({"qid": qid, "label": label, "aliases": [], "description": "",
                          "instance_of": [], "subclass_of": [], "occupation": [], **fields},
                         start, end)


@fuzz
@given(common_shape_snapshots())
# a field of another type, null included
@example([common_line(qid=5), common_line(qid=None)])
@example([common_line(label=None), common_line(label=5)])
@example([common_line(label=["Ada"])])
@example([common_line(aliases=None), common_line(aliases=[None, "x"])])
@example([common_line(aliases=[5]), common_line(aliases="Ada")])
@example([common_line(aliases=[["Ada"]])])
@example([common_line(description=None), common_line(description=[5])])
@example([common_line(instance_of=None), common_line(subclass_of="Q5")])
@example([common_line(occupation={"Q5": 1}), common_line(occupation=[None])])
@example([common_line(instance_of=["Q5"]), common_line("Q2", occupation=["Q5", 5])])
@example([common_line(subclass_of=["Q5"]), common_line("Q2", subclass_of=[["Q5"]])])
@example([snapshot_line({"qid": "Q1", "label": "Ada"})])
# labels and aliases padded, duplicated or equal to the label once stripped
@example([common_line(label=" Ada\t", aliases=["Ada", " Ada ", "x", "x ", "x"])])
@example([common_line(label="\x0b\u00c9t\u00e9", aliases=["E\u0301te\u0301", " "])])
@example([common_line(label=" "), common_line("Q2", label="")])
# link texts seen and not yet seen, spaced, zero-padded and 60 digits long
@example([common_line(instance_of=["Q5"]),
          common_line("Q2", instance_of=["Q5", " Q5 "], occupation=["q5"])])
@example([common_line(instance_of=["Q5"]), common_line("Q2", subclass_of=["Q05"])])
@example([common_line(LONG_QID, subclass_of=[LONG_QID]),
          common_line("Q2", occupation=[LONG_QID, "Q5"], subclass_of=[LONG_QID])])
# line ends and starts: CRLF, a BOM, a vertical tab, trailing text, blank lines
@example([common_line(instance_of=["Q5"], end="\r\n"), common_line("Q2", instance_of=["Q5"])])
@example([common_line(start="\ufeff")])
@example([common_line(end="\x0b")])
@example([common_line(end="\x0b\n"), common_line(start="\x0b")])
@example([common_line(end=" x\n")])
@example([common_line(end=LINE_ENDS["second-record"])])
@example(["\n", common_line(), " \n", "", common_line("Q2", end="")])
# duplicate ids, on either path
@example([common_line(), common_line(label="Bob")])
@example([common_line(end="\r\n"), common_line()])
def test_snapshot_common_shape_ingest_matches_the_oracle(lines):
    assert ingest_outcome(ingest_snapshot, lines) == ingest_outcome(oracle_ingest, lines)


# Snapshot lines in the documented layout (json.dumps's default for the seven
# fields, in order), each given at most one text-level perturbation: the lines
# ingest reads from its pattern, and the lines just outside that layout, must
# agree with the oracle.
EDGE_SPACES = ["\xa0", "\u2003", "\x85", "\u3000"]
LAYOUT_NAMES = ["Ada", "Bob  Lee", "x/y", "\u00c9t\u00e9"]
LAYOUT_QIDS = ["q5", "Q05", "Q0", "Q" + "1" * 18, "Q" + "1" * 19, LONG_QID, "Q" + "1" * 5000]
ESCAPES = ["\\u00e9", '\\"', "\\\\", "\\/"]
CONTROLS = ["\x00", "\t", "\n", "\r", "\x1f"]
SEPARATORS = {", ": [",", ",  ", " , ", ",\t"], ": ": [":", ":  ", " : "]}
MARK = "\ue000"  # a character no drawn value holds, put where the text is edited


def layout_line(qid="Q1", label="Ada", aliases=(), description="", instance_of=(),
                subclass_of=(), occupation=(), end="\n", ensure_ascii=True, order=None):
    """A record line in the documented layout, or with its keys in ``order``."""
    obj = {"qid": qid, "label": label, "aliases": list(aliases), "description": description,
           "instance_of": list(instance_of), "subclass_of": list(subclass_of),
           "occupation": list(occupation)}
    if order is not None:
        obj = {key: obj[key] for key in order}
    return json.dumps(obj, ensure_ascii=ensure_ascii) + end


def with_text(line, text):
    """``line`` with the marked place in one of its strings replaced by ``text``."""
    return line.replace(MARK, text).replace(json.dumps(MARK)[1:-1], text)


@st.composite
def documented_layout_snapshots(draw):
    """A few documented-layout records, with Q-ids, names and link texts drawn
    from small pools, each given one perturbation or none: a separator spaced
    or compacted, two keys swapped, an escape or a raw control character in a
    string, a space at a label's edge or a blank label, a Q-id off the plain
    form, an alias that is blank or the label, or another line end."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        label = draw(st.sampled_from(LAYOUT_NAMES))
        fields = {"qid": draw(st.sampled_from([f"Q{i}" for i in range(1, 10)] + ["Q" + "1" * 18])),
                  "label": label,
                  "aliases": draw(st.lists(st.sampled_from(LAYOUT_NAMES), max_size=2)),
                  "description": draw(st.sampled_from(["", "a thing"])),
                  **{field: draw(st.lists(st.sampled_from(["Q5", "Q515", "Q7"]), max_size=2))
                     for field in SNAPSHOT_FIELDS[4:]}}
        kind = draw(st.sampled_from(["none", "separator", "swap", "escape", "control", "edge",
                                     "qid", "alias", "end"]))
        if kind == "edge":
            space = draw(st.sampled_from(EDGE_SPACES))
            fields["label"] = draw(st.sampled_from([space + label, label + space, space]))
        elif kind == "qid":
            field = draw(st.sampled_from(["qid", *SNAPSHOT_FIELDS[4:]]))
            qid = draw(st.sampled_from(LAYOUT_QIDS))
            fields[field] = qid if field == "qid" else [*fields[field], qid]
        elif kind == "alias":
            fields["aliases"].append(draw(st.sampled_from(["", " ", label, f" {label}"])))
        elif kind in ("escape", "control"):
            field = draw(st.sampled_from(["label", "aliases", "description"]))
            value = fields["description"] if field == "description" else label
            at = draw(st.integers(0, len(value)))
            marked = value[:at] + MARK + value[at:]
            if field == "aliases":
                fields["aliases"].append(marked)
            else:
                fields[field] = marked
        order = None
        if kind == "swap":
            order = list(SNAPSHOT_FIELDS)
            i, j = draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
            order[i], order[j] = order[j], order[i]
        end = draw(st.sampled_from([" x\n", "\r\n", "", " \n"])) if kind == "end" else "\n"
        line = layout_line(**fields, end=end, ensure_ascii=draw(st.booleans()), order=order)
        if kind in ("escape", "control"):
            line = with_text(line, draw(st.sampled_from(ESCAPES if kind == "escape"
                                                        else CONTROLS)))
        elif kind == "separator":
            places = [(m.start(), m.group()) for m in re.finditer(", |: ", line)]
            at, separator = draw(st.sampled_from(places))
            line = (line[:at] + draw(st.sampled_from(SEPARATORS[separator]))
                    + line[at + len(separator):])
        lines.append(line)
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["\n", " \n", ""])))
    return lines


@fuzz
@given(documented_layout_snapshots())
# a separator spaced or compacted, and every separator compacted
@example([layout_line(aliases=["x", "y"]).replace('"x", "y"', '"x","y"')])
@example([layout_line().replace('"label": ', '"label":  ')])
@example([layout_line(instance_of=["Q5"]), layout_line("Q2", subclass_of=["Q5", "Q7"])
          .replace('"Q5", "Q7"', '"Q5" , "Q7"')])
@example([json.dumps(json.loads(layout_line(subclass_of=["Q5"])), separators=(",", ":"))])
# two keys swapped
@example([layout_line(order=["label", "qid", *SNAPSHOT_FIELDS[2:]])])
@example([layout_line(subclass_of=["Q5"], order=[*SNAPSHOT_FIELDS[:4], "subclass_of",
                                                 "instance_of", "occupation"])])
# escapes in the label, an alias and the description
@example([layout_line(label="Ad\u00e9"), layout_line("Q2", label='A"da')])
@example([layout_line(aliases=["a\\b", "\u00e9"])])
@example([with_text(layout_line(description=f"x{MARK}y"), "\\/")])
@example([with_text(layout_line(label=f"A{MARK}da"), "\\/")])
# raw control characters
@example([with_text(layout_line(label=f"A{MARK}da"), "\x00")])
@example([with_text(layout_line(aliases=[MARK]), "\t")])
@example([with_text(layout_line(description=MARK), "\x1f")])
# spaces at a label's edge, and labels blank once stripped
@example([layout_line(label="\xa0Ada", ensure_ascii=False),
          layout_line("Q2", label="Ada\u2003", ensure_ascii=False)])
@example([layout_line(label="\x85Ada\u3000", ensure_ascii=False)])
@example([layout_line(label="\u3000", ensure_ascii=False)])
@example([layout_line(label=" ")])
@example([layout_line(label="")])
# Q-ids off the plain form, and of 18, 19, 60 and 5,000 digits
@example([layout_line("q5"), layout_line("Q05"), layout_line("Q0")])
@example([layout_line("Q" + "1" * 18), layout_line("Q" + "1" * 19), layout_line(LONG_QID)])
@example([layout_line("Q" + "1" * 5000)])
@example([layout_line(instance_of=["q5"]), layout_line("Q2", subclass_of=["Q05"]),
          layout_line("Q3", occupation=["Q0"])])
@example([layout_line(subclass_of=["Q" + "1" * 18, "Q" + "1" * 19, LONG_QID])])
@example([layout_line(instance_of=["Q" + "1" * 5000])])
@example([layout_line(subclass_of=["Q" + "1" * 5000])])
# aliases blank, or the label itself
@example([layout_line(aliases=["", " ", "Ada", " Ada", "x", "x "])])
# what follows the closing brace: text, CRLF, nothing
@example([layout_line(end=" x\n")])
@example([layout_line(end="\r\n"), layout_line("Q2")])
@example([layout_line("Q1", end=""), "\n", layout_line("Q2", end="")])
# duplicate ids, in the layout and out of it
@example([layout_line(), layout_line(label="Bob")])
@example([layout_line(end="\r\n"), layout_line()])
# texts the ASCII key shortcut refuses (a double space, non-ASCII spaces and
# letters) and one it takes (mixed case), and subclass_of links met new and again
@example([layout_line(label="Acme  Corp"), layout_line("Q2", label="acme corp")])
@example([layout_line(aliases=["Acme  Corp", " x  y "]), layout_line("Q2", aliases=["acme corp"])])
@example([layout_line(label="AcMe CoRP", aliases=["ACME corp", "Stra\xdfe"], ensure_ascii=False),
          layout_line("Q2", label="acme corp", aliases=["STRASSE"])])
@example([layout_line(label="Acme\u3000Corp", ensure_ascii=False),
          layout_line("Q2", label="Acme\xa0Corp", aliases=["x\xa0 y"], ensure_ascii=False),
          layout_line("Q3", label="acme corp", aliases=["X Y"])])
@example([layout_line(subclass_of=["Q5", "Q7"]), layout_line("Q2", subclass_of=["Q5", "Q7"]),
          layout_line("Q3", subclass_of=["Q5"])])
def test_snapshot_documented_layout_ingest_matches_the_oracle(lines):
    assert ingest_outcome(ingest_snapshot, lines) == ingest_outcome(oracle_ingest, lines)


# Label and alias text as the documented layout holds it unescaped: no '"',
# backslash or control character, with the spaces, cases and characters whose
# keys differ from their plain casefold.
LAYOUT_TEXT = st.text(st.one_of(
    st.sampled_from([" ", "\xa0", "\u3000", "\x85", "a", "B", "E", "\xc9", "\u0301", "\xdf",
                     "\u212a", "\u212b", "\u0130", "\ufb01"]),
    st.characters(min_codepoint=0x20).filter(lambda c: c not in '"\\')), max_size=8)


@fuzz
@given(st.lists(st.tuples(LAYOUT_TEXT.filter(str.strip), st.lists(LAYOUT_TEXT, max_size=3)),
                min_size=1, max_size=4))
@example([("Acme  Corp", ["Acme  Corp ", "AcMe"]), ("\xc9t\xe9", ["E\u0301te\u0301"])])
def test_snapshot_documented_layout_keys_follow_normalize_surface(records):
    # Every line is read from the pattern, so each key comes from the loop's
    # own key rule, shortcut or not; it must be normalize_surface's key.
    lines = [layout_line(f"Q{i}", label, aliases, ensure_ascii=False)
             for i, (label, aliases) in enumerate(records, start=1)]
    assert all(kb_module._documented_layout(line) for line in lines)
    kb = ingest_snapshot(lines)
    labels = {label.strip() for label, _ in records}
    aliases = {alias.strip() for label, names in records for alias in names
               if alias.strip() not in ("", label.strip())}
    assert set(kb._label_index) == {normalize_surface(label) for label in labels}
    assert set(kb._alias_index) == {normalize_surface(alias) for alias in aliases}


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
