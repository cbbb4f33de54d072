import math
import random

import numpy as np
import pytest

from finetype import embeddings
from finetype.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    direction_similarity,
    load_embeddings,
    parse_embeddings,
    parse_sidecar,
    phrase_direction,
    phrase_similarity,
    tokenize,
)

from conftest import (DEMO_DIR, demo_sidecar_sentences, pairwise_mean_cosine,
                      parse_sidecar_lines, sidecar_text)


# --- loading -------------------------------------------------------------------

def test_shipped_fixture_has_50_entries_dim_8(demo_table):
    assert len(demo_table) == 50
    assert demo_table.dim == 8


def test_parse_without_header():
    table = parse_embeddings(["a 1 0", "b 0 1"])
    assert table.dim == 2 and len(table) == 2


def test_parse_with_count_dim_header():
    table = parse_embeddings(["2 3", "a 1 0 0", "b 0 1 0"])
    assert table.dim == 3 and len(table) == 2


def test_duplicate_token_last_wins_with_warning(caplog):
    with caplog.at_level("WARNING"):
        table = parse_embeddings(["a 1 0", "a 0 1"])
    assert "duplicate token" in caplog.text
    assert np.allclose(table.get("a"), [0, 1])


def test_tokens_lowercased_on_load_and_query():
    table = parse_embeddings(["Apple 1 0"])
    assert "APPLE" in table
    assert table.get("apple") is not None


def loadtxt_blocks(monkeypatch):
    """The arrays ``np.loadtxt`` returns from now on, in call order."""
    blocks, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        blocks.append(loadtxt(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    return blocks


@pytest.mark.parametrize("name", ["wiki_vectors.vec", "token_vectors.vec"])
def test_demo_tables_parse_in_one_block(monkeypatch, name):
    blocks = loadtxt_blocks(monkeypatch)
    table = load_embeddings(DEMO_DIR / name)
    assert len(blocks) == 1 and len(table) > 1
    # every vector is a row of that block, not of the per-row fallback's array
    assert all(table.get(token).base is blocks[0] for token in table.tokens())


def test_a_long_table_is_parsed_in_blocks_of_1024_rows(monkeypatch):
    assert embeddings._BLOCK_ROWS == 1024
    blocks = loadtxt_blocks(monkeypatch)
    table = parse_embeddings([f"w{i} {i} 1" for i in range(2500)])
    assert [len(block) for block in blocks] == [1024, 1024, 452]
    assert table.get("w1024").tolist() == [1024, 1] and table.get("w1024").base is blocks[1]


# --- faults of either vector file ------------------------------------------------

# Vector file faults, and the text each is reported with.
VECTOR_ROW_ERRORS = [
    (parse_embeddings, ["a 1 0 0 0 0 0 0 0", "b 1 0 0 0 0 0 0 0", "c 1 0 0 0 0 0 0"],
     "^line 3: expected 8 values, found 7$"),
    # the first bad row in file order, whatever its fault
    (parse_embeddings, ["2 2", "a 1 0", "b 1e200 0", "c x 0", "d 1 0 0"],
     "^line 3: values are not finite or too large$"),
    (parse_embeddings, [], "no entries"),
    (parse_embeddings, ["a 1 0", "b x y"], "line 2"),
    (parse_sidecar, ["x 1 2"], "header"),
    (parse_sidecar, ["2", "1 0", "1 0 0"], "^line 3: expected 2 values, found 3$"),
    (parse_sidecar, ["2"], "^sidecar contains no sentences$"),
    (parse_sidecar, ["", "2", "", " \t", ""], "^sidecar contains no sentences$"),
]


@pytest.mark.parametrize("parse, lines, message", VECTOR_ROW_ERRORS)
def test_vector_row_error_text(parse, lines, message):
    with pytest.raises(EmbeddingError, match=message):
        parse(lines)


# --- sidecar ---------------------------------------------------------------------

def ragged_sidecar_lines(seed=0):
    """A well-formed sidecar as raw lines: blank-line runs (some of them only
    whitespace) before the header and between sentences, CRLF endings, and
    values apart by tabs, ``\\x0b`` and ``\\xa0`` as well as spaces."""
    rng, pick = np.random.default_rng(seed), random.Random(seed).choice
    dim = 5
    lines = ["\n", "\xa0\r\n", f" {dim}\r\n"]
    for length in rng.integers(1, 9, size=12):
        for row in rng.standard_normal((length, dim)) * 10.0 ** rng.integers(-5, 5):
            sep = pick([" ", "\t", "\x0b", "\xa0", " \xa0 "])
            lines.append(sep.join(f"{v:.{rng.integers(1, 18)}g}" for v in row)
                         + pick(["\n", "\r\n", ""]))
        lines.extend(pick(["\n", "\r\n", " \t\n", "\xa0\n", "\x0b"])
                     for _ in range(rng.integers(1, 4)))
    return lines


@pytest.mark.parametrize("source", ["demo", "ragged"])
def test_parse_sidecar_parses_a_well_formed_sidecar_in_one_block(monkeypatch, source):
    lines = (sidecar_text(demo_sidecar_sentences()).splitlines(keepends=True)
             if source == "demo" else ragged_sidecar_lines())
    want = parse_sidecar_lines(lines)
    blocks = loadtxt_blocks(monkeypatch)
    got = parse_sidecar(lines)
    assert len(want) > 1 and len(blocks) == 1
    # every sentence is a view of that block, not of the per-row fallback's array
    assert all(s.base is blocks[0] for s in got)
    assert [(s.shape, s.dtype, s.tobytes()) for s in got] == [
        (s.shape, s.dtype, s.tobytes()) for s in want]


def test_a_long_sidecar_is_parsed_in_blocks_of_whole_sentences(monkeypatch):
    # 1,000 three-row sentences: a block ends at the first sentence end at or
    # past 1,024 rows, which is row 1,026
    assert embeddings._BLOCK_ROWS == 1024
    lines = "\n".join(["2"] + ["1 0\n0 1\n2 2\n"] * 1000).splitlines()
    blocks = loadtxt_blocks(monkeypatch)
    got = parse_sidecar(lines)
    assert [len(block) for block in blocks] == [1026, 1026, 948]
    assert len(got) == 1000 and all(s.tolist() == [[1, 0], [0, 1], [2, 2]] for s in got)
    assert got[341].base is blocks[0] and got[342].base is blocks[1]


# --- phrase similarity --------------------------------------------------------------

SMALL = EmbeddingTable(2, {
    "sun": np.array([1.0, 0.0]),
    "star": np.array([0.9, 0.1]),
    "sea": np.array([0.0, 1.0]),
    "wave": np.array([0.2, 0.8]),
})
DEMO = load_embeddings(DEMO_DIR / "wiki_vectors.vec")


def random_phrases(vocab, rng, count, longest_left, longest_right):
    """``count`` pairs of phrases drawn from ``vocab``, of 1 to ``longest_left``
    and 1 to ``longest_right`` tokens."""
    return [(list(rng.choice(vocab, size=rng.integers(1, longest_left + 1))),
             list(rng.choice(vocab, size=rng.integers(1, longest_right + 1))))
            for _ in range(count)]


_rng = np.random.default_rng(11)
# every vector at its own scale, a zero vector, and one that cancels w0 in a mean
_vectors = {f"w{i}": _rng.standard_normal(8) * _rng.uniform(0.01, 100) for i in range(30)}
SCALED = EmbeddingTable(8, {**_vectors, "zero": np.zeros(8), "neg": -_vectors["w0"]})
CANCELLING = [(["w0", "neg"], ["w1"]), (["zero"], ["w1"]), (["oov", "zero"], ["oov"])]
OOV = ["oov", "zero", "unseen"]

# Named cases: a table, phrase pairs, and the score each pair must have when
# the case pins one.
SIMILARITY_CASES = {
    "identical-single-tokens": (SMALL, [(["sun"], ["sun"])], 1.0),
    "all-tokens-oov-is-undefined": (SMALL, [(["quark"], ["gluon"]), (["sun"], ["gluon"])], None),
    # only the sun/star pair contributes
    "oov-pairs-are-skipped": (SMALL, [(["sun", "plasma"], ["star"])],
                              pytest.approx(0.9 / math.sqrt(0.82))),
    "one-pair": (EmbeddingTable(3, {"u": np.array([1.0, 2.0, 3.0]), "v": np.array([4.0, 5.0, 6.0])}),
                 [(["u"], ["v"])], pytest.approx(0.97463, abs=5e-6)),
    "demo-phrases": (DEMO, [(["tablet", "computers"], ["mobile", "phone"])]
                     + random_phrases(DEMO.tokens(), np.random.default_rng(7), 25, 9, 9)),
    "scaled-zero-and-cancelling-vectors": (
        SCALED, CANCELLING + random_phrases(SCALED.tokens() + OOV, _rng, 200, 11, 5)),
    "demo-with-oov-and-zero-tokens": (
        DEMO, CANCELLING + random_phrases(DEMO.tokens() + OOV, _rng, 200, 11, 5)),
}


@pytest.mark.parametrize("case", SIMILARITY_CASES)
def test_phrase_similarity_matches_the_50_digit_pairwise_mean(case):
    table, pairs, *pinned = SIMILARITY_CASES[case]
    for left, right in pairs:
        want = pairwise_mean_cosine(left, right, table)
        got = phrase_similarity(left, right, table)
        assert got == (None if want is None else pytest.approx(want, abs=1e-12)), (left, right)
        assert phrase_similarity(right, left, table) == (
            None if got is None else pytest.approx(got, abs=1e-12))
        if pinned:
            assert got == pinned[0]


# The 7th and 8th 6-d draws of default_rng(0), normalized; the 8th has a
# self-dot of 1.0000000000000002 and a dot with its negation of
# -1.0000000000000002, which the clip brings back to 1 and -1.
@pytest.mark.parametrize("left, right, score", [
    ("w", "w", 1.0),
    ("w", "-w", -1.0),
    ("v", "w", None),  # inside [-1, 1]: the dot as a float, bit for bit
], ids=["with-itself-clips-to-1", "with-its-negation-clips-to-minus-1", "inside-is-the-dot"])
def test_a_direction_score_is_its_dot_clipped_to_the_unit_interval(left, right, score):
    rows = np.random.default_rng(0).standard_normal((8, 6))
    table = EmbeddingTable(6, {"v": rows[6], "w": rows[7]})
    directions = {token: phrase_direction([token], table) for token in "vw"}
    directions["-w"] = -directions["w"]
    dot = float(directions[left] @ directions[right])
    got = direction_similarity(directions[left], directions[right])
    if score is None:
        assert -1.0 < dot < 1.0
        score = dot
    else:
        assert abs(dot) > 1.0
    assert type(got) is float and got.hex() == score.hex()


def test_empty_token_lists_rejected():
    with pytest.raises(EmbeddingError):
        phrase_similarity([], ["sun"], SMALL)


def test_phrase_direction_without_usable_vector_is_none():
    table = EmbeddingTable(2, {"sun": np.array([1.0, 0.0]), "void": np.zeros(2)})
    for tokens in ([], ["quark"], ["void"], ["quark", "void"]):
        assert phrase_direction(tokens, table) is None


def test_phrase_direction_reductions():
    sun, star = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    got = phrase_direction(["sun", "star", "quark"], SMALL)
    assert np.allclose(got, (sun + star / np.linalg.norm(star)) / 2, rtol=0, atol=1e-15)


# --- tokenize ------------------------------------------------------------------------

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Apple's iPad, 2011!") == ["apple", "s", "ipad", "2011"]


def test_tokenize_keeps_unicode_letters():
    assert tokenize("Barça") == ["barça"]


def test_tokenize_empty():
    assert tokenize("...") == []


def test_load_from_file(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3 4\n")
    table = load_embeddings(path)
    assert len(table) == 2 and table.dim == 2
    assert table.get("b").tolist() == [3.0, 4.0]
