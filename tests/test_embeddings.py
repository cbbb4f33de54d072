import math
import random
from typing import Callable, NamedTuple

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
                      parse_embeddings_lines, parse_sidecar_lines, sidecar_text)


# --- loading -------------------------------------------------------------------

def loadtxt_blocks(monkeypatch):
    """The arrays ``np.loadtxt`` returns from now on, in call order."""
    blocks, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        blocks.append(loadtxt(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    return blocks


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


class Loaded(NamedTuple):
    """Vector-file lines and their reader: ``parse_embeddings`` or
    ``parse_sidecar`` given the lines, or ``load_embeddings`` given a file of
    them. It must read what its per-line oracle reads, with every vector a row
    of one of the ``np.loadtxt`` blocks, which hold ``blocks`` rows each; and
    as pinned, the ``size`` of the table or sentence list, the table's
    ``dim``, ``vectors`` by token, the block that holds each of ``bases`` (a
    token or a sentence index) and a ``warning`` logged."""
    read: Callable
    lines: list
    blocks: list
    size: int | None = None
    dim: int | None = None
    vectors: dict = {}
    bases: dict = {}
    warning: str | None = None


def demo_lines(name):
    return (DEMO_DIR / name).read_text(encoding="utf-8").splitlines(True)


LOADED = {
    "shipped-fixture-has-50-entries-dim-8": Loaded(load_embeddings,
                                                   demo_lines("wiki_vectors.vec"), [50], 50, 8),
    "parse-without-header": Loaded(parse_embeddings, ["a 1 0", "b 0 1"], [2], 2, 2),
    "parse-with-count-dim-header": Loaded(parse_embeddings, ["2 3", "a 1 0 0", "b 0 1 0"], [2],
                                          2, 3),
    "duplicate-token-last-wins-with-warning": Loaded(
        parse_embeddings, ["a 1 0", "a 0 1"], [2], vectors={"a": [0, 1]},
        warning="duplicate token"),
    "tokens-lowercased-on-load-and-query": Loaded(parse_embeddings, ["Apple 1 0"], [1],
                                                  vectors={"APPLE": [1, 0], "apple": [1, 0]}),
    "demo-tables-parse-in-one-block-wiki_vectors.vec": Loaded(
        load_embeddings, demo_lines("wiki_vectors.vec"), [50], 50),
    "demo-tables-parse-in-one-block-token_vectors.vec": Loaded(
        load_embeddings, demo_lines("token_vectors.vec"), [44], 44),
    "a-long-table-is-parsed-in-blocks-of-1024-rows": Loaded(
        parse_embeddings, [f"w{i} {i} 1" for i in range(2500)], [1024, 1024, 452],
        vectors={"w1024": [1024, 1]}, bases={"w1024": 1}),
    "parse-sidecar-demo-in-one-block": Loaded(
        parse_sidecar, sidecar_text(demo_sidecar_sentences()).splitlines(keepends=True), [70], 8),
    "parse-sidecar-ragged-in-one-block": Loaded(parse_sidecar, ragged_sidecar_lines(), [50], 12),
    # 1,000 three-row sentences: a block ends at the first sentence end at or
    # past 1,024 rows, which is row 1,026
    "a-long-sidecar-is-parsed-in-blocks-of-whole-sentences": Loaded(
        parse_sidecar, "\n".join(["2"] + ["1 0\n0 1\n2 2\n"] * 1000).splitlines(),
        [1026, 1026, 948], 1000, bases={341: 0, 342: 1}),
    "load-from-file": Loaded(load_embeddings, ["a 1 2\n", "b 3 4\n"], [2], 2, 2,
                             {"b": [3.0, 4.0]}),
}


@pytest.mark.parametrize("case", LOADED)
def test_vector_file_reads_as_its_per_line_oracle(case, monkeypatch, tmp_path, caplog):
    row = LOADED[case]
    sidecar = row.read is parse_sidecar
    want = (parse_sidecar_lines if sidecar else parse_embeddings_lines)(row.lines)
    assert embeddings._BLOCK_ROWS == 1024
    blocks = loadtxt_blocks(monkeypatch)
    source = row.lines
    if row.read is load_embeddings:
        source = tmp_path / "vectors.vec"
        source.write_text("".join(row.lines), encoding="utf-8")
    with caplog.at_level("WARNING"):
        got = row.read(source)
    assert [len(block) for block in blocks] == row.blocks
    if sidecar:
        vectors = dict(enumerate(got))
        assert [(s.shape, s.dtype, s.tobytes()) for s in got] == [
            (s.shape, s.dtype, s.tobytes()) for s in want]
    else:
        vectors = {token: got.get(token) for token in got.tokens()}
        assert got.dim == want.dim and sorted(got.tokens()) == sorted(want.tokens())
        assert all(v.tobytes() == want.get(t).tobytes() for t, v in vectors.items())
        assert row.dim in (None, got.dim)
        for token, values in row.vectors.items():
            assert token in got and got.get(token).tolist() == values
    # every vector is a row of a block, not of the per-row fallback's array
    assert all(any(v.base is block for block in blocks) for v in vectors.values())
    assert row.size in (None, len(got))
    for key, block in row.bases.items():
        assert vectors[key].base is blocks[block]
    if row.warning:
        assert row.warning in caplog.text


# --- faults of either vector file, and of a similarity query ------------------------

SMALL = EmbeddingTable(2, {
    "sun": np.array([1.0, 0.0]),
    "star": np.array([0.9, 0.1]),
    "sea": np.array([0.0, 1.0]),
    "wave": np.array([0.2, 0.8]),
})

# Named cases: a call, its arguments, and the text of the error it raises.
EMBEDDING_ERRORS = {
    "table-row-too-short": (parse_embeddings, [[
        "a 1 0 0 0 0 0 0 0", "b 1 0 0 0 0 0 0 0", "c 1 0 0 0 0 0 0"]],
        "^line 3: expected 8 values, found 7$"),
    # the first bad row in file order, whatever its fault
    "table-first-bad-row-in-file-order": (parse_embeddings, [
        ["2 2", "a 1 0", "b 1e200 0", "c x 0", "d 1 0 0"]],
        "^line 3: values are not finite or too large$"),
    "table-no-entries": (parse_embeddings, [[]], "no entries"),
    "table-value-not-a-number": (parse_embeddings, [["a 1 0", "b x y"]], "line 2"),
    "sidecar-no-header": (parse_sidecar, [["x 1 2"]], "header"),
    "sidecar-row-too-long": (parse_sidecar, [["2", "1 0", "1 0 0"]],
                             "^line 3: expected 2 values, found 3$"),
    "sidecar-header-only": (parse_sidecar, [["2"]], "^sidecar contains no sentences$"),
    "sidecar-blank-lines-only": (parse_sidecar, [["", "2", "", " \t", ""]],
                                 "^sidecar contains no sentences$"),
    "empty-token-lists-rejected": (phrase_similarity, [[], ["sun"], SMALL],
                                   "^phrase similarity requires nonempty token lists$"),
}


@pytest.mark.parametrize("case", EMBEDDING_ERRORS)
def test_embedding_error_text(case):
    call, args, message = EMBEDDING_ERRORS[case]
    with pytest.raises(EmbeddingError, match=message):
        call(*args)


# --- phrase similarity --------------------------------------------------------------

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

SUN, STAR = SMALL.get("sun"), SMALL.get("star")
UNPINNED = object()


class Similar(NamedTuple):
    """A table and phrase pairs, each scored as the 50-digit pairwise mean in
    either order; as pinned, each pair's ``score`` and the ``directions`` of
    token lists, None where no token has a usable vector."""
    table: EmbeddingTable
    pairs: list
    score: object = UNPINNED
    directions: dict = {}


SIMILARITY_CASES = {
    "identical-single-tokens": Similar(SMALL, [(["sun"], ["sun"])], 1.0),
    "all-tokens-oov-is-undefined": Similar(SMALL, [(["quark"], ["gluon"]), (["sun"], ["gluon"])],
                                           None),
    # only the sun/star pair contributes
    "oov-pairs-are-skipped": Similar(SMALL, [(["sun", "plasma"], ["star"])],
                                     pytest.approx(0.9 / math.sqrt(0.82))),
    "one-pair": Similar(EmbeddingTable(3, {"u": np.array([1.0, 2.0, 3.0]),
                                           "v": np.array([4.0, 5.0, 6.0])}),
                        [(["u"], ["v"])], pytest.approx(0.97463, abs=5e-6)),
    "demo-phrases": Similar(DEMO, [(["tablet", "computers"], ["mobile", "phone"])]
                            + random_phrases(DEMO.tokens(), np.random.default_rng(7), 25, 9, 9)),
    "scaled-zero-and-cancelling-vectors": Similar(
        SCALED, CANCELLING + random_phrases(SCALED.tokens() + OOV, _rng, 200, 11, 5)),
    "demo-with-oov-and-zero-tokens": Similar(
        DEMO, CANCELLING + random_phrases(DEMO.tokens() + OOV, _rng, 200, 11, 5)),
    "phrase-direction-without-usable-vector-is-none": Similar(
        EmbeddingTable(2, {"sun": np.array([1.0, 0.0]), "void": np.zeros(2)}),
        [(["quark", "void"], ["sun"]), (["void"], ["sun"])], None,
        {(): None, ("quark",): None, ("void",): None, ("quark", "void"): None}),
    "phrase-direction-reductions": Similar(SMALL, [(["sun", "star", "quark"], ["sun"])],
                                           directions={("sun", "star", "quark"):
                                                       (SUN + STAR / np.linalg.norm(STAR)) / 2}),
}


@pytest.mark.parametrize("case", SIMILARITY_CASES)
def test_phrase_similarity_matches_the_50_digit_pairwise_mean(case):
    table, pairs, score, directions = SIMILARITY_CASES[case]
    for left, right in pairs:
        want = pairwise_mean_cosine(left, right, table)
        got = phrase_similarity(left, right, table)
        assert got == (None if want is None else pytest.approx(want, abs=1e-12)), (left, right)
        assert phrase_similarity(right, left, table) == (
            None if got is None else pytest.approx(got, abs=1e-12))
        if score is not UNPINNED:
            assert got == score
    for tokens, want in directions.items():
        got = phrase_direction(list(tokens), table)
        assert got is None if want is None else np.allclose(got, want, rtol=0, atol=1e-15)


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


# --- tokenize ------------------------------------------------------------------------

TOKENIZE = {
    "lowercases-and-splits-punctuation": ("Apple's iPad, 2011!", ["apple", "s", "ipad", "2011"]),
    "keeps-unicode-letters": ("Bar\u00e7a", ["bar\u00e7a"]),
    "empty": ("...", []),
}


@pytest.mark.parametrize("case", TOKENIZE)
def test_tokenize(case):
    text, tokens = TOKENIZE[case]
    assert tokenize(text) == tokens
