import math
import random

import mpmath
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

from conftest import DEMO_DIR, demo_sidecar_sentences, parse_sidecar_lines, sidecar_text


def cosine(u, v):
    """dot(u, v) / (|u| |v|), clipped to [-1, 1] against float round-off: the
    per-pair formula that the one-direction similarity is checked against."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def mp_cosine(u, v):
    """High-precision oracle for the cosine formula."""
    with mpmath.workdps(50):
        u = [mpmath.mpf(x) for x in u]
        v = [mpmath.mpf(x) for x in v]
        dot = mpmath.fsum(a * b for a, b in zip(u, v))
        nu = mpmath.sqrt(mpmath.fsum(a * a for a in u))
        nv = mpmath.sqrt(mpmath.fsum(b * b for b in v))
        return float(dot / (nu * nv))


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


# --- cosine ----------------------------------------------------------------------

def test_cosine_against_high_precision_oracle():
    u, v = [1, 2, 3], [4, 5, 6]
    expected = mp_cosine(u, v)
    assert expected == pytest.approx(0.97463, abs=5e-6)
    assert cosine(u, v) == pytest.approx(expected, abs=1e-12)


# --- phrase similarity --------------------------------------------------------------

@pytest.fixture()
def small_table():
    return EmbeddingTable(2, {
        "sun": np.array([1.0, 0.0]),
        "star": np.array([0.9, 0.1]),
        "sea": np.array([0.0, 1.0]),
        "wave": np.array([0.2, 0.8]),
    })


def test_identical_single_tokens(small_table):
    assert phrase_similarity(["sun"], ["sun"], small_table) == pytest.approx(1.0)


def test_all_tokens_oov_is_undefined(small_table):
    assert phrase_similarity(["quark"], ["gluon"], small_table) is None
    assert phrase_similarity(["sun"], ["gluon"], small_table) is None


def test_empty_token_lists_rejected(small_table):
    with pytest.raises(EmbeddingError):
        phrase_similarity([], ["sun"], small_table)


def test_pairwise_mean_skips_oov_pairs(small_table):
    # 'plasma' is unknown: only the sun/star pair contributes
    got = phrase_similarity(["sun", "plasma"], ["star"], small_table)
    assert got == pytest.approx(cosine([1, 0], [0.9, 0.1]))


def test_pairwise_mean_matches_brute_force_oracle(demo_table):
    rng = np.random.default_rng(7)
    vocab = demo_table.tokens()
    cases = [(["tablet", "computers"], ["mobile", "phone"])]
    for _ in range(25):
        cases.append((list(rng.choice(vocab, size=rng.integers(1, 10))),
                      list(rng.choice(vocab, size=rng.integers(1, 10)))))
    for desc, sub in cases:
        pairs = [mp_cosine(demo_table.get(d), demo_table.get(s)) for d in desc for s in sub]
        expected = sum(pairs) / len(pairs)
        assert phrase_similarity(desc, sub, demo_table) == pytest.approx(expected, abs=1e-12)


def test_phrase_similarity_symmetry(demo_table):
    a = phrase_similarity(["tablet", "computers"], ["mobile", "phone"], demo_table)
    b = phrase_similarity(["mobile", "phone"], ["tablet", "computers"], demo_table)
    assert a == pytest.approx(b, abs=1e-12)


def test_phrase_direction_without_usable_vector_is_none():
    table = EmbeddingTable(2, {"sun": np.array([1.0, 0.0]), "void": np.zeros(2)})
    for tokens in ([], ["quark"], ["void"], ["quark", "void"]):
        assert phrase_direction(tokens, table) is None


def test_phrase_direction_reductions(small_table):
    sun, star = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    got = phrase_direction(["sun", "star", "quark"], small_table)
    assert np.allclose(got, (sun + star / np.linalg.norm(star)) / 2, rtol=0, atol=1e-15)


def test_phrase_direction_ignores_each_token_vector_scale():
    # each token counts by its direction alone: rescaling one token's vector
    # moves nothing, where a mean of raw vectors would lean toward the longer one
    rng = np.random.default_rng(5)
    vectors = {f"w{i}": rng.standard_normal(6) for i in range(10)}
    scaled = {t: v * rng.uniform(1e-3, 1e3) for t, v in vectors.items()}
    table, rescaled = EmbeddingTable(6, vectors), EmbeddingTable(6, scaled)
    for _ in range(30):
        tokens = list(rng.choice(list(vectors), size=rng.integers(1, 8)))
        assert np.allclose(phrase_direction(tokens, rescaled), phrase_direction(tokens, table),
                           rtol=0, atol=1e-14), tokens


def test_phrase_direction_weights_repeated_tokens_by_count(small_table):
    sun, star = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    got = phrase_direction(["sun", "star", "sun"], small_table)
    assert np.allclose(got, (2 * sun + star / np.linalg.norm(star)) / 3, rtol=0, atol=1e-15)


def test_phrase_similarity_is_clipped_dot_of_directions(small_table):
    left = phrase_direction(["sun", "star"], small_table)
    right = phrase_direction(["wave", "sea"], small_table)
    assert phrase_similarity(["sun", "star"], ["wave", "sea"], small_table) == float(
        np.clip(left @ right, -1.0, 1.0)) == direction_similarity(left, right)


def per_pair_similarity_oracle(description_tokens, subtype_tokens, table):
    """The per-pair formulation: mean of cosine over every in-vocabulary pair;
    zero vectors count as out of vocabulary."""
    desc = [v for v in (table.get(t) for t in description_tokens) if v is not None and v.any()]
    sub = [v for v in (table.get(t) for t in subtype_tokens) if v is not None and v.any()]
    if not desc or not sub:
        return None
    return float(np.mean([cosine(d, s) for d in desc for s in sub]))


def test_one_formula_matches_per_pair_oracle(demo_table):
    rng = np.random.default_rng(11)
    vectors = {f"w{i}": rng.standard_normal(8) * rng.uniform(0.01, 100) for i in range(30)}
    vectors["zero"] = np.zeros(8)
    vectors["neg"] = -vectors["w0"]  # cancels w0 in a mean
    for table in (EmbeddingTable(8, vectors), demo_table):
        vocab = table.tokens() + ["oov", "zero", "unseen"]
        cases = [(["w0", "neg"], ["w1"]), (["zero"], ["w1"]), (["oov", "zero"], ["oov"])]
        for _ in range(200):
            cases.append((list(rng.choice(vocab, size=rng.integers(1, 12))),
                          list(rng.choice(vocab, size=rng.integers(1, 6)))))
        for desc, sub in cases:
            want = per_pair_similarity_oracle(desc, sub, table)
            got = phrase_similarity(desc, sub, table)
            if want is None:
                assert got is None, (desc, sub)
            else:
                assert got == pytest.approx(want, abs=1e-12), (desc, sub)


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
    assert math.isclose(cosine(table.get("a"), table.get("b")), mp_cosine([1, 2], [3, 4]))
