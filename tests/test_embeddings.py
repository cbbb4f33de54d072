import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetype.embeddings import (
    MEAN_VECTOR,
    PAIRWISE_MEAN,
    EmbeddingError,
    EmbeddingTable,
    direction_similarity,
    load_embeddings,
    parse_embeddings,
    phrase_direction,
    phrase_similarity,
    tokenize,
)


def cosine(u, v):
    """dot(u, v) / (|u| |v|), clipped to [-1, 1] against float round-off: the
    per-pair formula that the one-direction similarity is checked against."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise EmbeddingError("cosine is undefined for a zero vector")
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


def test_dimension_mismatch_cites_line():
    with pytest.raises(EmbeddingError, match="line 3"):
        parse_embeddings(["a 1 0 0 0 0 0 0 0", "b 1 0 0 0 0 0 0 0", "c 1 0 0 0 0 0 0"])


def test_duplicate_token_last_wins_with_warning(caplog):
    with caplog.at_level("WARNING"):
        table = parse_embeddings(["a 1 0", "a 0 1"])
    assert "duplicate token" in caplog.text
    assert np.allclose(table.get("a"), [0, 1])


def test_empty_file_rejected():
    with pytest.raises(EmbeddingError, match="no entries"):
        parse_embeddings([])


def test_bad_float_cites_line():
    with pytest.raises(EmbeddingError, match="line 2"):
        parse_embeddings(["a 1 0", "b x y"])


def test_tokens_lowercased_on_load_and_query():
    table = parse_embeddings(["Apple 1 0"])
    assert "APPLE" in table
    assert table.get("apple") is not None


# --- cosine ----------------------------------------------------------------------

def test_cosine_identity():
    v = [0.3, -1.2, 4.0]
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine([1, 0], [0, 1]) == 0.0


def test_cosine_against_high_precision_oracle():
    u, v = [1, 2, 3], [4, 5, 6]
    expected = mp_cosine(u, v)
    assert expected == pytest.approx(0.97463, abs=5e-6)
    assert cosine(u, v) == pytest.approx(expected, abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(EmbeddingError, match="zero vector"):
        cosine([0, 0], [1, 0])


def test_cosine_length_mismatch():
    with pytest.raises(EmbeddingError, match="mismatch"):
        cosine([1, 0], [1, 0, 0])


finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=3, max_size=3,
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


@settings(max_examples=200, deadline=None)
@given(u=finite_vec, v=finite_vec)
def test_cosine_symmetry_and_range(u, v):
    a = cosine(u, v)
    assert a == cosine(v, u)
    assert -1.0 <= a <= 1.0


@settings(max_examples=200, deadline=None)
@given(u=finite_vec, v=finite_vec, alpha=st.floats(min_value=1e-3, max_value=1e3))
def test_cosine_scale_invariance(u, v, alpha):
    scaled = [alpha * x for x in u]
    assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-12)


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


def test_pairwise_mean_matches_brute_force_oracle(demo_table):
    desc, sub = ["tablet", "computers"], ["mobile", "phone"]
    pairs = [
        mp_cosine(demo_table.get(d), demo_table.get(s))
        for d in desc for s in sub
    ]
    expected = sum(pairs) / len(pairs)
    got = phrase_similarity(desc, sub, demo_table)
    assert got == pytest.approx(expected, abs=1e-12)


def test_pairwise_mean_skips_oov_pairs(small_table):
    # 'plasma' is unknown: only the sun/star pair contributes
    got = phrase_similarity(["sun", "plasma"], ["star"], small_table)
    assert got == pytest.approx(cosine([1, 0], [0.9, 0.1]))


def test_oracle_identity_on_random_small_phrases(demo_table):
    rng = np.random.default_rng(7)
    vocab = demo_table.tokens()
    for _ in range(25):
        desc = list(rng.choice(vocab, size=rng.integers(1, 10)))
        sub = list(rng.choice(vocab, size=rng.integers(1, 10)))
        pairs = [mp_cosine(demo_table.get(d), demo_table.get(s)) for d in desc for s in sub]
        expected = sum(pairs) / len(pairs)
        assert phrase_similarity(desc, sub, demo_table) == pytest.approx(expected, abs=1e-12)


def test_phrase_similarity_symmetry(demo_table):
    a = phrase_similarity(["tablet", "computers"], ["mobile", "phone"], demo_table)
    b = phrase_similarity(["mobile", "phone"], ["tablet", "computers"], demo_table)
    assert a == pytest.approx(b, abs=1e-12)


def test_mean_vector_mode(small_table):
    u = (np.array([1.0, 0.0]) + np.array([0.9, 0.1])) / 2
    v = np.array([0.2, 0.8])
    expected = mp_cosine(u, v)
    got = phrase_similarity(["sun", "star"], ["wave"], small_table, mode=MEAN_VECTOR)
    assert got == pytest.approx(expected, abs=1e-12)


def test_mean_vector_mode_fully_oov_side_is_undefined(small_table):
    assert phrase_similarity(["sun"], ["quark"], small_table, mode=MEAN_VECTOR) is None


def test_unknown_mode_rejected(small_table):
    with pytest.raises(EmbeddingError, match="mode"):
        phrase_similarity(["sun"], ["sun"], small_table, mode="max")
    with pytest.raises(EmbeddingError, match="mode"):
        phrase_direction(["sun"], small_table, mode="max")


@pytest.mark.parametrize("mode", [PAIRWISE_MEAN, MEAN_VECTOR])
def test_phrase_direction_without_usable_vector_is_none(mode):
    table = EmbeddingTable(2, {"sun": np.array([1.0, 0.0]), "void": np.zeros(2)})
    for tokens in ([], ["quark"], ["void"], ["quark", "void"]):
        assert phrase_direction(tokens, table, mode) is None


def test_phrase_direction_reductions(small_table):
    sun, star = np.array([1.0, 0.0]), np.array([0.9, 0.1])
    pairwise = phrase_direction(["sun", "star", "quark"], small_table, PAIRWISE_MEAN)
    assert np.allclose(pairwise, (sun + star / np.linalg.norm(star)) / 2, rtol=0, atol=1e-15)
    mean = phrase_direction(["sun", "star", "quark"], small_table, MEAN_VECTOR)
    assert np.allclose(mean, (sun + star) / np.linalg.norm(sun + star), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", [PAIRWISE_MEAN, MEAN_VECTOR])
def test_phrase_similarity_is_clipped_dot_of_directions(small_table, mode):
    left = phrase_direction(["sun", "star"], small_table, mode)
    right = phrase_direction(["wave", "sea"], small_table, mode)
    assert phrase_similarity(["sun", "star"], ["wave", "sea"], small_table, mode) == float(
        np.clip(left @ right, -1.0, 1.0)) == direction_similarity(left, right)


def per_pair_similarity_oracle(description_tokens, subtype_tokens, table, mode):
    """The per-pair formulation: mean of cosine over every in-vocabulary pair,
    or cosine of the two mean vectors; zero vectors count as out of vocabulary."""
    desc = [v for v in (table.get(t) for t in description_tokens) if v is not None and v.any()]
    sub = [v for v in (table.get(t) for t in subtype_tokens) if v is not None and v.any()]
    if not desc or not sub:
        return None
    if mode == MEAN_VECTOR:
        u = np.mean(desc, axis=0)
        v = np.mean(sub, axis=0)
        if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
            return None
        return cosine(u, v)
    return float(np.mean([cosine(d, s) for d in desc for s in sub]))


@pytest.mark.parametrize("mode", [PAIRWISE_MEAN, MEAN_VECTOR])
def test_one_formula_matches_per_pair_oracle(mode, demo_table):
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
            want = per_pair_similarity_oracle(desc, sub, table, mode)
            got = phrase_similarity(desc, sub, table, mode)
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
