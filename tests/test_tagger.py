import itertools
import re

import mpmath
import numpy as np
import pytest

from finetype.embeddings import EmbeddingError, EmbeddingTable, parse_sidecar
from finetype.tagger import (
    CorpusError,
    MentionSpan,
    PrecomputedVectors,
    SequenceExample,
    StaticVectors,
    TaggerConfig,
    TaggerModel,
    TrainingError,
    attach_vectors,
    extract_spans,
    init_params,
    parse_conll,
    train,
)

from conftest import (desk_cfg, oracle_forward, relative_error, run_gradient_check,
                      sentence_logits, synthetic_corpus)


# ---------------------------------------------------------------------------
# One sentence through the batched core, against the per-step oracle


def logits_of(model: TaggerModel, x) -> np.ndarray:
    return sentence_logits(model.params, x, model.config)[0]


def high_precision_logits(params, x) -> np.ndarray:
    """The logits of a unidirectional H = D = 1 model over the sentence
    ``x``, one token at a time at 50 digits from the exact values of the
    float parameters, with the sigmoid as 1 / (1 + e^-z)."""
    with mpmath.workdps(50):
        w, u, b, proj, dec_w, dec_b = ([mpmath.mpf(float(v)) for v in params[key].ravel()]
                                       for key in ("lstm_w", "lstm_u", "lstm_b", "proj_w",
                                                   "dec_w", "dec_b"))
        sigmoid = lambda z: 1 / (1 + mpmath.exp(-z))
        h = c = mpmath.mpf(0)
        rows = []
        for token in x[:, 0]:
            token = mpmath.mpf(float(token))
            i, f, g, o = (w[k] * token + u[k] * h + b[k] for k in range(4))
            c = sigmoid(f) * c + sigmoid(i) * mpmath.tanh(g)
            h = sigmoid(o) * mpmath.tanh(c)
            rows.append([float(weight * (h + proj[0] * token) + bias)
                         for weight, bias in zip(dec_w, dec_b)])
    return np.array(rows)


# Named cases of one sentence's forward pass: the config, the tag count, the
# sentence lengths, and what is done to the initial parameters: nothing, the
# output gate of each direction shut (bias -1e9, so h_t is exactly 0 and the
# decoder reads the residual projection alone), every parameter zeroed (every
# gate 1/2, candidate 0, so cell, hidden state and logits are exactly 0), the
# forget and output gates saturated open (bias 1e9, so both are exactly 1) with
# the recurrence and the residual cut (U = 0 and proj_w = 0) over one token
# repeated, so the decoder reads h = tanh(c) and c grows by the same step each
# token. A scalar model (H = D = 1) is also checked against the 50-digit
# ``high_precision_logits``.
FORWARD_CASES = {
    "forward": (dict(hidden_size=6, embedding_dim=3), 5, (1, 2, 11), None),
    "bidirectional": (dict(hidden_size=6, embedding_dim=3, bidirectional=True), 5, (1, 2, 11),
                      None),
    "empty-sentence": (dict(hidden_size=4, embedding_dim=3), 3, (0,), None),
    "shapes": (dict(hidden_size=6, embedding_dim=4), 5, (1, 2, 9), None),
    "bidirectional-doubles-the-encoder-width": (
        dict(hidden_size=4, embedding_dim=3, bidirectional=True), 2, (4,), None),
    "no-dropout-without-masks": (dict(hidden_size=8, embedding_dim=4, dropout=0.5), 3, (6,),
                                 None),
    "output-gate-shut": (dict(hidden_size=5, embedding_dim=4), 3, (6,), "shut"),
    "bidirectional-output-gates-shut": (
        dict(hidden_size=5, embedding_dim=4, bidirectional=True), 3, (1, 6), "shut"),
    "zero-weights": (dict(hidden_size=3, embedding_dim=2), 4, (1, 5), "zero"),
    "scalar-against-high-precision": (dict(hidden_size=1, embedding_dim=1), 3, (1, 2, 9),
                                      "high-precision"),
    "saturated-forget-gate-grows-linearly": (dict(hidden_size=1, embedding_dim=1), 2, (50,),
                                             "saturated"),
}


@pytest.mark.parametrize("case", FORWARD_CASES)
def test_sentence_forward_matches_the_per_step_oracle(case):
    kwargs, tag_count, lengths, tweak = FORWARD_CASES[case]
    cfg = TaggerConfig(**kwargs)
    rng = np.random.default_rng(8)
    params = init_params(cfg, tag_count, rng)
    for name, value in params.items():
        if tweak == "shut" and name.startswith("lstm_b"):
            value[3 * cfg.hidden_size :] = -1e9
        elif tweak == "zero" or tweak == "saturated" and name in ("lstm_u", "proj_w"):
            value[...] = 0.0
    if tweak == "saturated":
        params["lstm_b"][[1, 3]] = 1e9
    width = cfg.hidden_size * (2 if cfg.bidirectional else 1)
    assert params["dec_w"].shape == (tag_count, width)
    for length in lengths:
        x = rng.standard_normal((length, cfg.embedding_dim))
        if tweak == "saturated":
            x[:] = x[0]
        got, dec_in = sentence_logits(params, x, cfg)
        want, _ = oracle_forward(params, x, cfg)
        assert got.shape == want.shape == (length, tag_count)
        assert not length or relative_error(got, want) <= 1e-12
        if tweak == "shut":
            proj = x @ params["proj_w"].T
            assert np.array_equal(dec_in, proj)
            assert np.array_equal(got, proj @ params["dec_w"].T + params["dec_b"])
        elif tweak == "zero":
            assert not dec_in.any() and not got.any()
        elif tweak == "high-precision":
            assert relative_error(got, high_precision_logits(params, x)) <= 1e-14
        elif tweak == "saturated":
            cells = np.arctanh(dec_in[:, 0])
            assert np.allclose(np.diff(cells), cells[0], rtol=1e-12, atol=1e-12)
            assert np.allclose(cells[-1], length * cells[0], rtol=1e-9)
            assert np.all(np.abs(dec_in) < 1.0)  # h stays bounded as the cell grows


def test_encode_rejects_wrong_vector_dimension():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3)
    params = init_params(cfg, 3, np.random.default_rng(5))
    with pytest.raises(ValueError, match=r"\(L, 3\)"):
        sentence_logits(params, np.zeros((2, 7)), cfg)


# ---------------------------------------------------------------------------
# Gradient check against central finite differences


def test_gradients_with_dropout_mask_fixed():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3, dropout=0.0)
    assert run_gradient_check(cfg, length=4, seed=13, dropout=0.5) < 1e-4


# ---------------------------------------------------------------------------
# Training


def test_zero_learning_rate_leaves_parameters_at_init():
    corpus = synthetic_corpus()[:1]
    frozen = train(corpus, desk_cfg(epochs=1, learning_rate=0.0))
    init_only = train(corpus, desk_cfg(epochs=0, learning_rate=0.0))
    assert all(np.array_equal(frozen.params[k], init_only.params[k]) for k in frozen.params)


@pytest.mark.parametrize("corpus, message", [
    ([], "empty"),
    ([SequenceExample(["a"], vectors=np.zeros((1, 16)))], "gold tags"),
    ([SequenceExample(["a"], vectors=np.zeros((1, 4)), gold_tags=["O"])], "dimension"),
], ids=["empty", "untagged", "dimension"])
def test_training_corpus_error_text(corpus, message):
    with pytest.raises(TrainingError, match=message):
        train(corpus, desk_cfg())


def test_divergence_aborts_with_diagnostic():
    # one enormous step overflows the logits; the next batch sees a NaN loss
    corpus = synthetic_corpus()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite"):
        train(corpus, desk_cfg(epochs=10, learning_rate=1e200, dropout=0.0))


def test_model_save_load_round_trip(tmp_path):
    corpus = synthetic_corpus()
    model = train(corpus, desk_cfg(epochs=3))
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = TaggerModel.load(path)
    assert loaded.tags == model.tags
    x = corpus[0].vectors
    assert np.array_equal(logits_of(loaded, x), logits_of(model, x))

    bidirectional = train(corpus, desk_cfg(epochs=2, bidirectional=True))
    for saved in (model, bidirectional):
        directory = tmp_path / f"bidirectional-{saved.config.bidirectional}"
        directory.mkdir()
        saved.save(directory / "model.bin")
        saved.save(directory / "again.bin")
        # written at exactly the given paths, byte for byte the same
        assert sorted(p.name for p in directory.iterdir()) == ["again.bin", "model.bin"]
        assert (directory / "again.bin").read_bytes() == (directory / "model.bin").read_bytes()
        loaded = TaggerModel.load(directory / "model.bin")
        assert loaded.config == saved.config
        assert loaded.tags == saved.tags
        assert loaded.loss_curve == saved.loss_curve
        assert loaded.params.keys() == saved.params.keys()
        for key, value in saved.params.items():
            assert loaded.params[key].dtype == value.dtype
            assert np.array_equal(loaded.params[key], value), key
    assert np.array_equal(logits_of(loaded, x), logits_of(bidirectional, x))


# ---------------------------------------------------------------------------
# BIO span codec


def reference_spans(tags):
    """Independent scan-ahead definition of BIO span extraction."""
    spans = []
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        label = tag[2:]
        j = i + 1
        while j < len(tags) and tags[j] == f"I-{label}":
            j += 1
        spans.append((i, j, label))
        i = j
    return spans


# Named tag sequences and the spans they hold.
SPAN_CASES = {
    "simple-run": (["B-per", "I-per", "O"], [(0, 2, "per")]),
    "all-outside": (["O", "O", "O"], []),
    "orphan-inside-starts-a-new-span": (["I-loc", "B-per"], [(0, 1, "loc"), (1, 2, "per")]),
    "adjacent-b-tags": (["B-a", "B-a"], [(0, 1, "a"), (1, 2, "a")]),
    "type-switch-inside": (["B-a", "I-b"], [(0, 1, "a"), (1, 2, "b")]),
    "empty-sentence": ([], []),
    "run-to-the-end": (["O", "B-loc", "I-loc"], [(1, 3, "loc")]),
    "orphan-inside-run": (["O", "I-a", "I-a", "O"], [(1, 3, "a")]),
}


@pytest.mark.parametrize("case", SPAN_CASES)
def test_extract_spans_matches_the_scan_ahead_oracle(case):
    tags, spans = SPAN_CASES[case]
    assert reference_spans(tags) == spans
    assert extract_spans(tags) == [MentionSpan(*span) for span in spans]


def test_extract_rejects_malformed_tag():
    with pytest.raises(ValueError, match="BIO"):
        extract_spans(["B-a", "X-a"])
    with pytest.raises(ValueError, match="BIO"):
        extract_spans(["B"])


def test_extract_matches_reference_fsm_exhaustively_len4():
    alphabet = ["O", "B-a", "I-a", "B-b", "I-b"]
    for length in range(5):
        for tags in itertools.product(alphabet, repeat=length):
            got = [(s.start, s.end, s.coarse) for s in extract_spans(list(tags))]
            assert got == reference_spans(list(tags)), tags


def test_span_validation():
    with pytest.raises(ValueError):
        MentionSpan(2, 2, "a")
    with pytest.raises(ValueError):
        MentionSpan(-1, 1, "a")


# ---------------------------------------------------------------------------
# Corpus and sidecar IO


def test_parse_conll_sentences_and_tags():
    text = "John\tB-per\nsmith\tI-per\n\nParis\tB-loc\n.\tO\n"
    examples = parse_conll(text.splitlines())
    assert len(examples) == 2
    assert examples[0].tokens == ["John", "smith"]
    assert examples[0].gold_tags == ["B-per", "I-per"]


def test_parse_conll_tag_with_space():
    examples = parse_conll(["FC\tB-organization.sports team"])
    assert examples[0].gold_tags == ["B-organization.sports team"]


def test_parse_conll_untagged():
    examples = parse_conll(["John", "runs", "", "Paris"])
    assert [ex.gold_tags for ex in examples] == [None, None]


# CoNLL faults, and the text each is reported with. A tag extract_spans
# rejects is cited on the first line holding it, as extract_spans words it.
CONLL_ERRORS = [
    (["John\tB-per", "runs"], "mixes"),
    (["a\tb\tc"], "line 1"),
    *((["John\tB-per", "", f"runs\t{tag}", f"runs\t{tag}"],
       rf"^line 3: not a BIO tag: {re.escape(repr(tag))}$")
      for tag in ["X-date", "B-", "I", "Bperson", "O-person", "b-person"]),
]


@pytest.mark.parametrize("lines, message", CONLL_ERRORS)
def test_parse_conll_error_text(lines, message):
    with pytest.raises(CorpusError, match=message):
        parse_conll(lines)


def test_parse_sidecar_and_alignment():
    lines = ["3", "1 0 0", "0 1 0", "", "0 0 1"]
    sentences = parse_sidecar(lines)
    assert len(sentences) == 2
    assert sentences[0].shape == (2, 3)
    provider = PrecomputedVectors(sentences)
    assert provider.dim == 3
    got = provider.vectors_for(1, ["tok"])
    assert np.array_equal(got, [[0, 0, 1]])
    with pytest.raises(CorpusError, match="2 vectors for 1 tokens"):
        provider.vectors_for(0, ["tok"])
    with pytest.raises(CorpusError, match="no vectors"):
        provider.vectors_for(5, ["tok"])


def test_attach_vectors_rejects_sidecar_sentence_count_mismatch():
    provider = PrecomputedVectors([np.zeros((1, 2)), np.zeros((2, 2)), np.zeros((1, 2))])
    corpus = [SequenceExample(["a"]), SequenceExample(["b", "c"])]
    with pytest.raises(CorpusError, match="sidecar holds 3 sentences but the corpus has 2"):
        attach_vectors(corpus, provider)
    assert len(attach_vectors(corpus + [SequenceExample(["d"])], provider)) == 3


def test_sidecar_file_the_block_refuses_is_read_through_float(tmp_path):
    path = tmp_path / "context.vec"
    path.write_text("2\n1 0\n\n1_0 2\n")  # float takes 1_0, np.loadtxt does not
    assert [s.tolist() for s in PrecomputedVectors.load(path).sentences] == [
        [[1.0, 0.0]], [[10.0, 2.0]]]


@pytest.mark.parametrize("data, message", [
    (b"2\n1 0\n\n1 0 0\n", "line 4: expected 2 values, found 3"),
    # the bad byte is decoded after 5,000 rows have been read
    (b"2\n" + b"1.000000 0.000000\n" * 5000 + b"\xff 1\n", "line 5002: not UTF-8 text"),
], ids=["row-width", "not-utf8-past-the-first-read"])
def test_sidecar_file_error_names_the_file_and_line(tmp_path, data, message):
    path = tmp_path / "context.vec"
    path.write_bytes(data)
    with pytest.raises(EmbeddingError, match=rf"^{re.escape(str(path))}: {message}$"):
        PrecomputedVectors.load(path)


def test_static_vectors_oov_is_zero():
    table = EmbeddingTable(2, {"known": np.array([1.0, 2.0])})
    provider = StaticVectors(table)
    got = provider.vectors_for(0, ["Known", "unknown"])
    assert np.array_equal(got, [[1, 2], [0, 0]])


def test_attach_vectors():
    table = EmbeddingTable(2, {"a": np.array([1.0, 0.0])})
    corpus = [SequenceExample(["a", "b"])]
    out = attach_vectors(corpus, StaticVectors(table))
    assert out[0].vectors.shape == (2, 2)
    assert corpus[0].vectors is None  # original untouched
