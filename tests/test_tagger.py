import itertools

import mpmath
import numpy as np
import pytest

from finetype.embeddings import EmbeddingTable
from finetype.tagger import (
    CorpusError,
    MentionSpan,
    PrecomputedVectors,
    SequenceExample,
    StaticVectors,
    TaggerConfig,
    TaggerModel,
    TrainingError,
    _cell,
    _encode,
    _gate_affine,
    _pad_batch,
    attach_vectors,
    batch_loss_grads,
    extract_spans,
    init_params,
    parse_conll,
    parse_sidecar,
    tags_of_spans,
    train,
)


# ---------------------------------------------------------------------------
# One sentence through the batched core


def lstm_cell_step(x, state, w, u, b):
    """One gated update with the recurrence's own gate math: ``w`` is (4H, D),
    ``u`` is (4H, H), ``b`` is (4H,), gate blocks input, forget, candidate,
    output. Returns (h, c)."""
    h_prev, c_prev = state
    _, c, _, h = _cell(w @ x + u @ h_prev + b, c_prev, *_gate_affine(u.shape[1]))
    return h, c


def sentence_logits(params, x, cfg, dropout_mask=None):
    """Per-token logits (L, K) and decoder input (L, width) of one sentence,
    run as a batch of one."""
    xb, lengths = _pad_batch([x], cfg.embedding_dim)
    mask = None if dropout_mask is None else np.asarray(dropout_mask)[:, None]
    logits, cache = _encode(params, xb, lengths, cfg, mask)
    return logits[:, 0], cache["dec_in"][:, 0]


def logits_of(model: TaggerModel, x) -> np.ndarray:
    return sentence_logits(model.params, x, model.config)[0]


def token_accuracy(model, corpus):
    """Fraction of the corpus's tokens whose predicted tag equals the gold tag."""
    predicted = model.predict_batch([ex.vectors for ex in corpus])
    correct = sum(
        p == g for ex, tags in zip(corpus, predicted) for p, g in zip(tags, ex.gold_tags)
    )
    return correct / sum(len(ex) for ex in corpus)


# ---------------------------------------------------------------------------
# LSTM cell


def test_cell_zero_weights_zero_input_closed_form():
    hidden, dim = 3, 2
    w = np.zeros((4 * hidden, dim))
    u = np.zeros((4 * hidden, hidden))
    b = np.zeros(4 * hidden)
    h0 = np.zeros(hidden)
    c0 = np.zeros(hidden)
    h, c = lstm_cell_step(np.zeros(dim), (h0, c0), w, u, b)
    # gates all sigmoid(0) = 1/2, candidate tanh(0) = 0
    assert np.array_equal(c, np.zeros(hidden))
    assert np.array_equal(h, np.tanh(0.0) * (1.0 / (1.0 + np.exp(0.0))) * np.ones(hidden) * 0)
    assert np.array_equal(h, np.zeros(hidden))


def test_cell_scalar_step_against_high_precision_oracle():
    w = np.array([[0.5], [-0.3], [0.8], [0.2]])
    u = np.array([[0.1], [0.4], [-0.2], [0.3]])
    b = np.array([0.05, -0.1, 0.2, 0.15])
    x = np.array([0.7])
    h0, c0 = np.array([0.4]), np.array([-0.2])

    with mpmath.workdps(50):
        sig = lambda z: 1 / (1 + mpmath.e**-z)
        i = sig(mpmath.mpf("0.5") * mpmath.mpf("0.7") + mpmath.mpf("0.1") * mpmath.mpf("0.4") + mpmath.mpf("0.05"))
        f = sig(mpmath.mpf("-0.3") * mpmath.mpf("0.7") + mpmath.mpf("0.4") * mpmath.mpf("0.4") + mpmath.mpf("-0.1"))
        g = mpmath.tanh(mpmath.mpf("0.8") * mpmath.mpf("0.7") + mpmath.mpf("-0.2") * mpmath.mpf("0.4") + mpmath.mpf("0.2"))
        o = sig(mpmath.mpf("0.2") * mpmath.mpf("0.7") + mpmath.mpf("0.3") * mpmath.mpf("0.4") + mpmath.mpf("0.15"))
        c_exp = f * mpmath.mpf("-0.2") + i * g
        h_exp = o * mpmath.tanh(c_exp)

    h, c = lstm_cell_step(x, (h0, c0), w, u, b)
    assert abs(c[0] - float(c_exp)) < 1e-9
    assert abs(h[0] - float(h_exp)) < 1e-9


def test_cell_saturated_forget_gate_grows_linearly():
    hidden, dim = 2, 3
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4 * hidden, dim))
    u = np.zeros((4 * hidden, hidden))  # sever recurrence: gates depend on x only
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1e9  # forget gate saturates to exactly 1
    x = np.array([0.3, -0.5, 0.7])

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    cells = []
    for _ in range(50):
        h, c = lstm_cell_step(x, (h, c), w, u, b)
        cells.append(c.copy())
    cells = np.array(cells)
    deltas = np.diff(cells, axis=0)
    assert np.allclose(deltas, deltas[0], rtol=1e-12, atol=1e-12)
    assert np.allclose(cells[-1], 50 * deltas[0], rtol=1e-9)
    # hidden output stays bounded even as the cell grows
    assert np.all(np.abs(h) <= 1.0)


# ---------------------------------------------------------------------------
# Encoder contracts


def make_model(cfg: TaggerConfig, tag_count=3, seed=5) -> TaggerModel:
    rng = np.random.default_rng(seed)
    params = init_params(cfg, tag_count, rng)
    return TaggerModel(config=cfg, tags=[f"t{i}" for i in range(tag_count)], params=params)


def test_encode_empty_sequence():
    model = make_model(TaggerConfig(hidden_size=4, embedding_dim=3, epochs=1))
    logits = logits_of(model, np.zeros((0, 3)))
    assert logits.shape == (0, 3)
    assert model.predict(np.zeros((0, 3))) == []


def test_encode_shape_contract():
    cfg = TaggerConfig(hidden_size=6, embedding_dim=4)
    model = make_model(cfg, tag_count=5)
    for length in (1, 2, 9):
        logits = logits_of(model, np.random.default_rng(1).standard_normal((length, 4)))
        assert logits.shape == (length, 5)


def test_softmax_rows_normalize():
    cfg = TaggerConfig(hidden_size=6, embedding_dim=4)
    model = make_model(cfg, tag_count=5)
    logits = logits_of(model, np.random.default_rng(2).standard_normal((7, 4)))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_encode_inference_is_deterministic():
    cfg = TaggerConfig(hidden_size=8, embedding_dim=4, dropout=0.5)
    model = make_model(cfg)
    x = np.random.default_rng(3).standard_normal((6, 4))
    assert np.array_equal(logits_of(model, x), logits_of(model, x))


def test_residual_identity_when_lstm_output_is_forced_to_zero():
    # output-gate bias at -1e9 makes sigmoid exactly 0, so h_t is exactly 0
    cfg = TaggerConfig(hidden_size=5, embedding_dim=4)
    model = make_model(cfg)
    hidden = cfg.hidden_size
    model.params["lstm_b"][3 * hidden :] = -1e9
    x = np.random.default_rng(4).standard_normal((6, 4))
    logits, dec_in = sentence_logits(model.params, x, cfg)
    proj = x @ model.params["proj_w"].T
    assert np.array_equal(dec_in, proj)
    assert np.array_equal(logits, proj @ model.params["dec_w"].T + model.params["dec_b"])


def test_encode_rejects_wrong_vector_dimension():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3)
    model = make_model(cfg)
    with pytest.raises(ValueError, match=r"\(L, 3\)"):
        logits_of(model, np.zeros((2, 7)))


def test_bidirectional_doubles_encoder_width():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3, bidirectional=True)
    model = make_model(cfg, tag_count=2)
    assert model.params["dec_w"].shape == (2, 8)
    logits = logits_of(model, np.random.default_rng(5).standard_normal((4, 3)))
    assert logits.shape == (4, 2)


# ---------------------------------------------------------------------------
# Gradient check against central finite differences


def loss_only(params, x, targets, cfg):
    logits, _ = sentence_logits(params, x, cfg)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(log_probs[np.arange(len(x)), targets].sum())


def run_gradient_check(cfg, length=5, tag_count=3, seed=9):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, tag_count, rng)
    x = rng.standard_normal((length, cfg.embedding_dim))
    targets = rng.integers(0, tag_count, size=length)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    batch_loss_grads(params, [x], [targets], cfg, grads, scale=1.0)
    eps = 1e-5
    worst = 0.0
    for key, value in params.items():
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = value[idx]
            value[idx] = orig + eps
            plus = loss_only(params, x, targets, cfg)
            value[idx] = orig - eps
            minus = loss_only(params, x, targets, cfg)
            value[idx] = orig
            numeric = (plus - minus) / (2 * eps)
            analytic = grads[key][idx]
            rel = abs(analytic - numeric) / max(1e-6, abs(analytic), abs(numeric))
            worst = max(worst, rel)
    return worst


def test_gradients_match_central_differences_forward():
    cfg = TaggerConfig(hidden_size=6, embedding_dim=4, dropout=0.0)
    assert run_gradient_check(cfg) < 1e-4


def test_gradients_match_central_differences_bidirectional():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3, dropout=0.0, bidirectional=True)
    assert run_gradient_check(cfg, length=4) < 1e-4


def test_gradients_with_dropout_mask_fixed():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3, dropout=0.0)
    rng = np.random.default_rng(13)
    params = init_params(cfg, 3, rng)
    x = rng.standard_normal((4, 3))
    targets = rng.integers(0, 3, size=4)
    mask = (rng.random((4, 4)) >= 0.5) / 0.5
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    batch_loss_grads(params, [x], [targets], cfg, grads, scale=1.0, dropout_masks=[mask])
    # numeric check on one parameter block through the masked path
    eps = 1e-5
    key, idx = "proj_w", (1, 2)

    def masked_loss():
        logits, _ = sentence_logits(params, x, cfg, dropout_mask=mask)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -float(lp[np.arange(4), targets].sum())

    orig = params[key][idx]
    params[key][idx] = orig + eps
    plus = masked_loss()
    params[key][idx] = orig - eps
    minus = masked_loss()
    params[key][idx] = orig
    numeric = (plus - minus) / (2 * eps)
    assert abs(grads[key][idx] - numeric) / max(1e-6, abs(numeric)) < 1e-4


# ---------------------------------------------------------------------------
# Training


def synthetic_corpus(dim=16, seed=21):
    """Ten sentences over a small vocabulary with consistent per-token tags."""
    vocab = {
        "john": "B-per", "mary": "B-per", "smith": "I-per",
        "paris": "B-loc", "berlin": "B-loc", "acme": "B-org", "corp": "I-org",
        "visited": "O", "lives": "O", "in": "O", "works": "O", "at": "O",
        "the": "O", "office": "O", ".": "O",
    }
    sentences = [
        "john smith visited paris .",
        "mary lives in berlin .",
        "john works at acme corp .",
        "mary smith visited berlin .",
        "acme corp works in paris .",
        "john visited the office .",
        "mary works at acme corp .",
        "john smith lives in paris .",
        "the office in berlin .",
        "mary visited john smith .",
    ]
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.standard_normal(dim) for tok in vocab}
    corpus = []
    for sent in sentences:
        tokens = sent.split()
        corpus.append(
            SequenceExample(
                tokens,
                vectors=np.array([vectors[t] for t in tokens]),
                gold_tags=[vocab[t] for t in tokens],
            )
        )
    return corpus


def desk_cfg(**kwargs):
    base = dict(hidden_size=32, embedding_dim=16, dropout=0.1, batch_size=4,
                epochs=50, learning_rate=0.02, seed=7)
    base.update(kwargs)
    return TaggerConfig(**base)


def test_training_memorizes_synthetic_corpus():
    corpus = synthetic_corpus()
    model = train(corpus, desk_cfg())
    assert token_accuracy(model, corpus) >= 0.95
    assert model.final_loss is not None and model.final_loss < 1.0


def test_training_is_bitwise_deterministic():
    corpus = synthetic_corpus()
    a = train(corpus, desk_cfg(epochs=8))
    b = train(corpus, desk_cfg(epochs=8))
    assert a.loss_curve == b.loss_curve
    assert a.tags == b.tags
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_zero_learning_rate_leaves_parameters_at_init():
    corpus = synthetic_corpus()[:1]
    frozen = train(corpus, desk_cfg(epochs=1, learning_rate=0.0))
    init_only = train(corpus, desk_cfg(epochs=0, learning_rate=0.0))
    assert all(np.array_equal(frozen.params[k], init_only.params[k]) for k in frozen.params)


def test_empty_corpus_rejected():
    with pytest.raises(TrainingError, match="empty"):
        train([], desk_cfg())


def test_missing_gold_tags_rejected():
    ex = SequenceExample(["a"], vectors=np.zeros((1, 16)))
    with pytest.raises(TrainingError, match="gold tags"):
        train([ex], desk_cfg())


def test_dimension_mismatch_rejected():
    ex = SequenceExample(["a"], vectors=np.zeros((1, 4)), gold_tags=["O"])
    with pytest.raises(TrainingError, match="dimension"):
        train([ex], desk_cfg())


def test_divergence_aborts_with_diagnostic():
    # one enormous step overflows the logits; the next batch sees a NaN loss
    corpus = synthetic_corpus()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite"):
        train(corpus, desk_cfg(epochs=10, learning_rate=1e200, dropout=0.0))


def test_loss_curve_length_matches_epochs():
    corpus = synthetic_corpus()
    model = train(corpus, desk_cfg(epochs=5))
    assert len(model.loss_curve) == 5


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


def test_extract_simple_run():
    assert extract_spans(["B-per", "I-per", "O"]) == [MentionSpan(0, 2, "per")]


def test_extract_all_outside():
    assert extract_spans(["O", "O", "O"]) == []


def test_extract_orphan_inside_starts_new_span():
    got = extract_spans(["I-loc", "B-per"])
    assert got == [MentionSpan(0, 1, "loc"), MentionSpan(1, 2, "per")]


def test_extract_adjacent_b_tags():
    assert extract_spans(["B-a", "B-a"]) == [MentionSpan(0, 1, "a"), MentionSpan(1, 2, "a")]


def test_extract_type_switch_inside():
    assert extract_spans(["B-a", "I-b"]) == [MentionSpan(0, 1, "a"), MentionSpan(1, 2, "b")]


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


def test_tags_of_spans_round_trip():
    spans = [MentionSpan(0, 2, "per"), MentionSpan(3, 4, "loc")]
    tags = tags_of_spans(spans, 5)
    assert tags == ["B-per", "I-per", "O", "B-loc", "O"]
    assert extract_spans(tags) == spans


def test_tags_of_spans_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        tags_of_spans([MentionSpan(0, 2, "a"), MentionSpan(1, 3, "b")], 4)


def test_tags_of_spans_rejects_out_of_range():
    with pytest.raises(ValueError, match="exceeds"):
        tags_of_spans([MentionSpan(0, 9, "a")], 4)


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


def test_parse_conll_mixed_sentence_rejected():
    with pytest.raises(CorpusError, match="mixes"):
        parse_conll(["John\tB-per", "runs"])


def test_parse_conll_too_many_columns():
    with pytest.raises(CorpusError, match="line 1"):
        parse_conll(["a\tb\tc"])


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


def test_parse_sidecar_needs_header():
    with pytest.raises(CorpusError, match="header"):
        parse_sidecar(["x 1 2"])


def test_parse_sidecar_row_width_checked():
    with pytest.raises(CorpusError, match="line 3"):
        parse_sidecar(["2", "1 0", "1 0 0"])


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
