"""The batched tagger against the per-sentence, per-timestep implementation it
replaced, kept here as the oracle: the same recurrence, loss and gradients,
and the same training trajectory, one sentence and one step at a time."""

import numpy as np
import pytest

from finetype.tagger import (
    INFERENCE_TOKEN_SLOTS,
    SequenceExample,
    TaggerConfig,
    TaggerModel,
    _length_chunks,
    batch_loss_grads,
    init_params,
    train,
)

from test_tagger import sentence_logits, synthetic_corpus

# ---------------------------------------------------------------------------
# Oracle: one sentence, one timestep at a time


def oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_lstm_forward(w, u, b, x):
    length = len(x)
    hidden = u.shape[1]
    gates = np.zeros((length, 4 * hidden))
    cs = np.zeros((length, hidden))
    tcs = np.zeros((length, hidden))
    hs = np.zeros((length, hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(length):
        z = w @ x[t] + u @ h + b
        i = oracle_sigmoid(z[:hidden])
        f = oracle_sigmoid(z[hidden : 2 * hidden])
        g = np.tanh(z[2 * hidden : 3 * hidden])
        o = oracle_sigmoid(z[3 * hidden :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t] = np.concatenate([i, f, g, o])
        cs[t] = c
        tcs[t] = tc
        hs[t] = h
    return hs, {"gates": gates, "cs": cs, "tcs": tcs, "hs": hs, "x": x}


def oracle_lstm_backward(u, cache, dhs, dw, du, db):
    gates, cs, tcs, hs, x = cache["gates"], cache["cs"], cache["tcs"], cache["hs"], cache["x"]
    length, hidden = tcs.shape
    dh_carry = np.zeros(hidden)
    dc_carry = np.zeros(hidden)
    for t in range(length - 1, -1, -1):
        i, f, g, o = np.split(gates[t], 4)
        c_prev = cs[t - 1] if t > 0 else np.zeros(hidden)
        h_prev = hs[t - 1] if t > 0 else np.zeros(hidden)
        dh = dhs[t] + dh_carry
        do = dh * tcs[t]
        dc = dc_carry + dh * o * (1.0 - tcs[t] ** 2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)]
        )
        dw += np.outer(dz, x[t])
        du += np.outer(dz, h_prev)
        db += dz
        dh_carry = u.T @ dz


def oracle_forward(params, x, cfg, dropout_mask=None):
    hs_fwd, cache_fwd = oracle_lstm_forward(
        params["lstm_w"], params["lstm_u"], params["lstm_b"], x
    )
    cache = {"fwd": cache_fwd, "mask": dropout_mask}
    hs = hs_fwd
    if cfg.bidirectional:
        hs_rev, cache["bwd"] = oracle_lstm_forward(
            params["lstm_w_rev"], params["lstm_u_rev"], params["lstm_b_rev"], x[::-1]
        )
        hs = np.concatenate([hs_fwd, hs_rev[::-1]], axis=1)
    if dropout_mask is not None:
        hs = hs * dropout_mask
    cache["dec_in"] = hs + x @ params["proj_w"].T
    return cache["dec_in"] @ params["dec_w"].T + params["dec_b"], cache


def oracle_loss_grads(params, x, targets, cfg, grads, scale=1.0, dropout_mask=None):
    logits, cache = oracle_forward(params, x, cfg, dropout_mask)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(x))
    nll = -float(log_probs[rows, targets].sum())
    dlogits = np.exp(log_probs)
    dlogits[rows, targets] -= 1.0
    dlogits *= scale
    grads["dec_w"] += dlogits.T @ cache["dec_in"]
    grads["dec_b"] += dlogits.sum(axis=0)
    ddec_in = dlogits @ params["dec_w"]
    grads["proj_w"] += ddec_in.T @ x
    dhs = ddec_in if dropout_mask is None else ddec_in * dropout_mask
    hidden = cfg.hidden_size
    oracle_lstm_backward(params["lstm_u"], cache["fwd"], dhs[:, :hidden],
                         grads["lstm_w"], grads["lstm_u"], grads["lstm_b"])
    if cfg.bidirectional:
        oracle_lstm_backward(params["lstm_u_rev"], cache["bwd"], dhs[::-1, hidden:],
                             grads["lstm_w_rev"], grads["lstm_u_rev"], grads["lstm_b_rev"])
    return nll


def oracle_train(corpus, cfg):
    """The trainer as it ran per sentence: same permutation, same per-sentence
    dropout draws in batch order, same Adam update."""
    tags = sorted({t for ex in corpus for t in ex.gold_tags} | {"O"})
    targets = [np.array([tags.index(t) for t in ex.gold_tags]) for ex in corpus]
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, len(tags), rng)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        epoch_nll, epoch_tokens = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            total = sum(len(corpus[i]) for i in batch)
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            batch_nll = 0.0
            for i in batch:
                mask = None
                if cfg.dropout > 0.0:
                    keep = rng.random((len(corpus[i]), cfg.encoder_width)) >= cfg.dropout
                    mask = keep / (1.0 - cfg.dropout)
                batch_nll += oracle_loss_grads(params, corpus[i].vectors, targets[i], cfg,
                                               grads, 1.0 / total, mask)
            step += 1
            for key in params:
                adam_m[key] = cfg.beta1 * adam_m[key] + (1.0 - cfg.beta1) * grads[key]
                adam_v[key] = cfg.beta2 * adam_v[key] + (1.0 - cfg.beta2) * grads[key] ** 2
                params[key] = params[key] - cfg.learning_rate * (
                    (adam_m[key] / (1.0 - cfg.beta1**step))
                    / (np.sqrt(adam_v[key] / (1.0 - cfg.beta2**step)) + cfg.eps)
                )
            epoch_nll += batch_nll
            epoch_tokens += total
        curve.append(epoch_nll / epoch_tokens)
    return params, curve


def relative_error(got, want):
    """Largest absolute difference, relative to the largest reference magnitude."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


# ---------------------------------------------------------------------------
# Loss and gradients on ragged batches


RAGGED_LENGTHS = (1, 6, 3, 1, 9, 4)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("dropout", [False, True])
def test_batched_loss_and_gradients_match_oracle(bidirectional, dropout):
    cfg = TaggerConfig(hidden_size=5, embedding_dim=4, bidirectional=bidirectional)
    rng = np.random.default_rng(31)
    params = init_params(cfg, 4, rng)
    xs = [rng.standard_normal((n, cfg.embedding_dim)) for n in RAGGED_LENGTHS]
    targets = [rng.integers(0, 4, size=n) for n in RAGGED_LENGTHS]
    masks = None
    if dropout:
        masks = [(rng.random((n, cfg.encoder_width)) >= 0.3) / 0.7 for n in RAGGED_LENGTHS]
    scale = 1.0 / sum(RAGGED_LENGTHS)

    want = {k: np.zeros_like(v) for k, v in params.items()}
    want_nll = sum(
        oracle_loss_grads(params, x, y, cfg, want, scale, None if masks is None else masks[k])
        for k, (x, y) in enumerate(zip(xs, targets))
    )
    got = {k: np.zeros_like(v) for k, v in params.items()}
    got_nll = batch_loss_grads(params, xs, targets, cfg, got, scale, masks)

    assert abs(got_nll - want_nll) <= 1e-12 * abs(want_nll)
    for key in params:
        assert relative_error(got[key], want[key]) <= 1e-12, key


@pytest.mark.parametrize("bidirectional", [False, True])
def test_sentence_forward_matches_oracle(bidirectional):
    cfg = TaggerConfig(hidden_size=6, embedding_dim=3, bidirectional=bidirectional)
    rng = np.random.default_rng(8)
    params = init_params(cfg, 5, rng)
    for length in (1, 2, 11):
        x = rng.standard_normal((length, cfg.embedding_dim))
        got, _ = sentence_logits(params, x, cfg)
        want, _ = oracle_forward(params, x, cfg)
        assert relative_error(got, want) <= 1e-12


def test_training_follows_the_oracle_trajectory():
    # ragged sentences, several per batch, dropout on: same permutation, same
    # dropout draws, same updates up to rounding
    corpus = synthetic_corpus()
    one = corpus[2]
    corpus[2] = SequenceExample(one.tokens[:1], vectors=one.vectors[:1], gold_tags=one.gold_tags[:1])
    cfg = TaggerConfig(hidden_size=8, embedding_dim=16, dropout=0.2, batch_size=3,
                       epochs=4, learning_rate=0.02, seed=3)
    model = train(corpus, cfg)
    want_params, want_curve = oracle_train(corpus, cfg)
    assert relative_error(np.array(model.loss_curve), np.array(want_curve)) <= 1e-12
    for key, value in want_params.items():
        assert relative_error(model.params[key], value) <= 1e-12, key


# ---------------------------------------------------------------------------
# Batched inference


def ragged_corpus(dim, rng):
    lengths = [0, 1, 1, 4, INFERENCE_TOKEN_SLOTS + 9, 2, 1, 17, 3, 30, 0, 8] * 3
    return [rng.standard_normal((n, dim)) for n in lengths]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_predict_batch_equals_per_sentence_predict(bidirectional):
    cfg = TaggerConfig(hidden_size=6, embedding_dim=3, bidirectional=bidirectional)
    rng = np.random.default_rng(17)
    model = TaggerModel(config=cfg, tags=[f"t{i}" for i in range(5)],
                        params=init_params(cfg, 5, rng))
    sentences = ragged_corpus(cfg.embedding_dim, rng)
    batched = model.predict_batch(sentences)
    assert batched == [model.predict(x) for x in sentences]
    assert [len(tags) for tags in batched] == [len(x) for x in sentences]


def test_predict_batch_checks_vector_shape():
    cfg = TaggerConfig(hidden_size=4, embedding_dim=3)
    model = TaggerModel(config=cfg, tags=["O", "B-a"],
                        params=init_params(cfg, 2, np.random.default_rng(0)))
    with pytest.raises(ValueError, match=r"\(L, 3\)"):
        model.predict_batch([np.zeros((2, 3)), np.zeros((2, 7))])


def test_length_chunks_respect_the_slot_budget():
    lengths = [0, 5, 1, 40, 3, 0, 12, 7, 7, 2]
    chunks = _length_chunks(lengths, 16)
    flat = [i for chunk in chunks for i in chunk]
    assert sorted(flat) == [i for i, n in enumerate(lengths) if n]
    assert [lengths[i] for i in flat] == sorted(n for n in lengths if n)
    for chunk in chunks:
        longest = max(lengths[i] for i in chunk)
        assert len(chunk) == 1 or len(chunk) * longest <= 16
    assert [3] in chunks  # longer than the budget: a chunk of its own
