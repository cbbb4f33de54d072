"""The batched tagger against the per-sentence, per-timestep implementation it
replaced, kept in ``conftest.py`` as the oracle: the same recurrence, loss and
gradients, and here the same training trajectory, one sentence and one step
at a time. Training and the streamed tagging path run the same recurrence over
packed rows, and both are checked against it. Training is also checked bit
for bit against the batch loop it replaced, which packed each batch from the
sentences' own arrays. Tagging in float32 is checked against the float64
streamed logits."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from finetype import tagger as tagger_module
from finetype.cli import main
from finetype.tagger import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    INFERENCE_GROUP_SIZE,
    NEAR_TIE,
    SequenceExample,
    TaggerConfig,
    TaggerModel,
    _single_precision,
    _streamed_logits,
    batch_loss_grads,
    init_params,
    train,
)

from conftest import oracle_forward, oracle_loss_grads, relative_error, synthetic_corpus

# ---------------------------------------------------------------------------
# Oracle: the trainer, one sentence at a time


def oracle_train(corpus, cfg, batched=False):
    """The trainer as it ran per sentence: same permutation, same per-sentence
    dropout draws in batch order, same Adam update. With ``batched``, the
    trainer's batch loop before it gathered batches from the joined corpus:
    one ``batch_loss_grads`` call per batch over the sentences' own arrays,
    with the batch's one dropout draw split by sentence."""
    corpus = [ex for ex in corpus if len(ex)]
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
            lengths = [len(corpus[i]) for i in batch]
            total = sum(lengths)
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            if batched:
                masks = None
                if cfg.dropout > 0.0:
                    keep = rng.random((total, cfg.encoder_width)) >= cfg.dropout
                    masks = np.split(keep / (1.0 - cfg.dropout), np.cumsum(lengths[:-1]))
                batch_nll = batch_loss_grads(params, [corpus[i].vectors for i in batch],
                                             [targets[i] for i in batch], cfg, grads,
                                             1.0 / total, masks)
            else:
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
                adam_m[key] = ADAM_BETA1 * adam_m[key] + (1.0 - ADAM_BETA1) * grads[key]
                adam_v[key] = ADAM_BETA2 * adam_v[key] + (1.0 - ADAM_BETA2) * grads[key] ** 2
                params[key] = params[key] - cfg.learning_rate * (
                    (adam_m[key] / (1.0 - ADAM_BETA1**step))
                    / (np.sqrt(adam_v[key] / (1.0 - ADAM_BETA2**step)) + ADAM_EPS)
                )
            epoch_nll += batch_nll
            epoch_tokens += total
        curve.append(epoch_nll / epoch_tokens)
    return params, curve


# ---------------------------------------------------------------------------
# Loss and gradients on ragged batches


# Sentence lengths of each batch: ragged with length-1 sentences, all equal
# (every step keeps the whole batch), a single sentence, a long tail whose
# ties must keep each sentence's own mask and targets, a single step with no
# carry, and one long sentence whose carry shrinks from 5 rows to 1 after
# step 0.
LENGTH_SETS = {"ragged": (1, 6, 3, 1, 9, 4), "all-equal": (5, 5, 5), "single": (7,),
               "long-tail": (1, 30, 2, 30), "all-one": (1, 1, 1, 1), "one-long": (1, 1, 12, 1, 1)}


def loss_grad_cases():
    # the ragged cases keep the ids they had before the other length sets
    for name, lengths in LENGTH_SETS.items():
        for bidirectional, dropout in itertools.product([False, True], repeat=2):
            ids = [str(dropout), str(bidirectional)]
            yield pytest.param(lengths, bidirectional, dropout,
                               id="-".join(ids if name == "ragged" else [name] + ids))


@pytest.mark.parametrize("lengths, bidirectional, dropout", loss_grad_cases())
def test_batched_loss_and_gradients_match_oracle(lengths, bidirectional, dropout):
    cfg = TaggerConfig(hidden_size=5, embedding_dim=4, bidirectional=bidirectional)
    rng = np.random.default_rng(31)
    params = init_params(cfg, 4, rng)
    xs = [rng.standard_normal((n, cfg.embedding_dim)) for n in lengths]
    targets = [rng.integers(0, 4, size=n) for n in lengths]
    masks = None
    if dropout:
        masks = [(rng.random((n, cfg.encoder_width)) >= 0.3) / 0.7 for n in lengths]
    scale = 1.0 / sum(lengths)

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


def tagged_corpus(lengths, dim, seed):
    """Sentences of ``lengths`` with random vectors and random BIO tags."""
    rng = np.random.default_rng(seed)
    tags = ["O", "B-a", "I-a", "B-b"]
    return [SequenceExample([f"w{k}" for k in range(n)], vectors=rng.standard_normal((n, dim)),
                            gold_tags=[tags[j] for j in rng.integers(0, len(tags), size=n)])
            for n in lengths]


def assert_trains_as_the_batch_loop(corpus, cfg):
    model = train(corpus, cfg)
    want_params, want_curve = oracle_train(corpus, cfg, batched=True)
    assert np.array_equal(model.loss_curve, want_curve)
    assert model.params.keys() == want_params.keys()
    for key, value in want_params.items():
        assert np.array_equal(model.params[key], value), key


# Named training runs that ``train`` must reproduce bit for bit: the corpus's
# sentence lengths (an empty sentence is dropped before training) and the
# config beyond hidden_size=5, embedding_dim=4, epochs=3, learning_rate=0.02.
TRAINING_CASES = {
    "ragged-batches-with-length-one": ((1, 6, 1, 0, 3, 1, 9, 4, 1), dict(batch_size=3)),
    "batch-size-does-not-divide-the-corpus": ((4, 2, 5, 3, 1, 6, 2, 4, 3, 5), dict(batch_size=4)),
    "dropout-0": ((1, 6, 1, 3, 1, 9, 4), dict(batch_size=3, dropout=0.0)),
    "dropout-0.3": ((1, 6, 1, 3, 1, 9, 4), dict(batch_size=3, dropout=0.3)),
    "bidirectional": ((1, 6, 1, 3, 1, 9, 4), dict(batch_size=3, dropout=0.3, bidirectional=True)),
    "epochs-0": ((1, 6, 1, 3), dict(batch_size=2, epochs=0)),
}


@pytest.mark.parametrize("case", TRAINING_CASES)
def test_training_equals_the_per_batch_loop(case):
    lengths, kwargs = TRAINING_CASES[case]
    cfg = TaggerConfig(**{**dict(hidden_size=5, embedding_dim=4, epochs=3, learning_rate=0.02,
                                 seed=5), **kwargs})
    assert_trains_as_the_batch_loop(tagged_corpus(lengths, cfg.embedding_dim, 13), cfg)


@settings(derandomize=True, deadline=None)
@given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(any),
       hidden=st.integers(1, 6), dim=st.integers(1, 5), bidirectional=st.booleans(),
       batch_size=st.integers(1, 8), epochs=st.integers(0, 3),
       dropout=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
       learning_rate=st.floats(1e-3, 0.1), seed=st.integers(0, 2**16))
def test_training_equals_the_per_batch_loop_on_generated_corpora(
        lengths, hidden, dim, bidirectional, batch_size, epochs, dropout, learning_rate, seed):
    cfg = TaggerConfig(hidden_size=hidden, embedding_dim=dim, bidirectional=bidirectional,
                       batch_size=batch_size, epochs=epochs, dropout=dropout,
                       learning_rate=learning_rate, seed=seed)
    assert_trains_as_the_batch_loop(tagged_corpus(lengths, dim, seed), cfg)


# ---------------------------------------------------------------------------
# Batched inference


def ragged_corpus(dim, rng):
    """Ragged sentences, empty and length-1 ones among them, with more
    non-empty sentences than one inference group holds."""
    lengths = [0, 1, 1, 4, 75, 2, 1, 17, 3, 30, 0, 8] * 6
    assert sum(n > 0 for n in lengths) > INFERENCE_GROUP_SIZE
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


def cycled_lengths(count):
    """``count`` ragged non-empty lengths from 1 to 12."""
    return [1 + (7 * k) % 12 for k in range(count)]


def with_empties(lengths, every):
    """``lengths`` with an empty sentence before every ``every``-th one."""
    return [m for k, n in enumerate(lengths) for m in ([0, n] if k % every == 0 else [n])]


G = INFERENCE_GROUP_SIZE

# Each case's lengths and the number of inference groups they make.
STREAM_CASES = {
    "ragged": ([0, 1, 1, 4, 2, 1, 17, 3, 30, 0, 8] * 3, 1),
    "group-less-one": (cycled_lengths(G - 1), 1),
    "group": (cycled_lengths(G), 1),
    "group-plus-one": (cycled_lengths(G + 1), 2),
    "several-groups-with-empties": (with_empties(cycled_lengths(2 * G + 5), 7), 3),
    "one-far-longer": ([3, 1, 0, 4, 2, 90, 5, 1, 2, 6], 1),
    "one-far-longer-across-groups": (with_empties(cycled_lengths(G + 3), 5) + [90], 2),
    "all-empty": ([0, 0], 0),
}


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_logits_match_the_per_sentence_oracle(bidirectional, case):
    lengths, groups = STREAM_CASES[case]
    assert -(-sum(n > 0 for n in lengths) // G) == groups
    cfg = TaggerConfig(hidden_size=6, embedding_dim=3, bidirectional=bidirectional)
    rng = np.random.default_rng(23)
    model = TaggerModel(config=cfg, tags=[f"t{i}" for i in range(5)],
                        params=init_params(cfg, 5, rng))
    sentences = [rng.standard_normal((n, cfg.embedding_dim)) for n in lengths]
    want = [oracle_forward(model.params, x, cfg)[0] for x in sentences]
    got = dict(_streamed_logits(model.params, cfg, sentences))
    assert sorted(got) == [i for i, n in enumerate(lengths) if n]
    for i, logits in got.items():
        assert logits.shape == want[i].shape
        assert relative_error(logits, want[i]) <= 1e-12, i
    assert model.predict_batch(sentences) == [
        [model.tags[j] for j in got[i].argmax(axis=1)] if i in got else []
        for i in range(len(lengths))
    ]


# tracemalloc peak of the padded path (sorted chunks of at most 256 padded
# token slots, no backward caches) tagging ``contextual_corpus``, measured
# with numpy 2.4.6. Streaming must not need more.
PADDED_PATH_PEAK_BYTES = 3_300_172


def contextual_corpus():
    """A bidirectional H=128 model over 64-d vectors and 320 sentences of 3 to
    120 tokens (lognormal around 14), the shape of contextual tagging."""
    rng = np.random.default_rng(11)
    cfg = TaggerConfig(hidden_size=128, embedding_dim=64, bidirectional=True)
    model = TaggerModel(cfg, [f"t{i}" for i in range(9)], init_params(cfg, 9, rng))
    lengths = np.clip(np.round(14.0 * rng.lognormal(0.0, 0.8, 320)), 3, 120).astype(int)
    return model, [rng.standard_normal((n, 64)) for n in lengths]


def test_streamed_tagging_peak_memory_stays_within_the_recorded_bound():
    model, sentences = contextual_corpus()
    assert max(map(len, sentences)) == 120
    tracemalloc.start()
    try:
        model.predict_batch(sentences)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PADDED_PATH_PEAK_BYTES


# ---------------------------------------------------------------------------
# Tagging in float32, against the float64 streamed logits


def group_members(sentences):
    """The sentence indices of each group that ``_streamed_logits`` runs."""
    order = sorted((i for i, x in enumerate(sentences) if len(x)), key=lambda i: len(sentences[i]))
    return [order[lo : lo + G] for lo in range(0, len(order), G)]


def argmax_tags(model, logits, count):
    """Per sentence of ``count``, the tags of the argmax of its ``logits``
    (``_streamed_logits``'s as a dict), as ``predict_batch`` must tag."""
    return [[model.tags[j] for j in logits[i].argmax(axis=1)] if i in logits else []
            for i in range(count)]


@settings(derandomize=True, deadline=None)
@given(hidden=st.integers(1, 32), dim=st.integers(1, 16), tag_count=st.integers(1, 9),
       bidirectional=st.booleans(),
       pattern=st.lists(st.integers(0, 40), min_size=1, max_size=12), copies=st.integers(1, 10),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), seed=st.integers(0, 2**16),
       tie=st.booleans())
# rule 2: every tag's logit ties in float32, and float64 prefers the last
@example(hidden=8, dim=4, tag_count=3, bidirectional=True, pattern=[5, 0, 30, 1], copies=13,
         scale=1.0, seed=1, tie=True)
# rule 1: input values above SINGLE_PRECISION_BOUND
@example(hidden=8, dim=4, tag_count=3, bidirectional=True, pattern=[5, 0, 30, 1], copies=13,
         scale=1e150, seed=1, tie=False)
# float32 subnormal inputs: the logits' gaps fall below rule 2's floor; without it
# float32 tags this input otherwise
@example(hidden=8, dim=4, tag_count=5, bidirectional=True, pattern=[3, 7, 1, 12], copies=5,
         scale=1e-43, seed=19, tie=False)
def test_float32_tagging_keeps_the_float64_argmax(hidden, dim, tag_count, bidirectional,
                                                  pattern, copies, scale, seed, tie):
    cfg = TaggerConfig(hidden_size=hidden, embedding_dim=dim, bidirectional=bidirectional)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, tag_count, rng)
    tie = tie and tag_count > 1
    if tie:
        # one decoder row for every tag, and a bias step that float32 cannot hold at 0.5
        params["dec_w"][:] = params["dec_w"][0]
        params["dec_b"][:] = 0.5
        params["dec_b"][-1] += 1e-9
    model = TaggerModel(cfg, [f"t{i}" for i in range(tag_count)], params)
    sentences = [scale * rng.standard_normal((n, dim)) for n in pattern * copies]
    want = dict(_streamed_logits(params, cfg, sentences))
    assert model.predict_batch(sentences) == argmax_tags(model, want, len(sentences))

    single = _single_precision(params)
    drawn_scale = 1e-3 <= scale <= 1e3
    if drawn_scale:
        got = dict(_streamed_logits(single, cfg, sentences))
        error = max((max(np.abs(got[i] - want[i]).max() for i in group)
                     / max(np.abs(want[i]).max() for i in group)
                     for group in group_members(sentences)), default=0.0)
        target(error, label="float32 logit error relative to the group's largest |logit|")
        assert error <= NEAR_TIE / 10
        if tie and want:  # float32 alone would tag otherwise
            assert any((got[i].argmax(axis=1) != want[i].argmax(axis=1)).any() for i in want)
    if tie or not drawn_scale:
        # every group runs in float64: the logits are float64's, bit for bit
        mixed = dict(_streamed_logits(params, cfg, sentences, single))
        assert sorted(mixed) == sorted(want)
        assert all(np.array_equal(mixed[i], want[i]) for i in want)


def recorded_group_dtypes(monkeypatch):
    """The dtype of every group run by ``_group_logits``, in run order."""
    dtypes = []
    group_logits = tagger_module._group_logits

    def recording(params, cfg, layout, x):
        dtypes.append(x.dtype.name)
        return group_logits(params, cfg, layout, x)

    monkeypatch.setattr(tagger_module, "_group_logits", recording)
    return dtypes


def test_float32_tagging_runs_on_the_demo(tmp_path, monkeypatch, demo_config_path):
    dtypes = recorded_group_dtypes(monkeypatch)
    assert main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(tmp_path)]) == 0
    assert dtypes and set(dtypes) == {"float32"}  # no group went back to float64


def test_float32_tagging_runs_on_the_contextual_corpus(monkeypatch):
    model, sentences = contextual_corpus()
    dtypes = recorded_group_dtypes(monkeypatch)
    tags = model.predict_batch(sentences)
    groups = len(group_members(sentences))
    # every group runs in float32 first; an untrained model's logits come near
    # a tie in a few, which then run again in float64
    assert dtypes[:groups] == ["float32"] * groups
    assert set(dtypes[groups:]) <= {"float64"} and len(dtypes) - groups <= groups // 2
    want = dict(_streamed_logits(model.params, model.config, sentences))
    assert tags == argmax_tags(model, want, len(sentences))
