"""Coarse BIO sequence tagger built from scratch on numpy.

Per-token vectors come from a pluggable provider (a static word-vector table
or a precomputed contextual-vector sidecar), feed a gated LSTM encoder with a
residual connection from the projected input, and a softmax layer decodes
per-token tags. Training is plain Adam over mini-batches with inverted
dropout on the encoder output; everything is deterministic under a seed.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .textfile import open_utf8


class CorpusError(ValueError):
    """Malformed corpus or sidecar file, or provider/corpus misalignment."""


class TrainingError(RuntimeError):
    """Training cannot proceed (empty corpus, missing tags, divergence)."""


class ModelError(ValueError):
    """Unreadable or malformed model file."""


# ---------------------------------------------------------------------------
# Mention spans and the BIO codec


@dataclass(frozen=True, order=True)
class MentionSpan:
    """Half-open token span [start, end) carrying a coarse label."""

    start: int
    end: int
    coarse: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span boundaries [{self.start}, {self.end})")


def extract_spans(tags: Sequence[str]) -> list[MentionSpan]:
    """Decode BIO tags into spans.

    Maximal ``B-t (I-t)*`` runs become spans; an orphan ``I-t`` (no preceding
    span of the same type) leniently starts a new span instead of erroring.
    """
    spans: list[MentionSpan] = []
    start: int | None = None
    label = ""

    def close(end: int) -> None:
        nonlocal start
        if start is not None:
            spans.append(MentionSpan(start, end, label))
            start = None

    for idx, tag in enumerate(tags):
        if tag == "O":
            close(idx)
            continue
        prefix, dash, tag_label = tag.partition("-")
        if prefix not in ("B", "I") or not dash or not tag_label:
            raise ValueError(f"not a BIO tag: {tag!r}")
        if prefix == "B" or start is None or tag_label != label:
            close(idx)
            start = idx
            label = tag_label
    close(len(tags))
    return spans


def tags_of_spans(spans: Iterable[MentionSpan], length: int) -> list[str]:
    """Encode non-overlapping spans as a BIO tag sequence of ``length``."""
    tags = ["O"] * length
    for span in sorted(spans):
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        if any(t != "O" for t in tags[span.start : span.end]):
            raise ValueError(f"span {span} overlaps a previous span")
        tags[span.start] = f"B-{span.coarse}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.coarse}"
    return tags


# ---------------------------------------------------------------------------
# Corpus and sidecar files


@dataclass
class SequenceExample:
    """One sentence: tokens, optional per-token vectors, optional gold tags."""

    tokens: list[str]
    vectors: np.ndarray | None = None
    gold_tags: list[str] | None = None

    def __post_init__(self):
        if self.gold_tags is not None and len(self.gold_tags) != len(self.tokens):
            raise CorpusError("gold tag count differs from token count")
        if self.vectors is not None and len(self.vectors) != len(self.tokens):
            raise CorpusError("vector count differs from token count")

    def __len__(self) -> int:
        return len(self.tokens)


def parse_conll(lines: Iterable[str]) -> list[SequenceExample]:
    """Read ``token<TAB>tag`` sentences separated by blank lines.

    Lines are split on tabs only, so tags may contain spaces
    (``B-organization.sports team``). A sentence must be uniformly tagged or
    uniformly untagged.
    """
    examples: list[SequenceExample] = []
    tokens: list[str] = []
    tags: list[str | None] = []

    def flush(lineno: int) -> None:
        if not tokens:
            return
        tagged = [t for t in tags if t is not None]
        if tagged and len(tagged) != len(tokens):
            raise CorpusError(f"line {lineno}: sentence mixes tagged and untagged tokens")
        examples.append(
            SequenceExample(list(tokens), gold_tags=list(tagged) if tagged else None)
        )
        tokens.clear()
        tags.clear()

    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush(lineno)
            continue
        cols = line.split("\t")
        token = cols[0].strip()
        if not token:
            raise CorpusError(f"line {lineno}: empty token")
        if len(cols) == 1:
            tokens.append(token)
            tags.append(None)
        elif len(cols) == 2:
            tag = cols[1].strip()
            if not tag:
                raise CorpusError(f"line {lineno}: empty tag")
            tokens.append(token)
            tags.append(tag)
        else:
            raise CorpusError(f"line {lineno}: expected 'token<TAB>tag', found {len(cols)} columns")
    flush(lineno + 1)
    return examples


def read_conll(path: str | os.PathLike[str]) -> list[SequenceExample]:
    with open_utf8(path, CorpusError) as fh:
        return parse_conll(fh)


def write_conll(path: str | os.PathLike[str], examples: Iterable[SequenceExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            tags = ex.gold_tags or ["O"] * len(ex.tokens)
            for token, tag in zip(ex.tokens, tags):
                fh.write(f"{token}\t{tag}\n")
            fh.write("\n")


def parse_sidecar(lines: Iterable[str]) -> list[np.ndarray]:
    """Read precomputed per-token vectors: a dimension header line, then one
    float row per token with blank lines between sentences."""
    dim: int | None = None
    sentences: list[np.ndarray] = []
    current: list[np.ndarray] = []

    def flush() -> None:
        if current:
            sentences.append(np.array(current, dtype=float))
            current.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if dim is None:
            if not line:
                continue
            # ASCII digits only: str.isdigit also accepts digits int() rejects, like '²'
            if not (line.isascii() and line.isdigit()):
                raise CorpusError(f"line {lineno}: expected a dimension header")
            try:
                dim = int(line)
            except ValueError:
                raise CorpusError(f"line {lineno}: dimension header is too long") from None
            if dim < 1:
                raise CorpusError(f"line {lineno}: dimension must be positive")
            continue
        if not line:
            flush()
            continue
        try:
            row = np.array([float(v) for v in line.split()], dtype=float)
        except ValueError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        if len(row) != dim:
            raise CorpusError(f"line {lineno}: expected {dim} values, found {len(row)}")
        current.append(row)
    flush()
    if dim is None:
        raise CorpusError("sidecar file has no dimension header")
    return sentences


class StaticVectors:
    """Token vectors from a word-embedding table; unknown tokens map to zero."""

    def __init__(self, table: EmbeddingTable):
        self.table = table
        self.dim = table.dim

    def vectors_for(self, index: int, tokens: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(tokens), self.dim))
        for i, token in enumerate(tokens):
            vec = self.table.get(token)
            if vec is not None:
                out[i] = vec
        return out


class PrecomputedVectors:
    """Contextual vectors read from a sidecar, aligned with corpus order."""

    def __init__(self, sentences: list[np.ndarray]):
        if not sentences:
            raise CorpusError("sidecar contains no sentences")
        self.sentences = sentences
        self.dim = int(sentences[0].shape[1]) if sentences[0].ndim == 2 else len(sentences[0])

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "PrecomputedVectors":
        with open_utf8(path, CorpusError) as fh:
            return cls(parse_sidecar(fh))

    def vectors_for(self, index: int, tokens: Sequence[str]) -> np.ndarray:
        if index >= len(self.sentences):
            raise CorpusError(f"sidecar has no vectors for sentence {index}")
        vecs = self.sentences[index]
        if len(vecs) != len(tokens):
            raise CorpusError(
                f"sentence {index}: sidecar holds {len(vecs)} vectors for {len(tokens)} tokens"
            )
        return vecs


def attach_vectors(corpus: Sequence[SequenceExample], provider) -> list[SequenceExample]:
    """Copies of the sentences carrying their vectors. A sidecar must hold
    exactly one entry per corpus sentence."""
    if isinstance(provider, PrecomputedVectors) and len(provider.sentences) != len(corpus):
        raise CorpusError(
            f"sidecar holds {len(provider.sentences)} sentences but the corpus has {len(corpus)}"
        )
    return [
        replace(ex, vectors=provider.vectors_for(i, ex.tokens))
        for i, ex in enumerate(corpus)
    ]


# ---------------------------------------------------------------------------
# Model


# Most parameters a tagger may have, counted with a one-tag decoder: 2**27
# float64 values are 1 GiB per copy, and training keeps four (the parameters,
# their gradients and Adam's two moments). The paper's bidirectional
# H=512 model over 1024-d vectors has about 7.3M.
MAX_PARAMETERS = 2**27


@dataclass
class TaggerConfig:
    """Desk-scale defaults; the original architecture used hidden size 512,
    1024-dimensional contextual embeddings, dropout 0.2, Adam, and a batch
    size of 32 for 30 epochs."""

    hidden_size: int = 32
    embedding_dim: int = 16
    dropout: float = 0.2
    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    bidirectional: bool = False

    def __post_init__(self):
        if self.hidden_size < 1 or self.embedding_dim < 1:
            raise ValueError("hidden_size and embedding_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.seed < 0:
            raise ValueError("batch_size must be positive, and epochs and seed non-negative")
        if not (0.0 <= self.learning_rate < np.inf and 0.0 <= self.eps < np.inf):
            raise ValueError("learning_rate and eps must be finite and non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        size = sum(math.prod(shape) for shape in param_shapes(self, 1).values())
        if size > MAX_PARAMETERS:
            raise ValueError(f"hidden_size {self.hidden_size} and embedding_dim"
                             f" {self.embedding_dim} give {size} parameters, more than"
                             f" MAX_PARAMETERS ({MAX_PARAMETERS})")

    @property
    def encoder_width(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)


# Sentences per tagging group. Tagging holds one group's input vectors and
# logits (its tokens x (D + K) floats) and one step's gates (B x 4H), so this
# count, not the corpus size, bounds its memory; on ragged corpora a group of
# 48 keeps about 30 to 48 rows in each step's products.
INFERENCE_GROUP_SIZE = 48


def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit ``(s, shift)`` with which ``s * tanh(s * z) + shift`` is the
    gate activation of the (4H,) pre-activation ``z``: the sigmoid in its
    tanh form 0.5 * (1 + tanh(z / 2)) on the input, forget and output blocks,
    and tanh on the candidate block."""
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = np.full(4 * hidden, 0.5)
    shift[2 * hidden : 3 * hidden] = 0.0
    return scale, shift


def _cell(z, c_prev, scale, shift):
    """Gated update from pre-activations ``z`` (..., 4H), gate blocks ordered
    input, forget, candidate, output. Returns (gates, c, tanh(c), h)."""
    hidden = c_prev.shape[-1]
    a = np.tanh(z * scale)
    a *= scale
    a += shift
    c = a[..., hidden : 2 * hidden] * c_prev + a[..., :hidden] * a[..., 2 * hidden : 3 * hidden]
    tc = np.tanh(c)
    return a, c, tc, a[..., 3 * hidden :] * tc


def _dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis of ``x``, as one 2-D matmul."""
    flat = x.reshape(-1, x.shape[-1]) @ w.T
    return flat.reshape(x.shape[:-1] + (w.shape[0],))


def _lstm_forward(w, u, b, x):
    """Run the recurrence over a right-padded, time-major batch ``x`` (T, B, D).

    The input projection ``x W^T + b`` of every step is one matmul ahead of
    the loop; each step then adds only ``h U^T``. Returns the hidden states
    (T, B, H) and what ``_lstm_backward`` needs. Padded steps simply run on
    after a sentence ends; nothing reads them.
    """
    steps, batch, _ = x.shape
    hidden = u.shape[1]
    scale, shift = _gate_affine(hidden)
    zx = _dense(x, w) + b
    hs = np.zeros((steps + 1, batch, hidden))  # hs[t + 1] is the state after step t
    gates = np.empty_like(zx)
    cs = np.zeros((steps + 1, batch, hidden))
    tcs = np.empty((steps, batch, hidden))
    ut = u.T
    for t in range(steps):
        gates[t], cs[t + 1], tcs[t], hs[t + 1] = _cell(zx[t] + hs[t] @ ut, cs[t], scale, shift)
    return hs[1:], {"gates": gates, "cs": cs, "tcs": tcs, "hs": hs, "x": x}


def _lstm_backward(u, cache, dhs):
    """Backpropagate through time from dL/dh (T, B, H); returns (dW, dU, db).

    dZ is stored for every step so each parameter gradient is a single matmul
    after the loop. A padded step follows its sentence's real steps and gets
    zero dL/dh, so it passes zero carries back and adds exactly nothing.
    """
    gates, cs, tcs, hs, x = cache["gates"], cache["cs"], cache["tcs"], cache["hs"], cache["x"]
    steps, batch, hidden = tcs.shape
    i, f, g, o = np.moveaxis(gates.reshape(steps, batch, 4, hidden), 2, 0)
    # Everything but the carried dh and dc is known before the loop: dZ is dc
    # times via_c on the input, forget and candidate blocks and dh times
    # via_h on the output block, and dc gains dh times dc_dh.
    via_c = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g**2)], axis=2)
    via_h = tcs * o * (1.0 - o)
    dc_dh = o * (1.0 - tcs**2)
    dz = np.empty((steps, batch, 4, hidden))
    dh_carry = np.zeros((batch, hidden))
    dc_carry = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        dh = dhs[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        np.multiply(dc[:, None], via_c[t], out=dz[t, :, :3])
        np.multiply(dh, via_h[t], out=dz[t, :, 3])
        dc_carry = dc * f[t]
        dh_carry = dz[t].reshape(batch, -1) @ u
    flat = dz.reshape(-1, 4 * hidden)
    dw = flat.T @ x.reshape(-1, x.shape[-1])
    du = flat.T @ hs[:-1].reshape(-1, hidden)
    return dw, du, flat.sum(axis=0)


def param_shapes(cfg: TaggerConfig, tag_count: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in initialization order."""
    gates, width = 4 * cfg.hidden_size, cfg.encoder_width
    shapes = {"lstm_w": (gates, cfg.embedding_dim), "lstm_u": (gates, cfg.hidden_size),
              "lstm_b": (gates,)}
    if cfg.bidirectional:
        shapes.update({f"{name}_rev": shape for name, shape in shapes.items()})
    shapes.update(proj_w=(width, cfg.embedding_dim), dec_w=(tag_count, width), dec_b=(tag_count,))
    return shapes


def init_params(cfg: TaggerConfig, tag_count: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases with the forget-gate block at 1."""
    params = {}
    for name, shape in param_shapes(cfg, tag_count).items():
        if len(shape) == 2:
            scale = np.sqrt(6.0 / sum(shape))
            params[name] = rng.uniform(-scale, scale, size=shape)
        else:
            params[name] = np.zeros(shape)
            if name.startswith("lstm_b"):
                params[name][cfg.hidden_size : 2 * cfg.hidden_size] = 1.0
    return params


def _pad(rows: Sequence[np.ndarray], steps: int, dtype=float) -> np.ndarray:
    """Stack (L_k, ...) arrays right-padded with zeros and time-major: (steps, B, ...)."""
    out = np.zeros((steps, len(rows)) + np.shape(rows[0])[1:], dtype=dtype)
    for k, row in enumerate(rows):
        out[: len(row), k] = row
    return out


def _checked_vectors(xs: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Each sentence's vectors as a float array, checked to be (L, dim)."""
    arrays = [np.asarray(x, dtype=float) for x in xs]
    for x in arrays:
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValueError(f"expected vectors of shape (L, {dim}), got {x.shape}")
    return arrays


def _pad_batch(xs: Sequence[np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Check that every sentence's vectors are (L, dim) and pad them into one
    time-major batch (T, B, dim); returns the batch and the lengths."""
    arrays = _checked_vectors(xs, dim)
    lengths = np.array([len(x) for x in arrays])
    return _pad(arrays, int(lengths.max())), lengths


def _reversal(lengths: np.ndarray, steps: int) -> np.ndarray:
    """(T, B) time index that reverses each sentence within its own length
    and keeps its padding in place, so padding still follows the real steps.
    It is its own inverse."""
    t = np.arange(steps)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t)


def _encode(params, x, lengths, cfg, mask=None):
    """Per-token logits (T, B, K) for a right-padded, time-major batch.

    The residual path adds the projected input embedding to the (optionally
    dropped-out) encoder output; ``mask`` is the padded (T, B, width) dropout
    mask. The cache holds the decoder input and the recurrence state that
    backpropagation needs.
    """
    hs, fwd = _lstm_forward(params["lstm_w"], params["lstm_u"], params["lstm_b"], x)
    cache: dict = {"fwd": fwd}
    if cfg.bidirectional:
        rev = _reversal(lengths, len(x))
        cols = np.arange(x.shape[1])
        hs_rev, cache["bwd"] = _lstm_forward(
            params["lstm_w_rev"], params["lstm_u_rev"], params["lstm_b_rev"], x[rev, cols]
        )
        hs = np.concatenate([hs, hs_rev[rev, cols]], axis=2)
        cache["rev"] = rev
    if mask is not None:
        hs = hs * mask
    cache["dec_in"] = hs + _dense(x, params["proj_w"])
    return _dense(cache["dec_in"], params["dec_w"]) + params["dec_b"], cache


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_loss_grads(
    params: dict[str, np.ndarray],
    xs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    cfg: TaggerConfig,
    grads: dict[str, np.ndarray],
    scale: float = 1.0,
    dropout_masks: Sequence[np.ndarray] | None = None,
) -> float:
    """Summed token negative log-likelihood of a batch of sentences, run
    together right-padded to the longest; gradients of ``scale * nll_sum``
    are accumulated into ``grads``.

    The loss gradient is zero at padded positions, which therefore add
    nothing to any gradient.
    """
    x, lengths = _pad_batch(xs, cfg.embedding_dim)
    steps, batch, dim = x.shape
    mask = None if dropout_masks is None else _pad(dropout_masks, steps)
    logits, cache = _encode(params, x, lengths, cfg, mask)
    valid = np.arange(steps)[:, None] < lengths
    t_idx, b_idx = np.nonzero(valid)
    gold = _pad(targets, steps, dtype=int)[t_idx, b_idx]
    log_probs = _log_softmax(logits)
    nll = -float(log_probs[t_idx, b_idx, gold].sum())

    dlogits = np.exp(log_probs)
    dlogits[t_idx, b_idx, gold] -= 1.0
    dlogits[~valid] = 0.0
    dlogits *= scale

    width = cfg.encoder_width
    dlogits = dlogits.reshape(-1, logits.shape[2])
    grads["dec_w"] += dlogits.T @ cache["dec_in"].reshape(-1, width)
    grads["dec_b"] += dlogits.sum(axis=0)
    ddec_in = dlogits @ params["dec_w"]
    grads["proj_w"] += ddec_in.T @ x.reshape(-1, dim)

    dhs = ddec_in.reshape(steps, batch, width)
    if mask is not None:
        dhs = dhs * mask
    hidden = cfg.hidden_size
    directions = [("", cache["fwd"], dhs[..., :hidden])]
    if cfg.bidirectional:
        rev = cache["rev"]
        directions.append(("_rev", cache["bwd"], dhs[..., hidden:][rev, np.arange(batch)]))
    for suffix, lstm_cache, dhs_dir in directions:
        dw, du, db = _lstm_backward(params["lstm_u" + suffix], lstm_cache, dhs_dir)
        grads["lstm_w" + suffix] += dw
        grads["lstm_u" + suffix] += du
        grads["lstm_b" + suffix] += db
    return nll


def _packed_logits(params, cfg, xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-token logits of a group of non-empty sentences ``xs``, longest
    first, and the step offsets of their time-major packed rows.

    Step t has one row per sentence still running, and those are a prefix of
    the group: sentence k's token t is row ``offsets[t] + k``. The forward
    direction reads step t's rows as a slice, the reverse one gathers each
    running sentence's token ``L_k - 1 - t`` by a row index, so no padded
    slot is computed. The input projection is made per step, and each
    direction adds its share ``h dec_w[:, dir]^T`` of the linear decoder to
    the logits at once, so only the input and the logits are held per token;
    the residual ``x (dec_w proj_w)^T + dec_b`` is added once.
    """
    lengths = np.array([len(x) for x in xs])
    running = (lengths[:, None] > np.arange(lengths[0])).sum(axis=0)
    offsets = np.concatenate([[0], np.cumsum(running)])
    x = np.empty((offsets[-1], cfg.embedding_dim))
    for k, xk in enumerate(xs):
        x[offsets[: len(xk)] + k] = xk
    dec_w, hidden = params["dec_w"], cfg.hidden_size
    logits = x @ (dec_w @ params["proj_w"]).T + params["dec_b"]
    scale, shift = _gate_affine(hidden)
    rows_of = np.arange(len(xs))
    for d, suffix in enumerate(["", "_rev"] if cfg.bidirectional else [""]):
        wt, ut = params["lstm_w" + suffix].T, params["lstm_u" + suffix].T
        b = params["lstm_b" + suffix]
        dec_t = dec_w[:, d * hidden : (d + 1) * hidden].T
        h = c = np.zeros((len(xs), hidden))
        for t, n in enumerate(running):
            rows = (offsets[lengths[:n] - 1 - t] + rows_of[:n] if suffix
                    else slice(offsets[t], offsets[t + 1]))
            z = x[rows] @ wt
            z += b
            z += h[:n] @ ut
            _, c, _, h = _cell(z, c[:n], scale, shift)
            logits[rows] += h @ dec_t
    return logits, offsets


def _streamed_logits(params, cfg, sentences: Sequence[np.ndarray]):
    """Yield ``(i, logits)`` with the (L, K) per-token logits of each
    non-empty sentence ``i``, dropout disabled.

    The sentences run sorted by length in groups of ``INFERENCE_GROUP_SIZE``
    through ``_packed_logits``, so memory stays flat however large the
    corpus is.
    """
    arrays = _checked_vectors(sentences, cfg.embedding_dim)
    order = sorted((i for i, x in enumerate(arrays) if len(x)), key=lambda i: len(arrays[i]))
    for lo in range(0, len(order), INFERENCE_GROUP_SIZE):
        group = order[lo : lo + INFERENCE_GROUP_SIZE][::-1]
        logits, offsets = _packed_logits(params, cfg, [arrays[i] for i in group])
        for k, i in enumerate(group):
            yield i, logits[offsets[: len(arrays[i])] + k]


@dataclass
class TaggerModel:
    """Trained tagger: immutable parameters plus the tag vocabulary."""

    config: TaggerConfig
    tags: list[str]
    params: dict[str, np.ndarray]
    loss_curve: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float | None:
        return self.loss_curve[-1] if self.loss_curve else None

    def predict(self, vectors: np.ndarray) -> list[str]:
        """Tags for one sentence; ``perfbench/spans.py`` traces it as ``tagger.predict``."""
        return self.predict_batch([vectors])[0]

    def predict_batch(self, sentences: Sequence[np.ndarray]) -> list[list[str]]:
        """Tags for each sentence's vectors, in input order, dropout disabled."""
        tags: list[list[str]] = [[] for _ in sentences]
        for i, logits in _streamed_logits(self.params, self.config, sentences):
            tags[i] = [self.tags[j] for j in logits.argmax(axis=1)]
        return tags

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write one ``.npz`` archive at exactly ``path``: a member per
        parameter plus ``meta``, a JSON string holding the config, tags and
        loss curve. Writing through a handle keeps numpy from appending
        ``.npz`` to the name."""
        meta = json.dumps({"config": asdict(self.config), "tags": self.tags,
                           "loss_curve": self.loss_curve})
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(meta), **self.params)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "TaggerModel":
        """Read a file written by ``save``. Object-array members are refused, so
        loading runs no code from the file. Reading through a handle closes the
        file even when numpy fails to open the archive."""
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                meta = json.loads(data["meta"].item())
                params = {key: data[key] for key in data.files if key != "meta"}
            model = cls(TaggerConfig(**meta["config"]), list(meta["tags"]), params,
                        list(meta["loss_curve"]))
        except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
            raise ModelError(f"{path}: not a readable model file: {exc}") from None
        shapes = {key: value.shape for key, value in params.items()}
        if shapes != param_shapes(model.config, len(model.tags)):
            raise ModelError(f"{path}: parameters do not match the model's config and tags")
        return model


def train(corpus: Sequence[SequenceExample], cfg: TaggerConfig) -> TaggerModel:
    """Adam over shuffled mini-batches; fully reproducible from ``cfg.seed``.

    Batch loss is the mean token negative log-likelihood. Raises
    TrainingError on an empty/unlabeled corpus or if the loss leaves the
    finite range.
    """
    examples = [ex for ex in corpus if len(ex) > 0]
    if not examples:
        raise TrainingError("training corpus is empty")
    for idx, ex in enumerate(examples):
        if ex.gold_tags is None:
            raise TrainingError(f"sentence {idx} has no gold tags")
        if ex.vectors is None:
            raise TrainingError(f"sentence {idx} has no token vectors")
        if ex.vectors.shape[1] != cfg.embedding_dim:
            raise TrainingError(
                f"sentence {idx}: vectors have dimension {ex.vectors.shape[1]},"
                f" config expects {cfg.embedding_dim}"
            )

    tag_set = sorted({t for ex in examples for t in (ex.gold_tags or [])} | {"O"})
    tag_index = {t: i for i, t in enumerate(tag_set)}
    targets = [np.array([tag_index[t] for t in ex.gold_tags]) for ex in examples]

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, len(tag_set), rng)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    width = cfg.encoder_width

    loss_curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        epoch_nll = 0.0
        epoch_tokens = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            total_tokens = int(sum(len(examples[i]) for i in batch))
            masks = None
            if cfg.dropout > 0.0:
                masks = [
                    (rng.random((len(examples[i]), width)) >= cfg.dropout) / (1.0 - cfg.dropout)
                    for i in batch
                ]
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            batch_nll = batch_loss_grads(
                params, [examples[i].vectors for i in batch], [targets[i] for i in batch],
                cfg, grads, scale=1.0 / total_tokens, dropout_masks=masks,
            )
            loss = batch_nll / total_tokens
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}: {loss!r}; "
                    "lower the learning rate or check the input vectors"
                )
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            for key in params:
                g = grads[key]
                adam_m[key] = cfg.beta1 * adam_m[key] + (1.0 - cfg.beta1) * g
                adam_v[key] = cfg.beta2 * adam_v[key] + (1.0 - cfg.beta2) * g**2
                params[key] = params[key] - cfg.learning_rate * (
                    (adam_m[key] / bias1) / (np.sqrt(adam_v[key] / bias2) + cfg.eps)
                )
            epoch_nll += batch_nll
            epoch_tokens += total_tokens
        loss_curve.append(epoch_nll / epoch_tokens if epoch_tokens else 0.0)

    return TaggerModel(config=cfg, tags=tag_set, params=params, loss_curve=loss_curve)
