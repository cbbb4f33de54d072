"""Coarse BIO sequence tagger built from scratch on numpy.

Per-token vectors come from a pluggable provider (a word-vector table or a
contextual-vector sidecar, both read by ``embeddings``), feed a gated LSTM
encoder with a residual connection from the projected input, and a softmax
layer decodes per-token tags. Training is plain Adam over mini-batches with
inverted dropout on the encoder output; everything is deterministic under a
seed. Training and tagging run one recurrence (``_recurrence``) over the
same packed, longest-first, time-major rows (``_Layout``). Training runs in
float64; tagging runs in float32 and goes back to float64 for a group whose
values are out of float32's safe range or whose tags come near a tie
(``_streamed_logits``), so that its tags are those of float64.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable, load_sidecar
from .textfile import open_utf8


class CorpusError(ValueError):
    """Malformed corpus file, or sidecar/corpus misalignment."""


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


# ---------------------------------------------------------------------------
# Corpus files and vector providers


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
    uniformly untagged, and every tag one that ``extract_spans`` accepts.
    """
    examples: list[SequenceExample] = []
    tokens: list[str] = []
    tags: list[str | None] = []
    bio_tags: set[str] = set()  # each distinct tag is checked once

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
            if tag not in bio_tags:
                try:
                    extract_spans([tag])
                except ValueError as exc:
                    raise CorpusError(f"line {lineno}: {exc}") from None
                bio_tags.add(tag)
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
        self.sentences = sentences
        self.dim = int(sentences[0].shape[1])

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "PrecomputedVectors":
        return cls(load_sidecar(path))

    def vectors_for(self, index: int, tokens: Sequence[str]) -> np.ndarray:
        if index >= len(self.sentences):
            raise CorpusError(f"sidecar has no vectors for sentence {index}")
        vecs = self.sentences[index]
        if len(vecs) != len(tokens):
            raise CorpusError(
                f"sentence {index}: sidecar holds {len(vecs)} vectors for {len(tokens)} tokens"
            )
        return vecs


def attach_vectors(corpus: Sequence[SequenceExample], provider,
                   corpus_name: str = "the corpus") -> list[SequenceExample]:
    """Copies of the sentences carrying their vectors. A sidecar must hold
    exactly one entry per corpus sentence; ``corpus_name`` names the corpus
    when it does not."""
    if isinstance(provider, PrecomputedVectors) and len(provider.sentences) != len(corpus):
        raise CorpusError(
            f"sidecar holds {len(provider.sentences)} sentences but {corpus_name} has {len(corpus)}"
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

# Adam at its published defaults (Kingma & Ba 2015, section 2).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The largest product of a run's learning rate and its Adam steps (epochs x
# batches per epoch), 2**26; ``load_inputs`` refuses a larger one before training.
# One step moves a weight by lr |m^| / (sqrt(v^) + eps). The bias-corrected
# moments weigh the past gradients g_k by a_k = (1 - b1) b1^(t-k) / (1 - b1^t)
# and b_k = (1 - b2) b2^(t-k) / (1 - b2^t), so by Cauchy-Schwarz
# |m^| / sqrt(v^) <= sqrt(sum a_k^2 / b_k), which grows with t towards
# (1 - b1) / sqrt((1 - b2) (1 - b1^2 / b2)) = 7.2703 < 7.5. Kingma & Ba's 3.16
# (section 2.1) is the case of one nonzero gradient; a geometrically decaying
# gradient reaches 7.27. Glorot initialization starts every weight within
# sqrt(3) and every bias within 1, so after S steps each parameter lies within
# 2 + 7.5 lr S <= 2 + 7.5 * 2**26 < 2**29, SINGLE_PRECISION_BOUND. For inputs
# within that bound too, that bound's derivation keeps every pre-activation
# and logit below 2**127; so the loss, the decoder's gradients, their squares
# (below 2**1024) and every update (at most 7.5 lr) are finite. The recurrent
# gradients compound over a sentence's steps and have no bound of this kind:
# training still checks each batch's loss and fails if it is not finite.
MAX_RATE_STEPS = 2**26


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
    seed: int = 0
    bidirectional: bool = False

    def __post_init__(self):
        if self.hidden_size < 1 or self.embedding_dim < 1:
            raise ValueError("hidden_size and embedding_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.seed < 0:
            raise ValueError("batch_size must be positive, and epochs and seed non-negative")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and non-negative")
        size = sum(math.prod(shape) for shape in param_shapes(self, 1).values())
        if size > MAX_PARAMETERS:
            raise ValueError(f"hidden_size {self.hidden_size} and embedding_dim"
                             f" {self.embedding_dim} give {size} parameters, more than"
                             f" MAX_PARAMETERS ({MAX_PARAMETERS})")

    @property
    def encoder_width(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)


# Sentences per tagging group. Tagging holds one group's input vectors and
# logits (its tokens x (D + K) float32 values), one direction's folded weights
# and step buffers as wide as the group (B x 4H gates, B x H for tanh(c) and
# two each for h and c), so this count, not the corpus size, bounds its
# memory; on ragged corpora a group of 48 keeps about 30 to 48 rows in each
# step's products.
INFERENCE_GROUP_SIZE = 48

# Largest magnitude of an input value or a parameter that tagging computes in
# float32, 2**29 (about 5.4e8). With every |x| and |theta| at most B, each
# value tagging computes is bounded by a sum of absolute values (h, tanh(c)
# and the gates lie in [-1, 1], and |c| grows by at most 1 a step):
# - a pre-activation by D B^2 + (H + 1) B;
# - ``dec_w proj_w`` by W B^2, with W = H or 2H the encoder width;
# - a logit by D W B^3 + B + W B.
# K enters no sum. The parameter cap bounds each dimension through one
# matrix: D W <= 2**27 (``proj_w``), 4 H D <= 2**27 (``lstm_w``) and
# 4 H^2 <= 2**27 (``lstm_u``), so H < 2**13. A logit is therefore at most
# 2**27 B^3 + 2**14 B < 2**115. Its sums round at most 2**27 + 2**15 times,
# each raising the bound by a factor of at most 1 + 2**-24, which in all is
# below e^8.01 < 2**12: 2**127, under float32's largest value,
# 2**128 (1 - 2**-24). A cast, a product or a pre-activation stays far lower.
SINGLE_PRECISION_BOUND = 2.0**29

# The float32 top-2 logit gap below which a group is tagged again in float64,
# relative to the largest |logit| of the group (``_near_tie``). Calibrated
# against the float32 error that ``tests/test_tagger_batched.py`` measures
# over models, inputs scaled 1e-3 to 1e3 and ragged groups: at most
# NEAR_TIE / 10 relative to the same magnitude (7.6e-7 at worst over 2,000
# examples), so a larger gap keeps the float64 argmax.
NEAR_TIE = 1e-4


def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit ``(s, shift)`` with which ``s * tanh(s * z) + shift`` is the
    gate activation of the (4H,) pre-activation ``z``: the sigmoid in its
    tanh form 0.5 * (1 + tanh(z / 2)) on the input, forget and output blocks,
    and tanh on the candidate block."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    return scale, 1.0 - scale


def _folded(params, reverse: bool, order: str):
    """One direction's ``(W^T, U^T, b, scale, shift)`` with ``_gate_affine``'s
    inner scale folded into W, U and b, so a step's pre-activation is already
    ``s * z``, all in the parameters' dtype. The scales are 0.5 and 1, powers
    of two, so the fold is exact short of subnormals: each product and sum is
    the unfolded one times s, rounded the same way.

    W^T and U^T are laid out in memory ``order``: "C" for row-major, "K" for
    the transposes of row-major W and U. Their values are the same either
    way; the layout picks the BLAS kernel that multiplies by them."""
    suffix = "_rev" if reverse else ""
    u = params["lstm_u" + suffix]
    scale, shift = (a.astype(u.dtype) for a in _gate_affine(u.shape[1]))
    return (np.multiply(params["lstm_w" + suffix].T, scale, order=order),
            np.multiply(u.T, scale, order=order), params["lstm_b" + suffix] * scale, scale, shift)


def _cell(z, c_prev, c, tc, h, scale, shift) -> None:
    """The gated update of n rows, in place. ``z`` (n, 4H) holds the folded
    pre-activations, gate blocks ordered input, forget, candidate, output, and
    becomes the gate activations; c, tanh(c) and h are written into ``c``,
    ``tc`` and ``h``. ``c_prev`` is None at a sentence's first token."""
    hidden = c.shape[1]
    np.tanh(z, out=z)
    z *= scale
    z += shift
    np.multiply(z[:, :hidden], z[:, 2 * hidden : 3 * hidden], out=c)
    if c_prev is not None:
        c += z[:, hidden : 2 * hidden] * c_prev
    np.tanh(c, out=tc)
    np.multiply(z[:, 3 * hidden :], tc, out=h)


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


def _checked_vectors(xs: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    """Each sentence's vectors as a float array, checked to be (L, dim)."""
    arrays = [np.asarray(x, dtype=float) for x in xs]
    for x in arrays:
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValueError(f"expected vectors of shape (L, {dim}), got {x.shape}")
    return arrays


class _Layout:
    """Time-major packed rows of a batch of sentences with ``lengths``, sorted
    stably, longest first: step t has a row for each sentence still running,
    a prefix of the order, so ``steps[t]`` is a slice, the k-th sentence's
    token t is row ``offsets[t] + k`` and no padded slot exists. At that
    position the reverse direction reads token ``L_k - 1 - t``, row
    ``reverse[offsets[t] + k]``. ``previous`` holds, for each position after
    step 0, the position its sentence held one step earlier, and ``sentence``
    and ``step`` the batch index and token of each position, from which
    ``source`` packs an array of the sentences' rows with one gather."""

    def __init__(self, lengths: Sequence[int]):
        self.lengths = np.asarray(lengths, dtype=int)
        self.order = np.argsort(-self.lengths, kind="stable")  # batch indices, longest first
        lengths = self.lengths[self.order]
        running = (lengths[:, None] > np.arange(lengths.max(initial=0))).sum(axis=0)
        self.offsets = np.concatenate([[0], np.cumsum(running)])  # then the row count
        bounds = self.offsets.tolist()
        self.steps = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self.step = np.repeat(np.arange(len(running)), running)
        k = np.arange(self.offsets[-1]) - self.offsets[self.step]
        self.sentence = self.order[k]  # the batch index of each row's sentence
        self.reverse = self.offsets[lengths[k] - 1 - self.step] + k
        later = self.step > 0
        self.previous = self.offsets[self.step[later] - 1] + k[later]

    def source(self, starts=None) -> np.ndarray:
        """The row of each packed position in an array holding the batch's
        sentences one after another, sentence j from row ``starts[j]``; by
        default in batch order from row 0. Gathering those rows packs the
        array."""
        if starts is None:
            starts = np.cumsum(self.lengths) - self.lengths
        return starts[self.sentence] + self.step


class _Scratch:
    """Training's per-batch arrays, kept from batch to batch: ``take(key,
    rows, *shape)`` is the first ``rows`` rows of the buffer ``key``, which
    grows to the largest batch. Arrays allocated afresh for every batch
    cost page faults each time the allocator has handed their memory back
    to the system."""

    def __init__(self):
        self.buffers: dict = {}

    def take(self, key, rows: int, *shape: int) -> np.ndarray:
        buffer = self.buffers.get(key)
        if buffer is None or len(buffer) < rows:
            buffer = self.buffers[key] = np.empty((rows, *shape))
        return buffer[:rows]


class _Tape:
    """What training's forward pass keeps of one direction for backpropagation,
    a row per packed position: the input row the direction read there, the
    gate activations, c, tanh(c) and h, in ``scratch``."""

    def __init__(self, x: np.ndarray, hidden: int, scratch: _Scratch, reverse: bool):
        self.x = x
        self.gates = scratch.take(("gates", reverse), len(x), 4 * hidden)
        self.c, self.tc, self.h = (scratch.take((name, reverse), len(x), hidden)
                                   for name in ("c", "tc", "h"))


def _recurrence(params, reverse: bool, x: np.ndarray, layout: _Layout, tape: _Tape | None = None):
    """Run one direction of the LSTM over the packed rows ``x`` of ``layout``,
    yielding each step's rows and its h. Step t updates the n sentences still
    running, whose carries are the first n rows of step t - 1's h and c.

    With a ``tape`` (training), the input term ``x W^T + b`` of every row is
    one product before the loop, and each step adds ``h_prev U^T`` to its rows
    of the tape, the rows it yields, and writes its c, tanh(c) and h there.
    Without one (tagging), each step projects its own rows of ``x``, the rows
    it yields, into one step's scratch, and h and c alternate between two
    buffers as wide as the batch, in the dtype of ``x``.

    Tagging multiplies by row-major W^T and U^T, with which OpenBLAS's sgemm
    skips its transposed-operand path and runs a step's product 1.5 to 3.4
    times as fast (README, "Operand layout"). Training keeps the transposed
    views: it ran no faster with row-major copies, and another kernel would
    move the last bits of a trained model."""
    wt, ut, b, scale, shift = _folded(params, reverse, "C" if tape is None else "K")
    if tape is None:
        width, hidden = len(layout.order), ut.shape[0]
        gates, tcs = np.empty((width, 4 * hidden), x.dtype), np.empty((width, hidden), x.dtype)
        hs, cs = np.empty((2, 2, width, hidden), x.dtype)
    else:
        gates, cs, tcs, hs = tape.gates, tape.c, tape.tc, tape.h
        np.matmul(tape.x, wt, out=gates)
        gates += b
    h_prev = c_prev = None
    for t, pos in enumerate(layout.steps):
        n = pos.stop - pos.start
        if tape is None:
            rows = layout.reverse[pos] if reverse else pos
            z, tc, h, c = gates[:n], tcs[:n], hs[t % 2, :n], cs[t % 2, :n]
            np.matmul(x[rows], wt, out=z)
            z += b
        else:
            rows, z, tc, h, c = pos, gates[pos], tcs[pos], hs[pos], cs[pos]
        if t:
            z += h_prev[:n] @ ut
        _cell(z, c_prev[:n] if t else None, c, tc, h, scale, shift)
        yield rows, h
        h_prev, c_prev = h, c


def _forward(params, cfg, layout: _Layout, x: np.ndarray, mask: np.ndarray | None,
             scratch: _Scratch):
    """Per-token logits of the packed rows ``x`` of ``layout``, the decoder
    input and a ``_Tape`` per direction, as backpropagation needs them. The
    residual path adds the projected input to the encoder output times the
    dropout ``mask``."""
    hidden = cfg.hidden_size
    tapes = []
    for d in range(1 + cfg.bidirectional):
        tape = _Tape(x[layout.reverse] if d else x, hidden, scratch, d)
        for _ in _recurrence(params, d, x, layout, tape):
            pass  # the steps write the tape
        tapes.append(tape)
    hs = tapes[0].h
    if cfg.bidirectional:
        hs = np.empty((len(x), 2 * hidden))
        hs[:, :hidden] = tapes[0].h
        hs[layout.reverse, hidden:] = tapes[1].h
    dec_in = (hs if mask is None else hs * mask) + x @ params["proj_w"].T
    return dec_in @ params["dec_w"].T + params["dec_b"], dec_in, tapes


def _recurrence_grads(params, reverse: bool, tape: _Tape, layout: _Layout, dhs, grads,
                      scratch: _Scratch) -> None:
    """Add one direction's dW, dU and db into ``grads``, backpropagating
    dL/dh ``dhs`` (a row per token row of the batch) through the steps in
    reverse. The carries are as wide as the batch and step t updates the
    first n in place, so a sentence that ends at step t starts with zero
    carry; dZ is kept per packed position, so each gradient is one product
    over all rows."""
    suffix = "_rev" if reverse else ""
    u = params["lstm_u" + suffix]
    count, hidden = tape.c.shape
    i, f, g, o = tape.gates.reshape(count, 4, hidden).transpose(1, 0, 2)
    h_prev, c_prev = (scratch.take(name, count, hidden) for name in ("h_prev", "c_prev"))
    first = count - len(layout.previous)  # the rows of step 0, where both are zero
    h_prev[:first] = c_prev[:first] = 0.0
    h_prev[first:] = tape.h[layout.previous]
    c_prev[first:] = tape.c[layout.previous]
    if reverse:
        dhs = dhs[layout.reverse]
    # Everything but the carried dh and dc is known before the loop: dZ is dc
    # times via_c on the input, forget and candidate blocks and dh times
    # via_h on the output block, and dc gains dh times dc_dh. Each is written
    # in place, its factors multiplied in the order g i (1 - i),
    # c_prev f (1 - f), i (1 - g^2), tanh(c) o (1 - o) and o (1 - tanh(c)^2).
    one_minus = scratch.take("one_minus", count, 4, hidden)  # 1 - each gate
    np.subtract(1.0, tape.gates.reshape(count, 4, hidden), out=one_minus)
    via_c = scratch.take("via_c", count, 3, hidden)
    via_i, via_f, via_g = via_c.transpose(1, 0, 2)
    np.multiply(g, i, out=via_i)
    via_i *= one_minus[:, 0]
    np.multiply(c_prev, f, out=via_f)
    via_f *= one_minus[:, 1]
    np.square(g, out=via_g)
    np.subtract(1.0, via_g, out=via_g)
    via_g *= i
    via_h, dc_dh = (scratch.take(name, count, hidden) for name in ("via_h", "dc_dh"))
    np.multiply(tape.tc, o, out=via_h)
    via_h *= one_minus[:, 3]
    np.square(tape.tc, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dz = scratch.take("dz", count, 4, hidden)
    flat = dz.reshape(count, -1)
    dh_carry, dc_carry = np.zeros((2, len(layout.order), hidden))
    for pos in reversed(layout.steps):
        n = pos.stop - pos.start
        dh, dc = dh_carry[:n], dc_carry[:n]
        dh += dhs[pos]
        dc += dh * dc_dh[pos]
        np.multiply(dc[:, None], via_c[pos], out=dz[pos, :3])
        np.multiply(dh, via_h[pos], out=dz[pos, 3])
        dc *= f[pos]
        np.matmul(flat[pos], u, out=dh)
    grads["lstm_w" + suffix] += flat.T @ tape.x
    grads["lstm_u" + suffix] += flat.T @ h_prev
    grads["lstm_b" + suffix] += flat.sum(axis=0)


def _loss_grads(params, cfg, layout: _Layout, x, gold, mask, grads, scale: float,
                scratch: _Scratch) -> float:
    """Summed token negative log-likelihood of the packed rows ``x`` of
    ``layout``, with their targets ``gold`` and dropout ``mask`` in the same
    rows; gradients of ``scale * nll_sum`` are accumulated into ``grads``."""
    logits, dec_in, tapes = _forward(params, cfg, layout, x, mask, scratch)
    rows = np.arange(len(x))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    nll = -float(log_probs[rows, gold].sum())

    dlogits = np.exp(log_probs)
    dlogits[rows, gold] -= 1.0
    dlogits *= scale
    grads["dec_w"] += dlogits.T @ dec_in
    grads["dec_b"] += dlogits.sum(axis=0)
    ddec_in = dlogits @ params["dec_w"]
    grads["proj_w"] += ddec_in.T @ x

    dhs = ddec_in if mask is None else ddec_in * mask
    hidden = cfg.hidden_size
    for d, tape in enumerate(tapes):
        _recurrence_grads(params, d, tape, layout, dhs[:, d * hidden : (d + 1) * hidden], grads,
                          scratch)
    return nll


def _group_logits(params, cfg, layout: _Layout, x: np.ndarray) -> np.ndarray:
    """The logits of a group's packed rows ``x``, in the dtype of ``x``. Each
    direction adds its share ``h dec_w[:, dir]^T`` of the linear decoder to the
    logits at every step; the residual ``x (dec_w proj_w)^T + dec_b`` is added
    once."""
    dec_w, hidden = params["dec_w"], cfg.hidden_size
    logits = x @ (dec_w @ params["proj_w"]).T + params["dec_b"]
    for d in range(1 + cfg.bidirectional):
        dec_t = dec_w[:, d * hidden : (d + 1) * hidden].T
        for rows, h in _recurrence(params, d, x, layout):
            logits[rows] += h @ dec_t
    return logits


def _single_precision(params):
    """A float32 copy of the parameters, or None when one exceeds
    ``SINGLE_PRECISION_BOUND``."""
    if all(-SINGLE_PRECISION_BOUND <= p.min() and p.max() <= SINGLE_PRECISION_BOUND
           for p in params.values()):
        return {key: p.astype(np.float32) for key, p in params.items()}
    return None


def _near_tie(logits: np.ndarray) -> bool:
    """Whether some row's top two logits lie within ``NEAR_TIE`` times the
    largest |logit| of ``logits``, or times 2**-60 when that is smaller. An
    exact tie always does, and so do logits small enough for float32's
    subnormal range (below 2**-126, where a rounding errs by up to 2**-150)
    to decide them."""
    if logits.shape[1] < 2:
        return False
    top = np.partition(logits, -2, axis=1)[:, -2:]
    gap = top[:, 1] - top[:, 0]
    return bool((gap <= NEAR_TIE * max(logits.max(), -logits.min(), 2.0**-60)).any())


def _group_input(arrays: list[np.ndarray], group: list[int], dtype) -> tuple[_Layout, np.ndarray]:
    """The ``_Layout`` of the sentences ``group`` of ``arrays`` and their
    vectors as its packed rows of ``dtype``, gathered from one joined copy."""
    layout = _Layout([len(arrays[i]) for i in group])
    return layout, np.concatenate([arrays[i] for i in group], dtype=dtype)[layout.source()]


def _sentence_logits(group: list[int], layout: _Layout, logits: np.ndarray):
    """``(i, logits)`` of each sentence ``i`` of ``group`` from its packed
    logits, put back in sentence order by one scatter."""
    joined = np.empty_like(logits)
    joined[layout.source()] = logits
    return zip(group, np.split(joined, np.cumsum(layout.lengths[:-1])))


def _streamed_logits(params, cfg, sentences: Sequence[np.ndarray], single=None):
    """Yield ``(i, logits)`` with the (L, K) per-token logits of each
    non-empty sentence ``i``, dropout disabled, in the dtype of ``params``.
    The sentences run sorted by length in groups of ``INFERENCE_GROUP_SIZE``
    over packed rows, and only a group's input and logits are held per token,
    so memory stays flat however large the corpus is.

    With ``single``, a float32 copy of ``params`` from ``_single_precision``,
    the groups first run in float32 (``_single_precision_groups``) and yield
    float32 logits; those it hands back run with ``params`` once the float32
    copy is dropped, so no float32 copy is held while a group runs in
    float64. Each pass drops a group's input and packed logits before the
    next group gathers its input."""
    arrays = _checked_vectors(sentences, cfg.embedding_dim)
    order = sorted((i for i, x in enumerate(arrays) if len(x)), key=lambda i: len(arrays[i]))
    groups = [order[lo : lo + INFERENCE_GROUP_SIZE]
              for lo in range(0, len(order), INFERENCE_GROUP_SIZE)]
    if single is not None:
        groups = yield from _single_precision_groups(single, cfg, arrays, groups)
        single = None
    for group in groups:
        layout, x = _group_input(arrays, group, params["dec_w"].dtype)
        pairs = _sentence_logits(group, layout, _group_logits(params, cfg, layout, x))
        del x  # not held while the next group gathers
        yield from pairs


def _single_precision_groups(single, cfg, arrays: list[np.ndarray], groups: list[list[int]]):
    """Yield ``(i, logits)`` for the sentences of each group that runs in
    float32 with the parameters ``single``, and return the groups that must
    run in float64: those with an input value above ``SINGLE_PRECISION_BOUND``
    (checked before any float32 work), and those whose float32 logits come
    near a tie (``_near_tie``), where float32 may not have float64's argmax."""
    rerun = []
    for group in groups:
        with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
            layout, x = _group_input(arrays, group, np.float32)
        logits, pairs = None, ()
        if -SINGLE_PRECISION_BOUND <= x.min() and x.max() <= SINGLE_PRECISION_BOUND:
            logits = _group_logits(single, cfg, layout, x)
        if logits is None or _near_tie(logits):
            rerun.append(group)
        else:
            pairs = _sentence_logits(group, layout, logits)
        del x, logits  # not held while the next group gathers
        yield from pairs
    return rerun


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
        """Tags for each sentence's vectors, in input order, dropout disabled:
        the argmax of the float64 logits, computed in float32 where that gives
        the same (``_streamed_logits``)."""
        tags: list[list[str]] = [[] for _ in sentences]
        # a model file may hold any real dtype; the reference precision is float64
        params = {key: np.asarray(p, dtype=np.float64) for key, p in self.params.items()}
        for i, logits in _streamed_logits(params, self.config, sentences,
                                          _single_precision(params)):
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
        """Read a file written by ``save``; its tags must be distinct strings, at least one.
        Object-array members are refused, so loading runs no code from the
        file. Reading through a handle closes the file even when numpy fails
        to open the archive."""
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                meta = json.loads(data["meta"].item())
                params = {key: data[key] for key in data.files if key != "meta"}
            tags = meta["tags"]
            model = cls(TaggerConfig(**meta["config"]), tags, params, list(meta["loss_curve"]))
        except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
            raise ModelError(f"{path}: not a readable model file: {exc}") from None
        if not isinstance(tags, list) or not tags or not all(isinstance(t, str) for t in tags):
            raise ModelError(f"{path}: 'tags' is not a nonempty list of strings")
        if len(set(tags)) != len(tags):
            raise ModelError(f"{path}: 'tags' lists a tag more than once")
        shapes = {key: value.shape for key, value in params.items()}
        if shapes != param_shapes(model.config, len(model.tags)):
            raise ModelError(f"{path}: parameters do not match the model's config and tags")
        for key, value in params.items():
            if value.dtype.kind not in "biuf" or not np.isfinite(value).all():
                raise ModelError(f"{path}: member {key!r} is not an array of finite numbers")
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
    # Every sentence's vectors and targets, checked once and joined; a batch
    # gathers its packed rows from these by ``_Layout.source``.
    vectors = np.concatenate(_checked_vectors([ex.vectors for ex in examples], cfg.embedding_dim))
    targets = np.array([tag_index[t] for ex in examples for t in ex.gold_tags])
    lengths = np.array([len(ex) for ex in examples])
    starts = np.cumsum(lengths) - lengths

    rng = np.random.default_rng(cfg.seed)
    init = init_params(cfg, len(tag_set), rng)
    # The parameters, their gradients and Adam's two moments are one flat
    # array each, updated whole and in place through two scratch arrays;
    # ``params`` and ``grads`` hold reshaped views.
    weights = np.concatenate([value.ravel() for value in init.values()])
    grad, adam_m, adam_v, work, update = (np.zeros_like(weights) for _ in range(5))
    ends = np.cumsum([value.size for value in init.values()])

    def views(flat):
        return {key: flat[end - value.size : end].reshape(value.shape)
                for (key, value), end in zip(init.items(), ends)}

    params, grads = views(weights), views(grad)
    scratch = _Scratch()
    step = 0
    width = cfg.encoder_width

    loss_curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        epoch_nll = 0.0
        epoch_tokens = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            layout = _Layout(lengths[batch])
            rows = layout.source(starts[batch])
            total_tokens = len(rows)
            mask = None
            if cfg.dropout > 0.0:
                # one draw per batch, its rows the batch's tokens sentence by
                # sentence: the same stream as a draw per sentence in batch order
                keep = rng.random((total_tokens, width)) >= cfg.dropout
                mask = keep[layout.source()] / (1.0 - cfg.dropout)
            grad.fill(0.0)
            batch_nll = _loss_grads(params, cfg, layout, vectors[rows], targets[rows], mask,
                                    grads, 1.0 / total_tokens, scratch)
            loss = batch_nll / total_tokens
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}: {loss!r}; "
                    "lower the learning rate or check the input vectors"
                )
            step += 1
            # Adam in place, rounding as m = b1 m + (1 - b1) g,
            # v = b2 v + (1 - b2) g^2 and
            # weights -= lr ((m / (1 - b1^step)) / (sqrt(v / (1 - b2^step)) + eps))
            np.multiply(grad, 1.0 - ADAM_BETA1, out=work)
            adam_m *= ADAM_BETA1
            adam_m += work
            np.square(grad, out=work)
            work *= 1.0 - ADAM_BETA2
            adam_v *= ADAM_BETA2
            adam_v += work
            np.divide(adam_v, 1.0 - ADAM_BETA2**step, out=work)
            np.sqrt(work, out=work)
            work += ADAM_EPS
            np.divide(adam_m, 1.0 - ADAM_BETA1**step, out=update)
            update /= work
            update *= cfg.learning_rate
            weights -= update
            epoch_nll += batch_nll
            epoch_tokens += total_tokens
        loss_curve.append(epoch_nll / epoch_tokens if epoch_tokens else 0.0)

    return TaggerModel(config=cfg, tags=tag_set, params=params, loss_curve=loss_curve)
