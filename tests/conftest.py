import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from finetype import load_embeddings, load_hierarchy, load_snapshot
from finetype.embeddings import EmbeddingError, EmbeddingTable, _sidecar_dim, bounded_rows
from finetype.kb import EntityRecord, SnapshotError, format_qid, normalize_surface, parse_qid
from finetype.tagger import (MentionSpan, SequenceExample, StaticVectors, TaggerConfig, _forward,
                             _Scratch, _packed, batch_loss_grads, init_params, read_conll)
from finetype.taxonomy import default_hierarchy_path

DATA_DIR = Path(default_hierarchy_path()).parent
DEMO_DIR = DATA_DIR / "demo"

# A longer run of the derandomized oracle properties, for a CI step that runs
# them alone: the two vector readers' per-line loops, the snapshot ingest's
# oracle and keys properties (tests/test_kb.py) and float32 tagging, at
# --hypothesis-profile=fuzz-2000. Tier-1 runs each at the default count; each
# generator has its own property, so each gets the whole count.
settings.register_profile("fuzz-2000", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def hierarchy():
    return load_hierarchy(default_hierarchy_path())


@pytest.fixture(scope="session")
def demo_kb():
    return load_snapshot(DEMO_DIR / "snapshot.jsonl")


@pytest.fixture(scope="session")
def demo_table():
    return load_embeddings(DEMO_DIR / "wiki_vectors.vec")


@pytest.fixture(scope="session")
def demo_config_path():
    return DEMO_DIR / "pipeline.cfg"


def demo_sidecar_sentences():
    """Each demo corpus sentence's vectors from the demo token table: with
    these as a sidecar, a run reproduces the static-table one."""
    provider = StaticVectors(load_embeddings(DEMO_DIR / "token_vectors.vec"))
    corpus = read_conll(DEMO_DIR / "corpus.conll")
    return [provider.vectors_for(i, ex.tokens) for i, ex in enumerate(corpus)]


def sidecar_text(sentences) -> str:
    """A sidecar holding ``sentences``, every value in ``repr`` form."""
    rows = [f"{sentences[0].shape[1]}\n"]
    for sentence in sentences:
        rows.extend(" ".join(repr(float(v)) for v in row) + "\n" for row in sentence)
        rows.append("\n")
    return "".join(rows)


def tags_of_spans(spans: Iterable[MentionSpan], length: int) -> list[str]:
    """Encode non-overlapping spans as a BIO tag sequence of ``length``: the
    inverse of ``extract_spans`` that the codec round trip checks. A span past
    ``length`` raises IndexError; overlapping spans do not round trip."""
    tags = ["O"] * length
    for span in sorted(spans):
        tags[span.start] = f"B-{span.coarse}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.coarse}"
    return tags


def parse_sidecar_lines(lines: Iterable[str]) -> list[np.ndarray]:
    """``parse_sidecar`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
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
            if line:
                dim = _sidecar_dim(line, lineno)
            continue
        if not line:
            flush()
            continue
        try:
            row = np.array([float(v) for v in line.split()], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        current.append(row)
    if dim is None:
        raise EmbeddingError("sidecar file has no dimension header")
    flush()
    if not sentences:
        raise EmbeddingError("sidecar contains no sentences")
    return sentences


def parse_embeddings_lines(lines: Iterable[str]) -> EmbeddingTable:
    """``parse_embeddings`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
    vectors = {}
    dim = None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if dim is None and len(parts) == 2:
            try:
                int(parts[0])
                dim = int(parts[1])
            except ValueError:
                pass
            else:
                if dim < 1:
                    raise EmbeddingError(f"line {lineno}: declared dimension must be positive")
                continue
        try:
            row = np.array([float(v) for v in parts[1:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(row)
            if dim == 0:
                raise EmbeddingError(f"line {lineno}: entry has no vector values")
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        vectors[parts[0].lower()] = row
    if not vectors:
        raise EmbeddingError("embedding file contains no entries")
    return EmbeddingTable(dim, vectors)


# --- snapshot records -------------------------------------------------------------

SNAPSHOT_FIELDS = ("qid", "label", "aliases", "description", "instance_of", "subclass_of",
                   "occupation")


def record_line(qid="Q1", label="Ada", aliases=(), description="", instance_of=(),
                subclass_of=(), occupation=(), *, start="", end="\n", ensure_ascii=True,
                keys=SNAPSHOT_FIELDS):
    """A snapshot line: ``start``, then the record as ``json.dumps`` writes it
    with its ``keys`` (by default the documented fields, in their order), then
    ``end``. Any field may hold a value of any JSON type."""
    fields = {"qid": qid, "label": label, "aliases": aliases, "description": description,
              "instance_of": instance_of, "subclass_of": subclass_of, "occupation": occupation}
    return start + json.dumps({key: fields[key] for key in keys},
                              ensure_ascii=ensure_ascii) + end


def oracle_parse_record(line):
    """The snapshot line parser as it was before ingest became one pass."""
    try:
        obj = json.loads(line.rstrip("\r\n"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"invalid JSON at column {exc.pos + 1}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SnapshotError("record is not a JSON object")
    if "qid" not in obj:
        raise SnapshotError("record has no 'qid' field")
    entity_id = parse_qid(obj["qid"])
    label = "" if obj.get("label") is None else str(obj.get("label")).strip()
    if not label:
        raise SnapshotError(f"record {format_qid(entity_id)} has an empty label")
    raw_aliases = obj.get("aliases", [])
    if not isinstance(raw_aliases, list):
        raise SnapshotError("field 'aliases' must be an array")
    aliases = []
    for alias in raw_aliases:
        alias = "" if alias is None else str(alias).strip()
        if alias and alias != label and alias not in aliases:
            aliases.append(alias)

    def id_list(value, field):
        if value is None:
            return ()
        if not isinstance(value, list):
            raise SnapshotError(f"field {field!r} must be an array of Q-ids")
        return tuple(parse_qid(v) for v in value)

    return EntityRecord(
        id=entity_id, label=label, aliases=tuple(aliases),
        description=str(obj.get("description", "") or ""),
        instance_of=id_list(obj.get("instance_of"), "instance_of"),
        subclass_of=id_list(obj.get("subclass_of"), "subclass_of"),
        occupation=id_list(obj.get("occupation"), "occupation"),
    )


def oracle_ingest(lines):
    """Parse every line into a record, then index the record list: the records
    by id and the label, alias and subclass-children indexes."""
    records, seen = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            rec = oracle_parse_record(raw)
        except SnapshotError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from None
        if rec.id in seen:
            raise SnapshotError(f"line {lineno}: duplicate entity id {rec.qid}"
                                f" (first seen on line {seen[rec.id]})")
        seen[rec.id] = lineno
        records[rec.id] = rec
    labels, aliases, children = {}, {}, {}
    for rec in records.values():
        labels.setdefault(normalize_surface(rec.label), set()).add(rec.id)
        for alias in rec.aliases:
            aliases.setdefault(normalize_surface(alias), set()).add(rec.id)
        for parent in rec.subclass_of:
            children.setdefault(parent, set()).add(rec.id)
    return records, labels, aliases, children


# --- generated input ------------------------------------------------------------------

numbers = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["²", "1" * 5000, "nan", "-0", "1e400", "0x10", "1_0"]),
)

# Any JSON value, with strings that are Q-ids, almost Q-ids, or neither.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
              st.integers(min_value=-3, max_value=10**6).map(lambda n: f"Q{n}"),
              st.sampled_from(["Q1", "Q2", "q3", " Q4 ", "Q0", "Q", "Q²", "Q1\n"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


# --- the scorer's oracle ----------------------------------------------------------------

def matched_counts(pred, gold) -> dict[str, tuple[int, int, int]]:
    """Per label, in sorted order, ``(tp, fp, fn)`` by explicit matching: each
    predicted span takes the first unused gold span with the same label and
    the same leading fields (key and boundaries)."""
    counts = {}
    for label in sorted({s[-1] for s in pred} | {s[-1] for s in gold}):
        p = [s for s in pred if s[-1] == label]
        g = [s for s in gold if s[-1] == label]
        used = set()
        for ps in p:
            for gi, gs in enumerate(g):
                if gi not in used and ps[:-1] == gs[:-1]:
                    used.add(gi)
                    break
        counts[label] = (len(used), len(p) - len(used), len(g) - len(used))
    return counts


def rational_prf(tp: int, fp: int, fn: int) -> tuple[Fraction, Fraction, Fraction]:
    """Precision, recall and F-1 in exact rational arithmetic; a zero
    denominator gives zero."""
    p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    return p, r, (2 * p * r / (p + r) if p + r else Fraction(0))


def rational_scores(counts: Mapping[str, tuple[int, int, int]]):
    """Each label's exact ``(P, R, F-1)``, the F-1 of the pooled counts, and
    the mean F-1 over labels with any count (None when no label has one)."""
    per_class = {label: rational_prf(*c) for label, c in counts.items()}
    micro = rational_prf(*(sum(c[i] for c in counts.values()) for i in range(3)))[2]
    active = [per_class[label][2] for label, c in counts.items() if any(c)]
    return per_class, micro, (sum(active, Fraction(0)) / len(active) if active else None)


# --- the similarity oracle --------------------------------------------------------------

def pairwise_mean_cosine(left, right, table) -> float | None:
    """The mean cosine over every pair of a ``left`` and a ``right`` token with
    a nonzero vector in ``table``, in 50-digit arithmetic; None when either side
    has no such token."""
    with mpmath.workdps(50):
        def units(tokens):
            rows = [[mpmath.mpf(x) for x in v] for v in map(table.get, tokens) if v is not None]
            norms = [mpmath.sqrt(mpmath.fsum(x * x for x in row)) for row in rows]
            return [[x / norm for x in row] for row, norm in zip(rows, norms) if norm]

        a, b = units(left), units(right)
        if not a or not b:
            return None
        return float(mpmath.fsum(mpmath.fsum(x * y for x, y in zip(u, v)) for u in a for v in b)
                     / (len(a) * len(b)))


# --- the tagger's oracle: one sentence, one time step at a time ------------------------

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
    """Per-token logits (L, K) of one sentence and the cache its backward reads."""
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
    """One sentence's summed NLL; its gradients times ``scale`` are added to ``grads``."""
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


def relative_error(got, want):
    """Largest absolute difference, relative to the largest reference magnitude."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def sentence_logits(params, x, cfg, dropout_mask=None):
    """Per-token logits (L, K) and decoder input (L, width) of one sentence,
    run through the packed forward as a batch of one, whose rows are the
    sentence's tokens in order."""
    masks = None if dropout_mask is None else [np.asarray(dropout_mask)]
    logits, dec_in, _ = _forward(params, cfg, *_packed([x], cfg.embedding_dim, masks), _Scratch())
    return logits, dec_in


def token_accuracy(model, corpus):
    """Fraction of the corpus's tokens whose predicted tag equals the gold tag."""
    predicted = model.predict_batch([ex.vectors for ex in corpus])
    correct = sum(
        p == g for ex, tags in zip(corpus, predicted) for p, g in zip(tags, ex.gold_tags)
    )
    return correct / sum(len(ex) for ex in corpus)


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


def run_gradient_check(cfg, length=5, tag_count=3, seed=9, dropout=None):
    """The worst relative error between ``batch_loss_grads`` and central
    differences of the loss over every parameter of a random model and
    sentence; with ``dropout``, through a fixed mask that keeps each encoder
    output with probability 1 - ``dropout``."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, tag_count, rng)
    x = rng.standard_normal((length, cfg.embedding_dim))
    targets = rng.integers(0, tag_count, size=length)
    mask = None
    if dropout is not None:
        mask = (rng.random((length, cfg.encoder_width)) >= dropout) / (1.0 - dropout)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    batch_loss_grads(params, [x], [targets], cfg, grads, scale=1.0,
                     dropout_masks=None if mask is None else [mask])

    def loss():
        logits, _ = sentence_logits(params, x, cfg, mask)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -float(log_probs[np.arange(length), targets].sum())

    eps = 1e-5
    worst = 0.0
    for key, value in params.items():
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = value[idx]
            value[idx] = orig + eps
            plus = loss()
            value[idx] = orig - eps
            minus = loss()
            value[idx] = orig
            numeric = (plus - minus) / (2 * eps)
            analytic = grads[key][idx]
            rel = abs(analytic - numeric) / max(1e-6, abs(analytic), abs(numeric))
            worst = max(worst, rel)
    return worst
