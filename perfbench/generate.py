"""Seeded synthetic inputs for the finetype benchmark, and an oracle that
predicts the linker's output without importing finetype.

The seed chooses names, Q-ids, vectors, word order and which mention lands
where. It never changes sizes: sentence-length multisets, mention counts per
outcome and record counts are fixed per workload, so timings from different
seeds measure the same amount of work.

Every corpus mention is designed for one linker outcome (clustered onto a
given subtype, below threshold, all out-of-vocabulary, empty description,
lookup miss, or a non-hierarchy ``date``) and one lookup path (label hit,
alias hit, or homonym group whose lowest Q-id outside the class-root closure
must be skipped). Gold fine labels agree with the designed outcome except for
a fixed, seed-independent set of errors, so the F-1 scores are the same for
every seed whenever the tagger finds the gold spans.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOTS = ("person", "location", "organization", "event", "product", "building", "art",
         "miscellaneous")
NARROWED = ("person", "location", "organization")
SUBTYPES_PER_ROOT = 13  # 8 roots + 104 subtypes = 112 labels, like the packaged inventory
TARGETS = (1, 6, 11)  # subtype positions that designed mentions cluster onto
THRESHOLD = 0.1
DESC_DIM = 50
FILLERS_PER_ROOT = 60
CLASS_NODES_PER_ROOT = 30
FOREIGN_CLASS_NODES = 40

# One "unit" of mentions per root: (predicted label, description kind).
# "s0".."s2" are the subtypes at TARGETS; "coarse" is the root itself.
_ROOT_UNIT = (
    [("s0", "cluster")] * 4 + [("s1", "cluster")] * 3 + [("s2", "cluster")] * 2
    + [("coarse", "weak"), ("coarse", "oov"), ("coarse", "miss")]
)
# Designed gold errors: ERRORS[c] mentions predicted c carry gold label SIGMA[c].
ERRORS = {"coarse": 1, "s0": 1, "s1": 0, "s2": 1}
SIGMA = {"coarse": "s0", "s0": "s1", "s1": "s2", "s2": "coarse"}
DATES_PER_UNIT = 4
# Lookup path of the entity-bearing mentions of one root, in unit order.
_LOOKUP_CYCLE = ("label", "homonym", "alias", "label", "alias", "homonym", "label",
                 "homonym", "label", "alias", "label")


@dataclass(frozen=True)
class Workload:
    name: str
    kb_records: int
    units: int  # mention units (100 mentions each)
    sentence_lengths: tuple[int, ...]
    static_dim: int = 0  # >0: write a static token table of this width
    sidecar_dim: int = 0  # >0: write contextual sidecars and train a supplied model
    commands: tuple[str, ...] = ("pipeline",)
    tagger: dict = field(default_factory=dict)


def _lognormal_lengths(count: int, median: float, sigma: float, lo: int,
                       hi: int) -> tuple[int, ...]:
    """Deterministic long-tailed length multiset: lognormal quantiles, clipped."""
    normal = statistics.NormalDist()
    return tuple(
        min(hi, max(lo, round(median * np.exp(sigma * normal.inv_cdf((k + 0.5) / count)))))
        for k in range(count)
    )


WORKLOADS = {
    "train-tag": Workload(
        name="train-tag", kb_records=2_000, units=1,
        sentence_lengths=tuple(6 + (k % 13) for k in range(160)),
        static_dim=16,
        tagger={"hidden_size": 32, "bidirectional": "false", "epochs": 10,
                "batch_size": 8, "learning_rate": 0.02, "dropout": 0.1},
    ),
    "link-large-kb": Workload(
        name="link-large-kb", kb_records=100_000, units=2,
        sentence_lengths=tuple(10 + (k % 15) for k in range(100)),
        commands=("link", "evaluate"),
    ),
    "infer-contextual": Workload(
        name="infer-contextual", kb_records=10_000, units=1,
        sentence_lengths=_lognormal_lengths(320, 14.0, 0.8, 3, 120),
        sidecar_dim=64,
        tagger={"hidden_size": 128, "bidirectional": "true", "epochs": 3,
                "batch_size": 8, "learning_rate": 0.02, "dropout": 0.1},
    ),
}

# Sentences and lengths of the corpus the supplied model is trained on.
MODEL_TRAIN_LENGTHS = tuple(5 + (k % 16) for k in range(150))


class _Words:
    """Unique pronounceable lowercase words drawn from one seeded stream."""

    _C = "bdfgklmnprstvz"
    _V = "aeiou"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set[str] = set()

    def new(self, count: int) -> list[str]:
        out = []
        while len(out) < count:
            syllables = self.rng.integers(2, 5)
            cs = self.rng.integers(0, len(self._C), syllables)
            vs = self.rng.integers(0, len(self._V), syllables)
            word = "".join(self._C[c] + self._V[v] for c, v in zip(cs, vs))
            if word not in self.used:
                self.used.add(word)
                out.append(word)
        return out


@dataclass
class Mention:
    doc: int
    start: int
    coarse: str  # root, or "date"
    gold: str


@dataclass
class Generated:
    """Paths of the generated files plus what the checker needs."""

    files: dict[str, Path]
    mentions: list[Mention]
    oracle: "Oracle"
    corpus_tokens: int
    train_tokens: int  # tokens the timed command trains on (0 if it does not train)


class Oracle:
    """Independent re-statement of the linker's contract.

    Lookup: lowest Q-id among label hits, else among alias hits, restricted
    to instances of the class-root closure for narrowed roots. Clustering:
    pairwise-mean cosine of evidence tokens against each subtype leaf, the
    first strict maximum above the threshold wins.
    """

    def __init__(self, records: list[dict], subtypes: dict[str, list[str]],
                 vectors: dict[str, np.ndarray], class_roots: dict[str, list[int]]):
        self.records = {r["id"]: r for r in records}
        self.subtypes = subtypes
        self.vectors = {w: v / np.linalg.norm(v) for w, v in vectors.items()}
        self.labels: dict[str, list[int]] = {}
        self.aliases: dict[str, list[int]] = {}
        children: dict[int, list[int]] = {}
        for r in records:
            self.labels.setdefault(_key(r["label"]), []).append(r["id"])
            for a in r["aliases"]:
                self.aliases.setdefault(_key(a), []).append(r["id"])
            for p in r["subclass_of"]:
                children.setdefault(p, []).append(r["id"])
        self.closure = {}
        for root, ids in class_roots.items():
            seen, stack = set(), list(ids)
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(children.get(node, ()))
            self.closure[root] = seen

    def entity(self, surface: str, coarse: str) -> int | None:
        key = _key(surface)
        for index in (self.labels, self.aliases):
            ids = index.get(key, [])
            if coarse in NARROWED:
                ids = [i for i in ids
                       if self.closure[coarse].intersection(self.records[i]["instance_of"])]
            if ids:
                return min(ids)
        return None

    def expect(self, surface: str, coarse: str) -> tuple[int | None, str, float | None]:
        """(entity id, fine label, score) the linker must produce."""
        if coarse not in self.subtypes:
            return None, coarse, None
        eid = self.entity(surface, coarse)
        if eid is None:
            return None, coarse, None
        rec = self.records[eid]
        evidence = _tokens(rec["description"])
        if not evidence:
            links = rec["occupation"] if coarse == "person" else rec["instance_of"]
            for link in links:
                if link in self.records:
                    evidence += _tokens(self.records[link]["label"])
        desc = [self.vectors[t] for t in evidence if t in self.vectors]
        best = (coarse, None)
        if desc:
            for label in self.subtypes[coarse]:
                leaf = _tokens(label.split(".", 1)[1])
                sub = [self.vectors[t] for t in leaf if t in self.vectors]
                if not sub:
                    continue
                score = float(np.mean(np.array(desc) @ np.array(sub).T))
                if score > THRESHOLD and (best[1] is None or score > best[1]):
                    best = (label, score)
        return eid, best[0], best[1]


def _key(surface: str) -> str:
    return " ".join(surface.split()).casefold()


def _tokens(text: str) -> list[str]:
    return re.findall(r"[^\W_]+", text.lower())


def _orthonormal(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return q.T


def _fmt(vec: np.ndarray) -> str:
    return " ".join(f"{x:.6f}" for x in vec)


def generate(workload: Workload, seed: int, directory: Path) -> Generated:
    """Write every input of ``workload`` for ``seed`` under ``directory``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    words = _Words(rng)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}

    # Hierarchy: 8 roots x 13 subtypes; leaves are one or two words, and the
    # leaf words of one root are orthonormal in the description table.
    subtypes: dict[str, list[str]] = {}
    vectors: dict[str, np.ndarray] = {}
    fillers: dict[str, list[str]] = {}
    for root in ROOTS:
        leaves = [words.new(1 + (i % 3 == 2)) for i in range(SUBTYPES_PER_ROOT)]
        subtypes[root] = [f"{root}.{' '.join(leaf)}" for leaf in leaves]
        leaf_words = [w for leaf in leaves for w in leaf]
        basis = _orthonormal(rng, len(leaf_words), DESC_DIM)
        vectors.update(zip(leaf_words, np.round(basis, 6)))
        raw = rng.standard_normal((FILLERS_PER_ROOT, DESC_DIM))
        raw -= (raw @ basis.T) @ basis  # fillers are orthogonal to this root's leaves
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        fillers[root] = words.new(FILLERS_PER_ROOT)
        vectors.update(zip(fillers[root], np.round(raw, 6)))
    oov_words = words.new(200)

    files["hierarchy"] = directory / "hierarchy.types"
    files["hierarchy"].write_text(
        "".join(f"{root}\n" + "".join(f"{s}\n" for s in subtypes[root]) for root in ROOTS),
        encoding="utf-8")
    files["embeddings"] = directory / "descriptions.vec"
    with open(files["embeddings"], "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {DESC_DIM}\n")
        for w, v in vectors.items():
            fh.write(f"{w} {_fmt(v)}\n")

    # Name pools: class-specific first and last tokens, so a surface's
    # tokens say which root it belongs to.
    pools = {c: (words.new(300), words.new(300)) for c in ROOTS + ("date",)}
    used_names: set[str] = set()

    def name(cls: str) -> str:
        first, last = pools[cls]
        while True:
            n = f"{first[rng.integers(len(first))]} {last[rng.integers(len(last))]}".title()
            if n not in used_names:
                used_names.add(n)
                return n

    def leaf_words(root: str, idx: int) -> list[str]:
        return _tokens(subtypes[root][idx].split(".", 1)[1])

    # Class records: a subclass tree under each narrowed root, plus foreign
    # classes outside every closure. Their labels are out of vocabulary.
    records: list[dict] = []

    def record(label, description="", instance_of=(), subclass_of=(), occupation=(), aliases=()):
        rec = {"label": label, "aliases": list(aliases), "description": description,
               "instance_of": list(instance_of), "subclass_of": list(subclass_of),
               "occupation": list(occupation)}
        records.append(rec)
        return rec

    def oov_label(n=2):
        return " ".join(oov_words[i] for i in rng.integers(len(oov_words), size=n))

    tree: dict[str, list[dict]] = {}
    for root in NARROWED:
        nodes = [record(oov_label())]
        for _ in range(CLASS_NODES_PER_ROOT):
            nodes.append(record(oov_label(), subclass_of=[nodes[rng.integers(len(nodes))]]))
        tree[root] = nodes
    foreign = []
    for _ in range(FOREIGN_CLASS_NODES):
        parent = [foreign[rng.integers(len(foreign))]] if foreign and rng.random() < 0.7 else []
        foreign.append(record(oov_label(), subclass_of=parent))
    occupations = [record(oov_label()) for _ in range(6)]
    target_occupation = {j: record(" ".join(leaf_words("person", j))) for j in TARGETS}

    def typing(root: str) -> dict:
        if root in NARROWED:
            inst = [tree[root][rng.integers(len(tree[root]))]]
        else:
            inst = [foreign[rng.integers(len(foreign))]]
        occ = [occupations[rng.integers(len(occupations))]] if root == "person" else []
        return {"instance_of": inst, "occupation": occ}

    def outside(root: str) -> dict:
        return {"instance_of": [foreign[rng.integers(len(foreign))]]}

    def filler(root: str, n: int) -> list[str]:
        pool = fillers[root]
        return [pool[i] for i in rng.integers(len(pool), size=n)]

    def description(root: str, kind: str, target: int | None) -> tuple[str, dict]:
        extra = {}
        if kind == "cluster":
            toks = leaf_words(root, target) + filler(root, 3)
        elif kind == "fallback":
            toks = []
            extra = {"occupation": [target_occupation[target]]}
        elif kind == "weak":
            toks = leaf_words(root, int(rng.integers(SUBTYPES_PER_ROOT)))[:1] + filler(root, 11)
        elif kind == "oov":
            toks = [oov_words[i] for i in rng.integers(len(oov_words), size=4)]
        elif kind == "empty":  # evidence falls back to out-of-vocabulary class labels
            toks = []
        else:
            raise ValueError(kind)
        rng.shuffle(toks)
        return " ".join(toks), extra

    # Designed mentions. Each mention's entity (and its distractors) are
    # grouped so Q-ids can be ordered within the group afterwards.
    groups: list[list[dict]] = []  # first element is the designed winner
    plan: list[tuple[str, str, str]] = []  # (surface, coarse, predicted)
    gold_of: list[str] = []
    for _ in range(workload.units):
        for root in ROOTS:
            slot_labels = {"coarse": root, **{f"s{k}": subtypes[root][j]
                                             for k, j in enumerate(TARGETS)}}
            errors_left = dict(ERRORS)
            entity_slot = 0
            for slot, kind in _ROOT_UNIT:
                predicted = slot_labels[slot]
                if errors_left[slot]:
                    errors_left[slot] -= 1
                    gold_of.append(slot_labels[SIGMA[slot]])
                else:
                    gold_of.append(predicted)
                surface = name(root)
                plan.append((surface, root, predicted))
                if kind == "miss":
                    continue
                target = TARGETS[int(slot[1])] if slot != "coarse" else None
                if root == "person" and slot == "s0" and entity_slot == 0:
                    kind = "fallback"
                elif kind == "oov" and ROOTS.index(root) % 2:
                    kind = "empty"
                desc, extra = description(root, kind, target)
                winner = record(surface, desc, **{**typing(root), **extra})
                path = _LOOKUP_CYCLE[entity_slot]
                entity_slot += 1
                group = [winner]
                if path == "alias":
                    winner["label"] = name(root)
                    winner["aliases"] = [surface]
                    if root in NARROWED:  # label hit outside the closure, alias inside
                        group.append(record(surface, " ".join(filler(root, 3)), **outside(root)))
                elif path == "homonym":
                    if root in NARROWED:  # lower Q-id outside the closure
                        group.append(record(surface, " ".join(filler(root, 3)), **outside(root)))
                    group.insert(1, record(surface, " ".join(filler(root, 3)), **typing(root)))
                groups.append(group)
        for _ in range(DATES_PER_UNIT):
            plan.append((name("date"), "date", "date"))
            gold_of.append("date")

    # Background records fill the KB to its size; some carry aliases that
    # are other background names.
    background = workload.kb_records - len(records)
    if background < 0:
        raise ValueError(f"{workload.name}: kb_records too small for the designed mentions")
    for _ in range(background):
        root = ROOTS[rng.integers(len(ROOTS))]
        toks = filler(root, int(rng.integers(2, 8)))
        if rng.random() < 0.3:
            toks.append(leaf_words(root, int(rng.integers(SUBTYPES_PER_ROOT)))[0])
        aliases = [name(root)] if rng.random() < 0.3 else []
        record(name(root), " ".join(toks), aliases=aliases, **typing(root))

    # Q-ids: a random distinct sample; within each designed group the winner
    # gets the lowest id among candidates inside the closure, and an
    # out-of-closure distractor (last in the group) the lowest overall.
    ids = rng.choice(np.arange(1, 20 * len(records)), size=len(records), replace=False)
    for rec, qid in zip(records, ids):
        rec["id"] = int(qid)
    for group in groups:
        pool = sorted(r["id"] for r in group)
        order = group[-1:] + group[:-1] if len(group) == 3 else group
        for rec, qid in zip(order, pool):
            rec["id"] = qid
    for rec in records:
        for key in ("instance_of", "subclass_of", "occupation"):
            rec[key] = [r["id"] for r in rec[key]]
    class_roots = {root: [tree[root][0]["id"]] for root in NARROWED}

    files["kb"] = directory / "kb.jsonl"
    with open(files["kb"], "w", encoding="utf-8") as fh:
        for i in rng.permutation(len(records)):
            r = records[i]
            fh.write(json.dumps({
                "qid": f"Q{r['id']}", "label": r["label"], "aliases": r["aliases"],
                "description": r["description"],
                "instance_of": [f"Q{x}" for x in r["instance_of"]],
                "subclass_of": [f"Q{x}" for x in r["subclass_of"]],
                "occupation": [f"Q{x}" for x in r["occupation"]],
            }) + "\n")

    oracle = Oracle(records, subtypes, vectors, class_roots)
    for surface, coarse, predicted in plan:
        got = oracle.expect(surface, coarse)[1]
        if got != predicted:
            raise AssertionError(f"generator: {surface!r} designed {predicted}, oracle {got}")

    # Corpus: fixed sentence-length multiset, mentions of two tokens placed
    # with at least one O token between them.
    context = words.new(200)
    sentences, mentions = _layout(rng, workload.sentence_lengths, plan, gold_of, context)
    files["gold"] = directory / "gold.conll"
    _write_conll(files["gold"], sentences, lambda m: m.gold)
    files["tagged"] = directory / "tagged.conll"
    _write_conll(files["tagged"], sentences, lambda m: m.coarse)

    cls_index = {c: i + 1 for i, c in enumerate(ROOTS + ("date",))}  # 0 is O
    token_class = {w: 0 for w in context}
    for c, (first, last) in pools.items():
        token_class.update({w: (cls_index[c], 10) for w in first})
        token_class.update({w: (cls_index[c], 11) for w in last})

    def signal(token: str, dim: int) -> np.ndarray:
        vec = np.zeros(dim)
        cls = token_class[token.lower()]
        if cls == 0:
            vec[0] = 1.0
        else:
            vec[cls[0]] = 1.0
            vec[cls[1]] = 0.8
        return vec

    if workload.static_dim:
        files["token_vectors"] = directory / "tokens.vec"
        vocab = sorted({t.lower() for s in sentences for t, _ in s})
        with open(files["token_vectors"], "w", encoding="utf-8") as fh:
            fh.write(f"{len(vocab)} {workload.static_dim}\n")
            for t in vocab:
                noise = 0.06 * rng.standard_normal(workload.static_dim)
                fh.write(f"{t} {_fmt(signal(t, workload.static_dim) + noise)}\n")

    def write_sidecar(path: Path, sents) -> None:
        dim = workload.sidecar_dim
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{dim}\n")
            for s in sents:
                for t, _ in s:
                    fh.write(_fmt(signal(t, dim) + 0.08 * rng.standard_normal(dim)) + "\n")
                fh.write("\n")

    cfg = {
        "hierarchy": files["hierarchy"].name, "kb": files["kb"].name,
        "embeddings": files["embeddings"].name, "corpus": files["gold"].name,
        "seed": seed, "granularity": "fine", "threshold": THRESHOLD,
        "similarity_mode": "pairwise-mean",
        **{f"class_roots.{r}": f"Q{qids[0]}" for r, qids in class_roots.items()},
        **workload.tagger,
    }
    if workload.static_dim:
        cfg["token_vectors"] = files["token_vectors"].name
    train_tokens = 0
    if workload.sidecar_dim:
        files["token_vectors"] = directory / "sidecar.vec"
        write_sidecar(files["token_vectors"], sentences)
        train_plan = [(name(c), c, c) for c in
                      (list(ROOTS) * 20 + ["date"] * 10)]
        rng.shuffle(train_plan)
        train_sents, _ = _layout(rng, MODEL_TRAIN_LENGTHS, train_plan,
                                 [p[2] for p in train_plan], context)
        files["train_corpus"] = directory / "model_train.conll"
        _write_conll(files["train_corpus"], train_sents, lambda m: m.coarse)
        files["train_sidecar"] = directory / "model_train_sidecar.vec"
        write_sidecar(files["train_sidecar"], train_sents)
        files["model"] = directory / "model.bin"
        cfg.update(vector_source="precomputed", token_vectors=files["token_vectors"].name,
                   model=files["model"].name)
        train_cfg = {**cfg, "corpus": files["train_corpus"].name,
                     "token_vectors": files["train_sidecar"].name}
        del train_cfg["model"]
        files["train_config"] = directory / "train_model.cfg"
        _write_cfg(files["train_config"], train_cfg)
    elif "pipeline" in workload.commands:
        train_tokens = sum(workload.sentence_lengths) * int(workload.tagger["epochs"])
    files["config"] = directory / "bench.cfg"
    _write_cfg(files["config"], cfg)
    return Generated(files, mentions, oracle,
                     corpus_tokens=sum(workload.sentence_lengths), train_tokens=train_tokens)


def _layout(rng, lengths, plan, gold_of, context):
    """Sentences as (token, tag) lists, and the placed mentions."""
    order = rng.permutation(len(plan))
    sent_order = rng.permutation(len(lengths))
    capacity = {i: (lengths[i] + 1) // 3 for i in range(len(lengths))}
    assigned: dict[int, list[int]] = {i: [] for i in range(len(lengths))}
    cursor = 0
    for m in order:
        for _ in range(len(lengths)):
            s = int(sent_order[cursor % len(lengths)])
            cursor += 1
            if len(assigned[s]) < capacity[s]:
                assigned[s].append(int(m))
                break
        else:
            raise ValueError("corpus too small for its mentions")
    sentences, mentions = [], []
    for s, length in enumerate(lengths):
        ms = assigned[s]
        spare = length - 3 * len(ms) + 1 if ms else length  # beyond one O between mentions
        gaps = np.bincount(rng.integers(0, len(ms) + 1, size=spare), minlength=len(ms) + 1)
        tokens: list[tuple[str, Mention | None]] = []
        for k, m in enumerate(ms):
            gap = gaps[k] + (k > 0)
            tokens += [(context[i], None) for i in rng.integers(len(context), size=gap)]
            surface, coarse, _ = plan[m]
            mention = Mention(s, len(tokens), coarse, gold_of[m])
            mentions.append(mention)
            first, last = surface.split()
            tokens += [(first, mention), (last, mention)]
        tokens += [(context[i], None) for i in rng.integers(len(context), size=gaps[len(ms)])]
        if len(tokens) != length:
            raise AssertionError("layout length mismatch")
        sentences.append(tokens)
    return sentences, mentions


def _write_conll(path: Path, sentences, label_of) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            for k, (token, m) in enumerate(s):
                if m is None:
                    tag = "O"
                else:
                    tag = ("B-" if k == m.start else "I-") + label_of(m)
                fh.write(f"{token}\t{tag}\n")
            fh.write("\n")


def _write_cfg(path: Path, cfg: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
