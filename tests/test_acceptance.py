"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; the oracles are independent
re-implementations (rational arithmetic, scan-ahead span decoding, explicit
bipartite matching) rather than calls back into the library.
"""

import itertools
import json
import random
import time

import numpy as np

from finetype.cli import main
from finetype.evaluation import (
    Counts,
    macro_f1,
    match_exact,
    micro_f1,
    precision_recall_f1,
)
from finetype.kb import ingest_snapshot
from finetype.linker import Linker, LinkerConfig, cluster_to_subtype, link_mention
from finetype.tagger import MentionSpan, TaggerConfig, extract_spans, train

from conftest import (desk_cfg, matched_counts, rational_scores, run_gradient_check,
                      synthetic_corpus, tags_of_spans, token_accuracy)


def ok(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


# ---------------------------------------------------------------------------
# The scorer against its exact-rational oracle


def random_span_sets(rng, max_spans=20, max_classes=5):
    labels = [f"c{i}" for i in range(rng.randint(1, max_classes))]

    def one_side():
        spans = set()
        for _ in range(rng.randint(0, max_spans)):
            start = rng.randint(0, 30)
            end = start + rng.randint(1, 4)
            spans.add((start, end, rng.choice(labels)))
        return sorted(spans)

    return one_side(), one_side()


def test_metric_oracle_equivalence_1000_instances():
    rng = random.Random(20110420)
    t0 = time.monotonic()
    for _ in range(1000):
        pred, gold = random_span_sets(rng)
        counts = match_exact(pred, gold)
        expected_classes = matched_counts(pred, gold)
        expected_prf, expected_micro, expected_macro = rational_scores(expected_classes)
        got = {lab: (c.tp, c.fp, c.fn) for lab, c in counts.items()}
        assert got == expected_classes
        for lab, (ep, er, ef) in expected_prf.items():
            p, r, f = precision_recall_f1(counts[lab])
            assert abs(p - float(ep)) < 1e-12
            assert abs(r - float(er)) < 1e-12
            assert abs(f - float(ef)) < 1e-12
        assert abs(micro_f1(counts) - float(expected_micro)) < 1e-12
        if expected_macro is not None:
            assert abs(macro_f1(counts) - float(expected_macro)) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"scorer comparison took {elapsed:.1f}s"
    ok(f"metric oracle equivalence (1000 instances, {elapsed:.1f}s)")


def test_formula_identities():
    rng = random.Random(77)
    for _ in range(500):
        per_class = {
            f"c{i}": Counts(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
            for i in range(rng.randint(1, 6))
        }
        pooled = Counts()
        for c in per_class.values():
            pooled = pooled + c
        assert micro_f1(per_class) == precision_recall_f1(pooled)[2]
    for _ in range(100):
        counts = Counts(rng.randint(1, 9), rng.randint(0, 9), rng.randint(0, 9))
        per_class = {f"c{i}": counts for i in range(rng.randint(1, 6))}
        assert abs(macro_f1(per_class) - micro_f1(per_class)) < 1e-12
    ok("formula identities (pooled micro; macro = micro on identical classes)")


# ---------------------------------------------------------------------------
# Clustering fixture


def test_clustering_fixture_worked_sentence(hierarchy, demo_kb, demo_table):
    sentence = ("The device will be available on sale on 20th April 2011"
                " on amazon uk Apple 's iPad .")
    tokens = sentence.split()
    span = MentionSpan(tokens.index("iPad"), tokens.index("iPad") + 1, "product")
    class_roots = {"person": {5}, "location": {2221906}, "organization": {43229}}
    cfg = LinkerConfig(threshold=0.1, class_roots=class_roots)
    got = link_mention(Linker(demo_kb, hierarchy, demo_table, cfg), span, tokens)
    assert got.entity == 2796
    assert got.fine_type == "product.computer"
    assert got.score is not None and got.score > 0.1

    # the winning label is the argmax over every product subtype
    entity = demo_kb.records[2796]
    scored = cluster_to_subtype(Linker(ingest_snapshot([]), hierarchy, demo_table, cfg), entity,
                                "product")
    assert scored is not None and scored[0] == "product.computer"

    # raising the threshold above the winning score forces the coarse fallback
    strict = LinkerConfig(threshold=min(1.0, got.score + 0.01), class_roots=class_roots)
    fallback = link_mention(Linker(demo_kb, hierarchy, demo_table, strict), span, tokens)
    assert fallback.fine_type == "product"
    assert fallback.entity == 2796 and fallback.score is None
    ok(f"clustering fixture (iPad -> Q2796 product.computer, score {got.score:.4f})")


# ---------------------------------------------------------------------------
# Redirection monotonicity


def kb_line(qid, label, aliases=()):
    return json.dumps({"qid": qid, "label": label, "aliases": list(aliases)})


def with_and_without_redirection(records):
    """The KB of ``(qid, label, aliases)`` records, and the KB of the same
    records with their aliases dropped."""
    return (ingest_snapshot([kb_line(qid, label, aliases) for qid, label, aliases in records]),
            ingest_snapshot([kb_line(qid, label) for qid, label, _ in records]))


def resolution_recall(kb, mentions):
    hits = 0
    for surface, expected in mentions:
        got = kb.lookup(surface)
        hits += got is not None and got.id == expected
    return hits / len(mentions)


def test_redirection_monotonicity():
    # 4 of 10 mentions resolve only through the also-known-as list
    kb, kb_without = with_and_without_redirection([
        ("Q1", "alpha corp", ["the alpha company"]),
        ("Q2", "beta systems", ["beta labs"]),
        ("Q3", "gamma press", ["gamma publishing house"]),
        ("Q4", "delta air", ["delta airlines"]),
        ("Q5", "epsilon", []),
        ("Q6", "zeta", []),
    ])
    mentions = [
        ("alpha corp", 1), ("beta systems", 2), ("gamma press", 3),
        ("delta air", 4), ("epsilon", 5), ("zeta", 6),
        ("the alpha company", 1), ("beta labs", 2),
        ("gamma publishing house", 3), ("delta airlines", 4),
    ]
    with_aliases = resolution_recall(kb, mentions)
    without = resolution_recall(kb_without, mentions)
    assert with_aliases == 1.0 and without == 0.6
    assert with_aliases > without

    # property: dropping redirection never increases recall (200 random KBs)
    rng = random.Random(404)
    surfaces = [f"s{i}" for i in range(12)]
    for _ in range(200):
        records = []
        for qid in range(1, rng.randint(3, 9)):
            label = rng.choice(surfaces)
            aliases = rng.sample(surfaces, rng.randint(0, 3))
            records.append((f"Q{qid}", label, aliases))
        kb, kb_without = with_and_without_redirection(records)
        mentions = []
        for _ in range(10):
            qid, label, aliases = rng.choice(records)
            surface = rng.choice([label] + list(aliases))
            mentions.append((surface, int(qid[1:])))
        assert resolution_recall(kb, mentions) >= resolution_recall(kb_without, mentions)
    ok("redirection monotonicity (fixture 1.0 > 0.6; 200 random corpora)")


def test_lowest_qid_determinism():
    lines = [
        kb_line("Q880", "mercury"),
        kb_line("Q17", "mercury"),
        kb_line("Q3901", "mercury"),
    ]
    rng = random.Random(9)
    seen = set()
    for _ in range(20):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        seen.add(ingest_snapshot(shuffled).lookup("mercury").id)
    assert seen == {17}
    ok("lowest-Q-id determinism (3 homonyms, 20 insertion orders)")


# ---------------------------------------------------------------------------
# Tagger


def test_tagger_gradient_check():
    t0 = time.monotonic()
    worst_fwd = run_gradient_check(
        TaggerConfig(hidden_size=8, embedding_dim=5, dropout=0.0), length=5
    )
    worst_bi = run_gradient_check(
        TaggerConfig(hidden_size=4, embedding_dim=3, dropout=0.0, bidirectional=True),
        length=4,
    )
    elapsed = time.monotonic() - t0
    assert worst_fwd < 1e-4 and worst_bi < 1e-4
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s"
    ok(f"tagger gradient check (worst relative error {max(worst_fwd, worst_bi):.2e}, {elapsed:.1f}s)")


def test_tagger_memorization_and_seeded_rerun():
    corpus = synthetic_corpus()
    cfg = desk_cfg(epochs=50)
    model = train(corpus, cfg)
    accuracy = token_accuracy(model, corpus)
    assert accuracy >= 0.95
    assert model.final_loss < 1.0
    rerun = train(corpus, cfg)
    assert rerun.loss_curve == model.loss_curve
    assert rerun.tags == model.tags
    assert all(np.array_equal(rerun.params[k], model.params[k]) for k in model.params)
    ok(f"tagger memorization (accuracy {accuracy:.2f}; rerun bitwise identical)")


def test_span_codec_round_trip_exhaustive():
    alphabet = ["O", "B-a", "I-a", "B-b", "I-b", "B-c", "I-c"]
    checked = 0
    for length in range(7):
        for tags in itertools.product(alphabet, repeat=length):
            spans = extract_spans(list(tags))
            encoded = tags_of_spans(spans, length)
            assert extract_spans(encoded) == spans, tags
            checked += 1
    assert checked == sum(7**n for n in range(7))
    ok(f"span codec round trip ({checked} tag strings, 3 types, length <= 6)")


# ---------------------------------------------------------------------------
# End-to-end reproducibility


def test_end_to_end_reproducibility(tmp_path, demo_config_path, capsys):
    t0 = time.monotonic()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["pipeline", "--config", str(demo_config_path),
                     "--output-dir", str(out)])
        assert code == 0
        outputs.append(out)
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == ["linked.jsonl", "model.npz", "report.json", "report.txt", "tagged.conll"]
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identically-seeded runs"
    linked = [json.loads(l) for l in (outputs[0] / "linked.jsonl").read_text().splitlines()]
    ipad = [r for r in linked if r["surface"] == "iPad"]
    assert ipad and all(r["entity"] == "Q2796" and r["fine"] == "product.computer"
                        and r["score"] > 0.1 for r in ipad)
    assert elapsed < 60.0, f"two pipeline runs took {elapsed:.1f}s"
    ok(f"end-to-end reproducibility (byte-identical outputs, {elapsed:.1f}s for two runs)")
