import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetype.evaluation import (
    Counts,
    EvalError,
    build_report,
    format_report,
    macro_f1,
    match_exact,
    micro_f1,
    precision_recall_f1,
)


def exact_prf(tp, fp, fn):
    """Rational-arithmetic oracle for the three scores."""
    p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f = 2 * p * r / (p + r) if p + r else Fraction(0)
    return float(p), float(r), float(f)


# --- match_exact ---------------------------------------------------------------

def test_identical_span_sets():
    spans = [(0, 2, "per"), (3, 4, "loc"), (5, 8, "org")]
    counts = match_exact(spans, spans)
    assert sum(counts.values(), Counts()) == Counts(tp=3, fp=0, fn=0)


def test_boundary_off_by_one_is_double_fault():
    counts = match_exact([(0, 3, "per")], [(0, 2, "per")])
    assert sum(counts.values(), Counts()) == Counts(tp=0, fp=1, fn=1)


def test_type_mismatch_is_double_fault():
    counts = match_exact([(0, 2, "per")], [(0, 2, "loc")])
    assert counts["per"] == Counts(tp=0, fp=1, fn=0)
    assert counts["loc"] == Counts(tp=0, fp=0, fn=1)


def test_partial_overlap_fixture():
    gold = [(0, 2, "a"), (3, 4, "a"), (5, 6, "b"), (7, 9, "b"), (10, 11, "c")]
    pred = [(0, 2, "a"), (3, 4, "a"), (5, 6, "b"), (12, 13, "c")]
    counts = match_exact(pred, gold)
    assert sum(counts.values(), Counts()) == Counts(tp=3, fp=1, fn=2)


def test_duplicate_spans_rejected():
    with pytest.raises(EvalError, match="duplicate predicted"):
        match_exact([(0, 2, "a"), (0, 2, "a")], [])
    with pytest.raises(EvalError, match="duplicate gold"):
        match_exact([], [(0, 2, "a"), (0, 2, "a")])


def test_invalid_boundaries_rejected():
    with pytest.raises(EvalError, match="boundaries"):
        match_exact([(2, 2, "a")], [])


def test_same_boundaries_different_types_are_distinct():
    counts = match_exact([(0, 2, "a"), (0, 2, "b")], [(0, 2, "a")])
    assert counts["a"].tp == 1
    assert counts["b"].fp == 1


def test_same_span_in_two_docs_is_two_spans():
    counts = match_exact([(0, 0, 2, "a"), (1, 0, 2, "a")], [(1, 0, 2, "a")])
    assert counts == {"a": Counts(tp=1, fp=1, fn=0)}
    with pytest.raises(EvalError, match=re.escape("duplicate gold span: (1, 0, 2, 'a')")):
        match_exact([], [(0, 0, 2, "a"), (1, 0, 2, "a"), (1, 0, 2, "a")])


def per_doc_oracle(pred, gold):
    """Each doc scored on its own by set arithmetic, the counts summed per label."""
    totals = {}
    for doc in {s[0] for s in pred} | {s[0] for s in gold}:
        p = {s[1:] for s in pred if s[0] == doc}
        g = {s[1:] for s in gold if s[0] == doc}
        for label in {s[2] for s in p | g}:
            tp = sum(1 for s in p & g if s[2] == label)
            fp = sum(1 for s in p if s[2] == label) - tp
            fn = sum(1 for s in g if s[2] == label) - tp
            totals[label] = totals.get(label, Counts()) + Counts(tp, fp, fn)
    return totals


doc_spans = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 3), st.sampled_from("abcdef"))
    .map(lambda t: (t[0], t[1], t[1] + t[2], t[3])),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(pred=doc_spans, gold=doc_spans)
def test_one_call_over_doc_keyed_spans_sums_the_per_doc_counts(pred, gold):
    counts = match_exact(list(pred), list(gold))
    assert counts == per_doc_oracle(pred, gold)
    assert list(counts) == sorted(counts)


# --- precision / recall / F-1 -----------------------------------------------------

def test_prf_derived_example():
    p, r, f = precision_recall_f1(Counts(tp=3, fp=1, fn=2))
    ep, er, ef = exact_prf(3, 1, 2)
    assert (p, r) == (ep, er) == (0.75, 0.6)
    assert f == pytest.approx(ef, abs=1e-15)
    assert f == pytest.approx(2 / 3, abs=1e-12)


def test_prf_empty_class_convention():
    assert precision_recall_f1(Counts()) == (0.0, 0.0, 0.0)


def test_prf_perfect_class():
    assert precision_recall_f1(Counts(tp=7)) == (1.0, 1.0, 1.0)


def test_prf_zero_precision_denominator():
    p, r, f = precision_recall_f1(Counts(tp=0, fp=0, fn=4))
    assert (p, r, f) == (0.0, 0.0, 0.0)


def test_negative_counts_rejected():
    with pytest.raises(EvalError):
        Counts(tp=-1)


# --- micro / macro -----------------------------------------------------------------

def test_micro_single_class_equals_class_f1():
    per_class = {"a": Counts(3, 1, 2)}
    assert micro_f1(per_class) == precision_recall_f1(Counts(3, 1, 2))[2]


def test_micro_pooled_counts_fixture():
    per_class = {"a": Counts(9, 1, 1), "b": Counts(1, 9, 9)}
    # pooled: tp 10, fp 10, fn 10 -> P = R = 1/2 -> F1 = 1/2
    assert micro_f1(per_class) == pytest.approx(0.5, abs=1e-15)


def test_micro_all_empty_convention():
    assert micro_f1({"a": Counts(), "b": Counts()}) == 0.0


def test_macro_mean_of_class_f1():
    per_class = {"a": Counts(9, 1, 1), "b": Counts(1, 9, 9)}
    fa = exact_prf(9, 1, 1)[2]
    fb = exact_prf(1, 9, 9)[2]
    assert fa == pytest.approx(0.9, abs=1e-12) and fb == pytest.approx(0.1, abs=1e-12)
    assert macro_f1(per_class) == pytest.approx((fa + fb) / 2, abs=1e-15)
    assert macro_f1(per_class) == pytest.approx(0.5, abs=1e-12)


def test_macro_equals_micro_for_identical_classes():
    per_class = {c: Counts(4, 2, 1) for c in "abcd"}
    assert macro_f1(per_class) == pytest.approx(micro_f1(per_class), abs=1e-12)


def test_macro_ignores_inactive_classes():
    per_class = {"a": Counts(5, 0, 0), "b": Counts(0, 1, 0), "c": Counts()}
    # active classes: a (F1 1.0) and b (F1 0.0)
    assert macro_f1(per_class) == pytest.approx(0.5, abs=1e-15)


def test_macro_without_evaluable_class():
    with pytest.raises(EvalError, match="no evaluable class"):
        macro_f1({"a": Counts()})
    with pytest.raises(EvalError):
        macro_f1({})


# --- merging and invariants --------------------------------------------------------

def test_counts_add_sums_counts_and_rejects_other_operands():
    assert Counts(1, 2, 3) + Counts(1, 1, 1) == Counts(2, 3, 4)
    for other in ({}, 1):
        with pytest.raises(TypeError):
            Counts() + other


def test_permutation_invariance():
    rng = random.Random(5)
    gold = [(i, i + 1, rng.choice("abc")) for i in range(0, 30, 2)]
    pred = [(i, i + 1, rng.choice("abc")) for i in range(0, 30, 2)]
    base = match_exact(pred, gold)
    for _ in range(10):
        p2, g2 = pred[:], gold[:]
        rng.shuffle(p2)
        rng.shuffle(g2)
        shuffled = match_exact(p2, g2)
        assert shuffled == base
    assert micro_f1(base) == micro_f1(match_exact(pred, gold))


@settings(max_examples=200, deadline=None)
@given(
    tp=st.integers(0, 20), fp=st.integers(1, 20), fn=st.integers(1, 20),
    other=st.integers(0, 10),
)
def test_converting_fp_to_tp_never_decreases_scores(tp, fp, fn, other):
    before = {"a": Counts(tp, fp, fn), "b": Counts(other, other, other)}
    after = {"a": Counts(tp + 1, fp - 1, fn - 1), "b": Counts(other, other, other)}
    pb, rb, _ = precision_recall_f1(before["a"])
    pa, ra, _ = precision_recall_f1(after["a"])
    assert pa >= pb and ra >= rb
    assert micro_f1(after) >= micro_f1(before)


# --- report -------------------------------------------------------------------------

def test_report_shares_are_gold_fractions():
    counts = {
        "a": Counts(6, 1, 2),   # 8 gold
        "b": Counts(1, 0, 1),   # 2 gold
    }
    report = build_report(counts)
    assert report["per_class"]["a"]["share"] == pytest.approx(0.8)
    assert report["per_class"]["b"]["share"] == pytest.approx(0.2)
    assert sum(s["share"] for s in report["per_class"].values()) == pytest.approx(1.0, abs=1e-9)


def test_report_respects_requested_order():
    counts = {"z": Counts(1, 0, 0), "m": Counts(1, 0, 0), "a": Counts(1, 0, 0)}
    report = build_report(counts, order=["m", "z"])
    assert list(report["per_class"]) == ["m", "z", "a"]


def test_report_scores_in_unit_interval():
    counts = {"a": Counts(3, 4, 5), "b": Counts(0, 2, 0)}
    report = build_report(counts)
    for s in report["per_class"].values():
        for value in (s["share"], s["precision"], s["recall"], s["f1"]):
            assert 0.0 <= value <= 1.0
    assert 0.0 <= report["micro_f1"] <= 1.0
    assert 0.0 <= report["macro_f1"] <= 1.0


def test_report_to_dict_has_exact_counts():
    counts = {"a": Counts(3, 1, 2)}
    payload = build_report(counts)
    assert payload["per_class"]["a"]["tp"] == 3
    assert payload["per_class"]["a"]["precision"] == 0.75
    assert payload["micro_f1"] == pytest.approx(2 / 3, abs=1e-12)


def test_format_report_contains_columns():
    counts = {"person": Counts(3, 1, 2)}
    table = format_report(build_report(counts))
    assert "person" in table
    assert "micro F1" in table and "macro F1" in table
