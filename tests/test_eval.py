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

from conftest import matched_counts, rational_scores


def approx(value):
    return pytest.approx(value, abs=1e-12)


def row(name, given, **pinned):
    """A named case of the scorer: ``given`` is a ``(pred, gold)`` pair of span
    lists or a mapping of per-class ``Counts``; ``pinned`` holds the numbers the
    case fixes, each compared with ``==``: per-class ``counts`` or the
    ``pooled`` counts as ``(tp, fp, fn)``, per-class ``prf`` and ``share``, and
    ``micro`` and ``macro`` F-1 (a macro of None: no class is evaluable)."""
    return pytest.param(given, pinned, id=name)


ONE_EACH = [(0, 2, "per"), (3, 4, "loc"), (5, 8, "org")]

SCORER_CASES = [
    row("identical-span-sets", (ONE_EACH, ONE_EACH), pooled=(3, 0, 0)),
    row("boundary-off-by-one-is-a-double-fault", ([(0, 3, "per")], [(0, 2, "per")]),
        pooled=(0, 1, 1)),
    row("type-mismatch-is-a-double-fault", ([(0, 2, "per")], [(0, 2, "loc")]),
        counts={"loc": (0, 0, 1), "per": (0, 1, 0)}),
    row("partial-overlap", ([(0, 2, "a"), (3, 4, "a"), (5, 6, "b"), (12, 13, "c")],
                            [(0, 2, "a"), (3, 4, "a"), (5, 6, "b"), (7, 9, "b"), (10, 11, "c")]),
        pooled=(3, 1, 2)),
    row("same-boundaries-different-types-are-distinct", ([(0, 2, "a"), (0, 2, "b")], [(0, 2, "a")]),
        counts={"a": (1, 0, 0), "b": (0, 1, 0)}),
    row("same-span-in-two-docs-is-two-spans", ([(0, 0, 2, "a"), (1, 0, 2, "a")], [(1, 0, 2, "a")]),
        counts={"a": (1, 1, 0)}),
    # one class: micro F-1 is its F-1, and the report holds its exact counts
    row("derived-example", {"a": Counts(3, 1, 2)}, prf={"a": (0.75, 0.6, approx(2 / 3))},
        micro=approx(2 / 3), share={"a": 1.0}),
    row("empty-class", {"a": Counts()}, prf={"a": (0.0, 0.0, 0.0)}, macro=None),
    row("no-class", {}, macro=None),
    row("perfect-class", {"a": Counts(tp=7)}, prf={"a": (1.0, 1.0, 1.0)}),
    row("zero-precision-denominator", {"a": Counts(0, 0, 4)}, prf={"a": (0.0, 0.0, 0.0)}),
    # pooled: tp 10, fp 10, fn 10 -> P = R = 1/2 -> F1 = 1/2
    row("micro-pools-counts-macro-averages-classes", {"a": Counts(9, 1, 1), "b": Counts(1, 9, 9)},
        prf={"a": (0.9, 0.9, approx(0.9)), "b": (0.1, 0.1, approx(0.1))}, micro=approx(0.5),
        macro=approx(0.5)),
    row("micro-of-empty-classes", {"a": Counts(), "b": Counts()}, micro=0.0),
    row("macro-equals-micro-for-identical-classes", {c: Counts(4, 2, 1) for c in "abcd"},
        micro=approx(8 / 11), macro=approx(8 / 11)),
    # active classes: a (F1 1.0) and b (F1 0.0)
    row("macro-ignores-inactive-classes", {"a": Counts(5, 0, 0), "b": Counts(0, 1, 0), "c": Counts()},
        macro=0.5),
    row("shares-are-gold-fractions", {"a": Counts(6, 1, 2), "b": Counts(1, 0, 1)},
        share={"a": 0.8, "b": 0.2}),
    row("scores-in-the-unit-interval", {"a": Counts(3, 4, 5), "b": Counts(0, 2, 0)}),
]


@pytest.mark.parametrize("given, pinned", SCORER_CASES)
def test_scores_match_the_rational_oracle(given, pinned):
    if isinstance(given, dict):
        counts = given
    else:
        counts = match_exact(*given)
        assert {lab: (c.tp, c.fp, c.fn) for lab, c in counts.items()} == matched_counts(*given)
    exact = {lab: (c.tp, c.fp, c.fn) for lab, c in counts.items()}
    prf, micro, macro = rational_scores(exact)
    gold = sum(c.support for c in counts.values())
    report = build_report(counts)
    for label, c in counts.items():
        p, r, f = precision_recall_f1(c)
        # a quotient of two ints is the correctly rounded exact one
        assert (p, r) == (float(prf[label][0]), float(prf[label][1]))
        assert f == approx(float(prf[label][2]))
        share = float(Fraction(c.support, gold)) if gold else 0.0
        assert report["per_class"][label] == {"share": share, "precision": p, "recall": r,
                                              "f1": f, "tp": c.tp, "fp": c.fp, "fn": c.fn}
    assert micro_f1(counts) == report["micro_f1"] == approx(float(micro))
    if macro is None:
        with pytest.raises(EvalError, match="no evaluable class"):
            macro_f1(counts)
        assert report["macro_f1"] == 0.0
    else:
        assert macro_f1(counts) == report["macro_f1"] == approx(float(macro))
    for label, want in pinned.get("counts", {}).items():
        assert exact[label] == want
    if "pooled" in pinned:
        assert tuple(map(sum, zip(*exact.values()))) == pinned["pooled"]
    for label, want in pinned.get("prf", {}).items():
        assert precision_recall_f1(counts[label]) == want
    for label, want in pinned.get("share", {}).items():
        assert report["per_class"][label]["share"] == want
    if "micro" in pinned:
        assert micro_f1(counts) == pinned["micro"]
    if "macro" in pinned:
        assert (None if macro is None else macro_f1(counts)) == pinned["macro"]


DOC_SPAN = st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 3),
                     st.sampled_from("abcdef")).map(lambda t: (t[0], t[1], t[1] + t[2], t[3]))


@settings(max_examples=300, deadline=None)
@given(pred=st.sets(DOC_SPAN, max_size=24), gold=st.sets(DOC_SPAN, max_size=24))
def test_one_call_over_doc_keyed_spans_sums_the_per_doc_counts(pred, gold):
    counts = match_exact(list(pred), list(gold))
    assert {lab: (c.tp, c.fp, c.fn) for lab, c in counts.items()} == matched_counts(pred, gold)
    assert list(counts) == sorted(counts)


# Scorer faults, and the text each is reported with.
SCORER_ERRORS = {
    "duplicate-predicted-span": (lambda: match_exact([(0, 2, "a"), (0, 2, "a")], []),
                                 "duplicate predicted"),
    "duplicate-gold-span": (lambda: match_exact([], [(0, 2, "a"), (0, 2, "a")]), "duplicate gold"),
    "duplicate-span-in-one-doc": (
        lambda: match_exact([], [(0, 0, 2, "a"), (1, 0, 2, "a"), (1, 0, 2, "a")]),
        re.escape("duplicate gold span: (1, 0, 2, 'a')")),
    "empty-span": (lambda: match_exact([(2, 2, "a")], []), "boundaries"),
    "negative-start": (lambda: match_exact([(-1, 2, "a")], []),
                       re.escape("predicted span has invalid boundaries: (-1, 2, 'a')")),
    "end-before-start-in-one-doc": (lambda: match_exact([], [(0, 3, 1, "a")]),
                                    re.escape("gold span has invalid boundaries: (0, 3, 1, 'a')")),
    "negative-count": (lambda: Counts(tp=-1), "negative count"),
}


@pytest.mark.parametrize("case", SCORER_ERRORS)
def test_scorer_error_text(case):
    call, message = SCORER_ERRORS[case]
    with pytest.raises(EvalError, match=message):
        call()


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
        assert match_exact(p2, g2) == base


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

def test_report_respects_requested_order():
    counts = {"z": Counts(1, 0, 0), "m": Counts(1, 0, 0), "a": Counts(1, 0, 0)}
    report = build_report(counts, order=["m", "z"])
    assert list(report["per_class"]) == ["m", "z", "a"]


def test_format_report_contains_columns():
    counts = {"person": Counts(3, 1, 2)}
    table = format_report(build_report(counts))
    assert "person" in table
    assert "micro F1" in table and "macro F1" in table
