"""Exact-match scoring: per-class confusion counts and P/R/F-1 aggregation.

A prediction counts only when boundaries and type both equal a gold span.
Micro averaging pools counts across classes (treating entities equally);
macro averaging takes the unweighted mean of per-class F-1 over classes with
any activity (treating classes equally). Counts merge associatively, so
per-sentence results can be combined in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class EvalError(ValueError):
    """Invalid span sets or an aggregation without any evaluable class."""


Span = tuple[int, int, str]


def _as_triple(span) -> Span:
    if isinstance(span, tuple):
        start, end, label = span
    else:
        start, end, label = span.start, span.end, span.coarse
    return int(start), int(end), str(label)


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise EvalError("negative count")

    def __add__(self, other: "Counts") -> "Counts":
        if not isinstance(other, Counts):
            return NotImplemented
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def support(self) -> int:
        """Gold spans of this class."""
        return self.tp + self.fn

    @property
    def active(self) -> bool:
        return (self.tp + self.fp + self.fn) > 0


@dataclass
class MatchCounts:
    """Per-class exact-match counts; merge with ``+``."""

    per_class: dict[str, Counts] = field(default_factory=dict)

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        if not isinstance(other, MatchCounts):
            return NotImplemented
        merged = dict(self.per_class)
        for label, counts in other.per_class.items():
            merged[label] = merged.get(label, Counts()) + counts
        return MatchCounts(merged)

    def __radd__(self, other) -> "MatchCounts":
        """``0 + counts``, which lets sum() start from its default 0."""
        if type(other) is int and other == 0:
            return MatchCounts(dict(self.per_class))
        return NotImplemented

    def totals(self) -> Counts:
        total = Counts()
        for counts in self.per_class.values():
            total = total + counts
        return total


def _validate_spans(spans: Sequence[Span], side: str) -> None:
    seen: set[Span] = set()
    for span in spans:
        start, end, _ = span
        if start < 0 or end <= start:
            raise EvalError(f"{side} span has invalid boundaries: {span}")
        if span in seen:
            raise EvalError(f"duplicate {side} span: {span}")
        seen.add(span)


def match_exact(pred: Iterable, gold: Iterable) -> MatchCounts:
    """Count TP/FP/FN per class under exact (start, end, type) equality.

    Inputs may be (start, end, label) triples or objects with those
    attributes. Identical duplicate spans within one side are rejected;
    each gold span matches at most one prediction.
    """
    pred_spans = [_as_triple(s) for s in pred]
    gold_spans = [_as_triple(s) for s in gold]
    _validate_spans(pred_spans, "predicted")
    _validate_spans(gold_spans, "gold")
    labels = {s[2] for s in pred_spans} | {s[2] for s in gold_spans}
    pred_set = set(pred_spans)
    gold_set = set(gold_spans)
    per_class: dict[str, Counts] = {}
    for label in sorted(labels):
        p = {s for s in pred_set if s[2] == label}
        g = {s for s in gold_set if s[2] == label}
        tp = len(p & g)
        per_class[label] = Counts(tp=tp, fp=len(p) - tp, fn=len(g) - tp)
    return MatchCounts(per_class)


def precision_recall_f1(counts: Counts) -> tuple[float, float, float]:
    """P = tp/(tp+fp), R = tp/(tp+fn), F1 = 2PR/(P+R); zero denominators
    yield zero (CoNLL convention)."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _class_map(per_class) -> Mapping[str, Counts]:
    return per_class.per_class if isinstance(per_class, MatchCounts) else per_class


def micro_f1(per_class) -> float:
    """F-1 of the counts pooled across all classes."""
    total = Counts()
    for counts in _class_map(per_class).values():
        total = total + counts
    return precision_recall_f1(total)[2]


def macro_f1(per_class) -> float:
    """Unweighted mean of per-class F-1 over classes with any activity."""
    active = [c for c in _class_map(per_class).values() if c.active]
    if not active:
        raise EvalError("no evaluable class: every class has zero counts")
    return sum(precision_recall_f1(c)[2] for c in active) / len(active)


@dataclass(frozen=True)
class ClassScore:
    share: float
    precision: float
    recall: float
    f1: float
    counts: Counts


@dataclass
class EvalReport:
    """Per-class shares and scores plus the two averages; class order is the
    presentation order requested by the caller."""

    per_class: dict[str, ClassScore]
    micro_f1: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {
            "per_class": {
                label: {
                    "share": s.share,
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "tp": s.counts.tp,
                    "fp": s.counts.fp,
                    "fn": s.counts.fn,
                }
                for label, s in self.per_class.items()
            },
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
        }


def build_report(counts: MatchCounts, order: Sequence[str] | None = None) -> EvalReport:
    """Assemble a report; ``order`` fixes the presentation order for known
    labels, with any remaining labels appended alphabetically. A class's
    share is its fraction of all gold spans."""
    per_class = counts.per_class
    total_gold = sum(c.support for c in per_class.values())
    labels = list(per_class)
    if order is not None:
        position = {label: i for i, label in enumerate(order)}
        labels.sort(key=lambda lab: (position.get(lab, len(position)), lab))
    else:
        labels.sort()
    scores: dict[str, ClassScore] = {}
    for label in labels:
        c = per_class[label]
        precision, recall, f1 = precision_recall_f1(c)
        share = c.support / total_gold if total_gold else 0.0
        scores[label] = ClassScore(share, precision, recall, f1, c)
    active = {k: v for k, v in per_class.items() if v.active}
    return EvalReport(
        per_class=scores,
        micro_f1=micro_f1(per_class),
        macro_f1=macro_f1(active) if active else 0.0,
    )


def format_report(report: EvalReport) -> str:
    """Human-readable table: %, Precision, Recall, F-1 per class plus the
    micro/macro summary lines."""
    width = max([len("label")] + [len(lab) for lab in report.per_class])
    lines = [f"{'label':<{width}}  {'%':>6}  {'prec':>6}  {'rec':>6}  {'f1':>6}"]
    for label, s in report.per_class.items():
        lines.append(
            f"{label:<{width}}  {100 * s.share:>6.1f}  {100 * s.precision:>6.1f}"
            f"  {100 * s.recall:>6.1f}  {100 * s.f1:>6.1f}"
        )
    lines.append(f"micro F1: {100 * report.micro_f1:.1f}")
    lines.append(f"macro F1: {100 * report.macro_f1:.1f}")
    return "\n".join(lines)
