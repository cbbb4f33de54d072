"""Exact-match scoring: per-class confusion counts and P/R/F-1 aggregation.

A prediction counts only when its key, boundaries and type all equal a gold
span. Micro averaging pools counts across classes (treating entities
equally); macro averaging takes the unweighted mean of per-class F-1 over
classes with any activity (treating classes equally).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class EvalError(ValueError):
    """Invalid span sets or an aggregation without any evaluable class."""


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


def _validate_spans(spans: Sequence[tuple], side: str) -> None:
    seen: set[tuple] = set()
    for span in spans:
        start, end = span[-3], span[-2]
        if start < 0 or end <= start:
            raise EvalError(f"{side} span has invalid boundaries: {span}")
        if span in seen:
            raise EvalError(f"duplicate {side} span: {span}")
        seen.add(span)


def match_exact(pred: Iterable[tuple], gold: Iterable[tuple]) -> dict[str, Counts]:
    """Count TP/FP/FN per class under exact span equality, classes in sorted order.

    A span is a tuple ``(..., start, end, label)``; leading fields, such as a
    sentence index, are part of its identity, so one call scores a corpus.
    Identical duplicate spans within one side are rejected; each gold span
    matches at most one prediction.
    """
    pred_spans, gold_spans = list(pred), list(gold)
    _validate_spans(pred_spans, "predicted")
    _validate_spans(gold_spans, "gold")
    predicted = Counter(span[-1] for span in pred_spans)
    annotated = Counter(span[-1] for span in gold_spans)
    matched = Counter(span[-1] for span in set(pred_spans).intersection(gold_spans))
    return {label: Counts(tp=matched[label], fp=predicted[label] - matched[label],
                          fn=annotated[label] - matched[label])
            for label in sorted(predicted.keys() | annotated.keys())}


def precision_recall_f1(counts: Counts) -> tuple[float, float, float]:
    """P = tp/(tp+fp), R = tp/(tp+fn), F1 = 2PR/(P+R); zero denominators
    yield zero (CoNLL convention)."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def micro_f1(per_class: Mapping[str, Counts]) -> float:
    """F-1 of the counts pooled across all classes."""
    total = Counts()
    for counts in per_class.values():
        total = total + counts
    return precision_recall_f1(total)[2]


def macro_f1(per_class: Mapping[str, Counts]) -> float:
    """Unweighted mean of per-class F-1 over classes with any activity,
    summed in the mapping's order."""
    active = [c for c in per_class.values() if c.active]
    if not active:
        raise EvalError("no evaluable class: every class has zero counts")
    return sum(precision_recall_f1(c)[2] for c in active) / len(active)


def build_report(per_class: Mapping[str, Counts], order: Sequence[str] = ()) -> dict:
    """The ``report.json`` payload: a ``per_class`` row of share, precision,
    recall, F-1 and counts per class, then ``micro_f1`` and ``macro_f1``
    (0.0 when no class is active). ``order`` fixes the row order for known
    labels, with any remaining labels appended alphabetically. A class's
    share is its fraction of all gold spans."""
    total_gold = sum(c.support for c in per_class.values())
    position = {label: i for i, label in enumerate(order)}
    rows = {}
    for label in sorted(per_class, key=lambda lab: (position.get(lab, len(position)), lab)):
        c = per_class[label]
        precision, recall, f1 = precision_recall_f1(c)
        rows[label] = {"share": c.support / total_gold if total_gold else 0.0,
                       "precision": precision, "recall": recall, "f1": f1,
                       "tp": c.tp, "fp": c.fp, "fn": c.fn}
    active = any(c.active for c in per_class.values())
    return {"per_class": rows, "micro_f1": micro_f1(per_class),
            "macro_f1": macro_f1(per_class) if active else 0.0}


def format_report(report: dict) -> str:
    """Human-readable table of a ``build_report`` payload: %, Precision,
    Recall, F-1 per class plus the micro/macro summary lines."""
    rows = report["per_class"]
    width = max([len("label")] + [len(lab) for lab in rows])
    lines = [f"{'label':<{width}}  {'%':>6}  {'prec':>6}  {'rec':>6}  {'f1':>6}"]
    for label, row in rows.items():
        lines.append(
            f"{label:<{width}}  {100 * row['share']:>6.1f}  {100 * row['precision']:>6.1f}"
            f"  {100 * row['recall']:>6.1f}  {100 * row['f1']:>6.1f}"
        )
    lines.append(f"micro F1: {100 * report['micro_f1']:.1f}")
    lines.append(f"macro F1: {100 * report['macro_f1']:.1f}")
    return "\n".join(lines)
