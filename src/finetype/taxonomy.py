"""Two-level entity type hierarchy: loading, validation, and coarse/fine navigation.

The hierarchy is data, not code: it ships as a plain-text document (one label
per line, fine labels written as ``coarse.fine``) so it can be swapped for any
domain-specific inventory without touching the library.
"""

from __future__ import annotations

import os
from typing import Iterable

from .textfile import open_utf8


class HierarchyError(ValueError):
    """Malformed hierarchy document, or navigation over an unknown label."""


class TypeLabel(str):
    """A lowercase dotted label path such as ``person`` or ``person.artist``.

    Behaves as a plain string (hashable, comparable, JSON-friendly) with a few
    structural accessors. Segment names may contain internal spaces
    ("product.mobile phone") because subtype names are embedded word-by-word
    during clustering.
    """

    def __new__(cls, name: str) -> "TypeLabel":
        normalized = " ".join(str(name).split()).lower()
        if not normalized:
            raise HierarchyError("empty type label")
        if any(not seg.strip() for seg in normalized.split(".")):
            raise HierarchyError(f"label has an empty path segment: {name!r}")
        return super().__new__(cls, normalized)

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.split("."))

    @property
    def depth(self) -> int:
        return len(self.segments)

    @property
    def root(self) -> str:
        return self.segments[0]

    @property
    def leaf(self) -> str:
        return self.segments[-1]

    @property
    def parent(self) -> str | None:
        """Dotted path one level up, or None for a root label."""
        segs = self.segments
        return ".".join(segs[:-1]) if len(segs) > 1 else None


class TypeHierarchy:
    """Immutable view of the loaded label inventory.

    Safe to share across threads; every accessor returns copies or immutable
    values.
    """

    def __init__(self, labels: Iterable[TypeLabel]):
        ordered = list(labels)
        self._labels: tuple[TypeLabel, ...] = tuple(ordered)
        self._by_name: dict[str, TypeLabel] = {lab: lab for lab in ordered}
        self._roots: tuple[TypeLabel, ...] = tuple(l for l in ordered if l.depth == 1)
        self._children: dict[str, list[TypeLabel]] = {}
        for lab in ordered:
            parent = lab.parent
            if parent is not None:
                self._children.setdefault(parent, []).append(lab)

    @property
    def roots(self) -> tuple[TypeLabel, ...]:
        """Coarse labels in document order."""
        return self._roots

    @property
    def total_count(self) -> int:
        return len(self._labels)

    def labels(self) -> tuple[TypeLabel, ...]:
        """Every label (roots included) in document order."""
        return self._labels

    def __contains__(self, label: str) -> bool:
        return str(label) in self._by_name

    def __len__(self) -> int:
        return self.total_count

    def coarse_of(self, label: str) -> TypeLabel:
        """The unique root ancestor of ``label``; roots map to themselves."""
        lab = self._by_name.get(str(label))
        if lab is None:
            raise HierarchyError(f"unknown label: {label!r}")
        return self._by_name[lab.root]

    def subtypes_of(self, coarse: str) -> list[TypeLabel]:
        """Direct children of a root label, in document order."""
        lab = self._by_name.get(str(coarse))
        if lab is None or lab.depth != 1:
            raise HierarchyError(f"not a root label: {coarse!r}")
        return list(self._children.get(lab, []))


def parse_hierarchy(lines: Iterable[str]) -> TypeHierarchy:
    """Build a hierarchy from document lines.

    One label per line; ``#`` starts a comment; blank lines ignored. A fine
    label's parent path must be declared on an earlier line. Duplicate labels
    are rejected. Paths deeper than two levels are accepted for forward
    compatibility even though the shipped inventory is two-level.
    """
    seen: dict[str, int] = {}
    labels: list[TypeLabel] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            label = TypeLabel(text)
        except HierarchyError as exc:
            raise HierarchyError(f"line {lineno}: {exc}") from None
        if label in seen:
            raise HierarchyError(
                f"line {lineno}: duplicate label {label!r}"
                f" (first declared on line {seen[label]})"
            )
        parent = label.parent
        if parent is not None and parent not in seen:
            raise HierarchyError(
                f"line {lineno}: orphan label {label!r}: parent {parent!r} not declared"
            )
        seen[label] = lineno
        labels.append(label)
    return TypeHierarchy(labels)


def load_hierarchy(path: str | os.PathLike[str]) -> TypeHierarchy:
    with open_utf8(path, HierarchyError) as fh:
        return parse_hierarchy(fh)


def default_hierarchy_path() -> str:
    """Path of the packaged 112-label Wiki(gold)-style inventory."""
    return os.path.join(os.path.dirname(__file__), "data", "wikigold.types")
