"""Two-level entity type hierarchy: loading, validation, and coarse/fine navigation.

The hierarchy is data, not code: it ships as a plain-text document (one label
per line, fine labels written as ``coarse.fine``) so it can be swapped for any
domain-specific inventory without touching the library. Labels are plain
strings, a root such as ``person`` or a subtype such as ``person.artist``;
this module is the only one that splits a label at its dot.
"""

from __future__ import annotations

import os
from typing import Iterable

from .textfile import open_utf8


class HierarchyError(ValueError):
    """Malformed hierarchy document, or navigation over an unknown label."""


class TypeHierarchy:
    """Immutable view of the loaded label inventory, built by
    ``parse_hierarchy`` from the labels it accepted.

    Safe to share across threads; every accessor returns copies or immutable
    values.
    """

    def __init__(self, labels: Iterable[str]):
        self._labels = tuple(labels)
        self._coarse: dict[str, str] = {}
        self._subtypes: dict[str, dict[str, str]] = {}  # root -> {subtype: its leaf}
        for label in self._labels:
            root, dot, leaf = label.partition(".")
            self._coarse[label] = root
            if dot:
                self._subtypes[root][label] = leaf
            else:
                self._subtypes[label] = {}

    @property
    def roots(self) -> tuple[str, ...]:
        """Coarse labels in document order."""
        return tuple(self._subtypes)

    def labels(self) -> tuple[str, ...]:
        """Every label (roots included) in document order."""
        return self._labels

    def __contains__(self, label: str) -> bool:
        return label in self._coarse

    def __len__(self) -> int:
        return len(self._labels)

    def coarse_of(self, label: str) -> str:
        """The root of ``label``: the text before its dot; a root maps to itself."""
        root = self._coarse.get(label)
        if root is None:
            raise HierarchyError(f"unknown label: {label!r}")
        return root

    def subtypes_of(self, coarse: str) -> dict[str, str]:
        """Direct children of a root label in document order, each mapped to
        its leaf name, the text after its dot."""
        subtypes = self._subtypes.get(coarse)
        if subtypes is None:
            raise HierarchyError(f"not a root label: {coarse!r}")
        return dict(subtypes)


def parse_hierarchy(lines: Iterable[str]) -> TypeHierarchy:
    """Build a hierarchy from document lines.

    One label per line, ``root`` or ``root.leaf``; ``#`` starts a comment;
    blank lines ignored. A label is lowercased with each whitespace run
    collapsed to one space. A label with an empty segment, a label deeper
    than ``root.leaf``, a duplicate, or a subtype whose root is not declared
    on an earlier line is rejected, naming its line.
    """
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        label = " ".join(text.split()).lower()
        segments = label.split(".")
        if any(not seg.strip() for seg in segments):
            raise HierarchyError(f"line {lineno}: label has an empty path segment: {text!r}")
        if len(segments) > 2:
            raise HierarchyError(f"line {lineno}: label {label!r} is deeper than root.leaf")
        if label in seen:
            raise HierarchyError(
                f"line {lineno}: duplicate label {label!r}"
                f" (first declared on line {seen[label]})"
            )
        if len(segments) == 2 and segments[0] not in seen:
            raise HierarchyError(f"line {lineno}: orphan label {label!r}:"
                                 f" parent {segments[0]!r} not declared")
        seen[label] = lineno
    return TypeHierarchy(seen)


def load_hierarchy(path: str | os.PathLike[str]) -> TypeHierarchy:
    with open_utf8(path, HierarchyError) as fh:
        return parse_hierarchy(fh)


def default_hierarchy_path() -> str:
    """Path of the packaged 112-label Wiki(gold)-style inventory."""
    return os.path.join(os.path.dirname(__file__), "data", "wikigold.types")
