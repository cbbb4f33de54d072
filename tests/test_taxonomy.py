from typing import NamedTuple

import pytest

from finetype.taxonomy import (
    HierarchyError,
    TypeLabel,
    load_hierarchy,
    parse_hierarchy,
)
from finetype import default_hierarchy_path


class Document(NamedTuple):
    """A hierarchy document's lines (None for the shipped one), and what
    loading it must give twice over: ``count`` labels, of which the roots and
    their subtypes tile those of depth 1 and 2, each label with the accessors
    its text implies; and as pinned the ``roots``, each root's subtype leaves
    in document order and each label's coarse root."""
    lines: list | None
    count: int
    roots: list | None = None
    subtypes: dict = {}
    coarse: dict = {}


DOCUMENTS = {
    "shipped-document-has-112-labels": Document(None, 112),
    "shipped-roots-are-the-seven-mapped-categories-plus-miscellaneous": Document(None, 112, [
        "person", "location", "organization", "event",
        "product", "building", "art", "miscellaneous",
    ]),
    "minimal-document-single-root": Document(["widget"], 1, subtypes={"widget": []}),
    "comments-and-blank-lines-ignored": Document(
        ["# header", "", "person  # trailing", "person.artist"], 2),
    "labels-are-lowercased": Document(["Person", "Person.Artist"], 2,
                                      coarse={"person.artist": "person"}),
    "deeper-paths-accepted-for-forward-compatibility": Document(["a", "a.b", "a.b.c"], 3,
                                                                coarse={"a.b.c": "a"}),
    "coarse-of-fine-label": Document(None, 112, coarse={"person.artist": "person",
                                                        "product.computer": "product"}),
    "coarse-of-root-is-fixed-point": Document(None, 112, coarse={"location": "location"}),
    "product-subtypes-match-document-order": Document(None, 112, subtypes={"product": [
        "engine", "airplane", "car", "ship", "spacecraft", "train", "camera",
        "mobile phone", "computer", "software", "game", "instrument", "weapon",
    ]}),
    # roots plus every root's children exactly tile the label set
    "partition-property": Document(None, 112),
    "round-trip-every-fine-label": Document(None, 112),
    "load-is-deterministic": Document(None, 112),
    "type-label-accessors": Document(["Product", "Product.Mobile  Phone"], 2,
                                     subtypes={"product": ["mobile phone"]},
                                     coarse={"product.mobile phone": "product"}),
}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_hierarchy_document_loads(case):
    row = DOCUMENTS[case]
    load = ((lambda: load_hierarchy(default_hierarchy_path())) if row.lines is None
            else (lambda: parse_hierarchy(row.lines)))
    h, again = load(), load()
    assert h.total_count == row.count
    assert again.labels() == h.labels() and again.roots == h.roots
    assert all(again.subtypes_of(r) == h.subtypes_of(r) for r in h.roots)
    collected = list(h.roots)
    for root in h.roots:
        collected.extend(h.subtypes_of(root))
    two_level = [label for label in h.labels() if label.depth <= 2]
    assert len(collected) == len(two_level) and set(collected) == set(two_level)
    for label in h.labels():
        path = str(label).split(".")
        assert label == TypeLabel(str(label).upper())
        assert (label.depth, label.root, label.leaf) == (len(path), path[0], path[-1])
        assert label.parent == (None if len(path) == 1 else ".".join(path[:-1]))
        if label.depth == 2:
            assert label in h.subtypes_of(h.coarse_of(label))
    if row.roots is not None:
        assert [str(r) for r in h.roots] == row.roots
    for root, leaves in row.subtypes.items():
        assert [s.leaf for s in h.subtypes_of(root)] == leaves
    for label, root in row.coarse.items():
        assert label in h and h.coarse_of(label) == root


# Named cases: a call given the shipped hierarchy, and the error text it must
# raise HierarchyError with.
HIERARCHY_ERRORS = {
    "duplicate": (lambda h: parse_hierarchy(["person", "person.artist", "person.artist"]),
                  "duplicate.*person.artist"),
    "orphan": (lambda h: parse_hierarchy(["location", "person.artist"]), "orphan"),
    "line-3": (lambda h: parse_hierarchy(["person", "# comment", "person..artist"]), "line 3"),
    "coarse-of-unknown-label": (lambda h: h.coarse_of("person.wizard"), "unknown"),
    "subtypes-of-rejects-fine-label": (lambda h: h.subtypes_of("person.artist"), "not a root"),
    "empty-label-rejected": (lambda h: TypeLabel("   "), "empty type label"),
}


@pytest.mark.parametrize("case", HIERARCHY_ERRORS)
def test_hierarchy_error_text(hierarchy, case):
    call, message = HIERARCHY_ERRORS[case]
    with pytest.raises(HierarchyError, match=message):
        call(hierarchy)
