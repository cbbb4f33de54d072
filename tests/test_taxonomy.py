from typing import NamedTuple

import pytest

from finetype.taxonomy import (
    HierarchyError,
    load_hierarchy,
    parse_hierarchy,
)
from finetype import default_hierarchy_path

from conftest import assert_two_level


class Document(NamedTuple):
    """A hierarchy document's lines (None for the shipped one), and what
    loading it must give twice over: ``count`` labels, of at most two levels,
    which the roots and their subtypes tile (``assert_two_level``); and as
    pinned the ``roots``, each root's subtype leaves in document order and
    each label's coarse root."""
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
    "inner-whitespace-collapsed": Document(["Product", "Product.Mobile  Phone"], 2,
                                           subtypes={"product": ["mobile phone"]},
                                           coarse={"product.mobile phone": "product"}),
}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_hierarchy_document_loads(case):
    row = DOCUMENTS[case]
    load = ((lambda: load_hierarchy(default_hierarchy_path())) if row.lines is None
            else (lambda: parse_hierarchy(row.lines)))
    h, again = load(), load()
    assert len(h) == row.count and again.labels() == h.labels()
    assert_two_level(h)
    assert_two_level(again)
    if row.roots is not None:
        assert list(h.roots) == row.roots
    for root, leaves in row.subtypes.items():
        assert list(h.subtypes_of(root).values()) == leaves
    for label, root in row.coarse.items():
        assert label in h and h.coarse_of(label) == root


def loaded(lines):
    """A call writing ``lines`` to ``{tmp}/types`` and loading it."""
    def call(h, tmp):
        (tmp / "types").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load_hierarchy(tmp / "types")
    return call


# Named cases: a call given the shipped hierarchy and a directory, and the
# whole text of the HierarchyError it must raise, ``{tmp}`` the directory.
HIERARCHY_ERRORS = {
    "duplicate": (lambda h, tmp: parse_hierarchy(["person", "person.artist", "person.artist"]),
                  "line 3: duplicate label 'person.artist' (first declared on line 2)"),
    "orphan": (lambda h, tmp: parse_hierarchy(["location", "person.artist"]),
               "line 2: orphan label 'person.artist': parent 'person' not declared"),
    # the label is cited as written, before it is lowercased and its spaces collapsed
    "line-3": (loaded(["Person", "# comment", "Person. .Artist"]),
               "{tmp}/types: line 3: label has an empty path segment: 'Person. .Artist'"),
    "deeper-path-refused": (lambda h, tmp: parse_hierarchy(["a", "a.b", "A.b.C"]),
                            "line 3: label 'a.b.c' is deeper than root.leaf"),
    "coarse-of-unknown-label": (lambda h, tmp: h.coarse_of("person.wizard"),
                                "unknown label: 'person.wizard'"),
    "subtypes-of-rejects-fine-label": (lambda h, tmp: h.subtypes_of("person.artist"),
                                       "not a root label: 'person.artist'"),
}


@pytest.mark.parametrize("case", HIERARCHY_ERRORS)
def test_hierarchy_error_text(hierarchy, tmp_path, case):
    call, message = HIERARCHY_ERRORS[case]
    with pytest.raises(HierarchyError) as raised:
        call(hierarchy, tmp_path)
    assert str(raised.value) == message.format(tmp=tmp_path)
