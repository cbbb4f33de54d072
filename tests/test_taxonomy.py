import pytest

from finetype.taxonomy import (
    HierarchyError,
    TypeLabel,
    load_hierarchy,
    parse_hierarchy,
)
from finetype import default_hierarchy_path


def test_shipped_document_has_112_labels(hierarchy):
    assert hierarchy.total_count == 112


def test_shipped_roots_are_the_seven_mapped_categories_plus_miscellaneous(hierarchy):
    assert [str(r) for r in hierarchy.roots] == [
        "person", "location", "organization", "event",
        "product", "building", "art", "miscellaneous",
    ]


def test_minimal_document_single_root():
    h = parse_hierarchy(["widget"])
    assert h.total_count == 1
    assert h.subtypes_of("widget") == []


@pytest.mark.parametrize("lines, message", [
    (["person", "person.artist", "person.artist"], "duplicate.*person.artist"),
    (["location", "person.artist"], "orphan"),
    (["person", "# comment", "person..artist"], "line 3"),
])
def test_parse_hierarchy_error_text(lines, message):
    with pytest.raises(HierarchyError, match=message):
        parse_hierarchy(lines)


def test_comments_and_blank_lines_ignored():
    h = parse_hierarchy(["# header", "", "person  # trailing", "person.artist"])
    assert h.total_count == 2


def test_labels_are_lowercased():
    h = parse_hierarchy(["Person", "Person.Artist"])
    assert "person.artist" in h


def test_deeper_paths_accepted_for_forward_compatibility():
    h = parse_hierarchy(["a", "a.b", "a.b.c"])
    assert h.total_count == 3
    assert h.coarse_of("a.b.c") == "a"


def test_coarse_of_fine_label(hierarchy):
    assert hierarchy.coarse_of("person.artist") == "person"
    assert hierarchy.coarse_of("product.computer") == "product"


def test_coarse_of_root_is_fixed_point(hierarchy):
    assert hierarchy.coarse_of("location") == "location"


def test_coarse_of_unknown_label(hierarchy):
    with pytest.raises(HierarchyError, match="unknown"):
        hierarchy.coarse_of("person.wizard")


def test_product_subtypes_match_document_order(hierarchy):
    leaves = [s.leaf for s in hierarchy.subtypes_of("product")]
    assert leaves == [
        "engine", "airplane", "car", "ship", "spacecraft", "train", "camera",
        "mobile phone", "computer", "software", "game", "instrument", "weapon",
    ]


def test_subtypes_of_rejects_fine_label(hierarchy):
    with pytest.raises(HierarchyError, match="not a root"):
        hierarchy.subtypes_of("person.artist")


def test_partition_property(hierarchy):
    # roots plus every root's children exactly tile the label set
    collected = list(hierarchy.roots)
    for root in hierarchy.roots:
        collected.extend(hierarchy.subtypes_of(root))
    assert len(collected) == hierarchy.total_count
    assert set(collected) == set(hierarchy.labels())


def test_round_trip_every_fine_label(hierarchy):
    for label in hierarchy.labels():
        if label.depth == 2:
            assert label in hierarchy.subtypes_of(hierarchy.coarse_of(label))


def test_load_is_deterministic():
    a = load_hierarchy(default_hierarchy_path())
    b = load_hierarchy(default_hierarchy_path())
    assert a.labels() == b.labels()
    assert a.roots == b.roots
    assert all(a.subtypes_of(r) == b.subtypes_of(r) for r in a.roots)


def test_type_label_accessors():
    label = TypeLabel("Product.Mobile  Phone")
    assert label == "product.mobile phone"
    assert label.depth == 2
    assert label.root == "product"
    assert label.leaf == "mobile phone"
    assert TypeLabel("product").parent is None
    assert label.parent == "product"


def test_empty_label_rejected():
    with pytest.raises(HierarchyError):
        TypeLabel("   ")
