import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetype.kb import (
    EntityRecord,
    KnowledgeBase,
    MissingClassRootsError,
    SnapshotError,
    format_qid,
    ingest_snapshot,
    normalize_surface,
    parse_qid,
)


def record_line(qid, label, aliases=(), description="", instance_of=(), subclass_of=(), occupation=()):
    return json.dumps({
        "qid": qid, "label": label, "aliases": list(aliases),
        "description": description, "instance_of": list(instance_of),
        "subclass_of": list(subclass_of), "occupation": list(occupation),
    })


FIXTURE_LINES = [
    record_line("Q5", "human"),
    record_line("Q515", "city", subclass_of=["Q2221906"]),
    record_line("Q2221906", "geographic location"),
    record_line("Q41421", "Michael Jordan", aliases=["Michael Jeffrey Jordan", "MJ"],
                description="american basketball player", instance_of=["Q5"],
                occupation=["Q3665646"]),
    record_line("Q27069141", "Michael Jordan", aliases=["Michael Jeffrey Jordan"],
                description="american football cornerback", instance_of=["Q5"]),
    record_line("Q2796", "iPad", description="line of tablet computers"),
    record_line("Q19837146", "iPad", description="tablet computer model"),
    record_line("Q90", "Paris", description="capital of france", instance_of=["Q515"]),
    record_line("Q312", "Apple Inc.", aliases=["Apple"], instance_of=["Q4830453"]),
    record_line("Q3665646", "basketball player"),
]


@pytest.fixture()
def fixture_kb():
    return ingest_snapshot(FIXTURE_LINES)


# --- qids and normalization -------------------------------------------------

def test_parse_qid():
    assert parse_qid("Q41421") == 41421
    assert format_qid(41421) == "Q41421"


@pytest.mark.parametrize("bad", ["41421", "Q0", "Q-3", "Q1.5", "", "Q01"])
def test_parse_qid_rejects(bad):
    with pytest.raises(SnapshotError):
        parse_qid(bad)


def test_normalize_surface_collapses_case_and_whitespace():
    assert normalize_surface("  Michael\t Jordan ") == "michael jordan"
    assert normalize_surface("Michael Jordan", case_sensitive=True) == "Michael Jordan"


# --- ingestion ---------------------------------------------------------------

def test_ingest_counts_and_indices(fixture_kb):
    assert len(fixture_kb) == 10
    # indices are complete: every label and alias resolves to its record
    for rec in fixture_kb.records.values():
        assert fixture_kb.lookup(rec.label) is not None
        for alias in rec.aliases:
            assert fixture_kb.lookup(alias) is not None


def test_ingest_empty_stream():
    kb = ingest_snapshot([])
    assert len(kb) == 0
    assert kb.lookup("anything") is None


def test_duplicate_id_rejected():
    lines = [record_line("Q41421", "A"), record_line("Q41421", "B")]
    with pytest.raises(SnapshotError, match="line 2.*duplicate.*Q41421"):
        ingest_snapshot(lines)


def test_malformed_line_cites_line_number():
    lines = [record_line("Q1", "A"), "{not json"]
    with pytest.raises(SnapshotError, match="line 2"):
        ingest_snapshot(lines)


def test_empty_label_rejected():
    with pytest.raises(SnapshotError, match="empty label"):
        ingest_snapshot([record_line("Q1", "  ")])


def test_null_label_is_empty():
    line = json.dumps({"qid": "Q1", "label": None})
    with pytest.raises(SnapshotError, match="line 1: record Q1 has an empty label"):
        ingest_snapshot([line])


def test_null_aliases_are_dropped():
    line = json.dumps({"qid": "Q1", "label": "x", "aliases": [None, "y", None]})
    kb = ingest_snapshot([line])
    assert kb.records[1].aliases == ("y",)
    assert kb.lookup("None") is None


@pytest.mark.parametrize("bad", [
    "1" * 5000,
    '{"qid": "Q1", "label": "x", "description": %s}' % ("7" * 5000),
    json.dumps({"qid": "Q" + "1" * 5000, "label": "x"}),
    json.dumps({"qid": "Q1", "label": "x", "instance_of": ["Q" + "2" * 5000]}),
    "[" * 100000,
], ids=["bare-number", "number-field", "qid", "qid-link", "deep-nesting"])
def test_oversized_values_cite_line(bad):
    with pytest.raises(SnapshotError, match="line 2: "):
        ingest_snapshot([record_line("Q9", "ok"), bad])


def test_alias_equal_to_label_is_dropped():
    kb = ingest_snapshot([record_line("Q7", "Foo", aliases=["Foo", "Bar", "Bar"])])
    assert kb.records[7].aliases == ("Bar",)


def test_unknown_fields_ignored():
    line = json.dumps({"qid": "Q9", "label": "thing", "sitelinks": {"en": "x"}})
    kb = ingest_snapshot([line])
    assert kb.records[9].label == "thing"


# --- lookup ------------------------------------------------------------------

def test_lookup_label_exact_match(fixture_kb):
    assert fixture_kb.lookup("Paris").id == 90


def test_lookup_alias_redirection(fixture_kb):
    # label lookup fails for the full name; the also-known-as list redirects
    assert fixture_kb.lookup("Michael Jeffrey Jordan").id == 41421


def test_lookup_homonym_returns_lowest_qid(fixture_kb):
    assert fixture_kb.lookup("iPad").id == 2796
    assert fixture_kb.lookup("Michael Jordan").id == 41421


def test_lookup_no_match(fixture_kb):
    assert fixture_kb.lookup("zzz-unseen-entity") is None


def test_lookup_empty_surface_rejected(fixture_kb):
    with pytest.raises(ValueError):
        fixture_kb.lookup("   ")


def test_lookup_stage_precedence_label_beats_alias():
    # Q2 has the surface as an alias with a lower id; Q10's exact label must win.
    kb = ingest_snapshot([
        record_line("Q2", "other", aliases=["target"]),
        record_line("Q10", "target"),
    ])
    assert kb.lookup("target").id == 10


def test_lookup_candidate_restriction(fixture_kb):
    # two "Michael Jordan" labels: Q41421 an instance of Q5, Q27069141 of Q515
    kb = ingest_snapshot(FIXTURE_LINES[:4] + [
        record_line("Q27069141", "Michael Jordan", instance_of=["Q515"]),
    ])
    assert kb.lookup("Michael Jordan", classes={515}).id == 27069141
    assert kb.lookup("Michael Jordan", classes={5}).id == 41421
    assert fixture_kb.lookup("Michael Jordan", classes=set()) is None
    # alias hits are filtered the same way
    assert fixture_kb.lookup("Michael Jeffrey Jordan", classes={515}) is None


def test_lookup_alias_stage_can_be_disabled(fixture_kb):
    assert fixture_kb.lookup("MJ", use_aliases=False) is None
    assert fixture_kb.lookup("MJ").id == 41421


def test_lookup_case_insensitive_by_default(fixture_kb):
    assert fixture_kb.lookup("michael jordan").id == 41421


def test_lookup_strict_case_mode():
    kb = ingest_snapshot([record_line("Q4", "Paris")], case_sensitive=True)
    assert kb.lookup("paris") is None
    assert kb.lookup("Paris").id == 4


def test_lookup_independent_of_insertion_order():
    lines = [
        record_line("Q300", "acme"),
        record_line("Q7", "acme"),
        record_line("Q42", "acme"),
    ]
    results = set()
    rng = random.Random(1)
    for _ in range(20):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        results.add(ingest_snapshot(shuffled).lookup("acme").id)
    assert results == {7}


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["ada", "bob", "core", "dot"]), min_size=1, max_size=6),
    extra_aliases=st.lists(st.sampled_from(["ada", "bob", "core", "dot", "eve"]), max_size=4),
    probe=st.sampled_from(["ada", "bob", "core", "dot", "eve"]),
)
def test_alias_monotonicity(labels, extra_aliases, probe):
    # adding aliases never removes a resolvable surface
    base = [record_line(f"Q{i+1}", lab) for i, lab in enumerate(labels)]
    kb_before = ingest_snapshot(base)
    enriched = base[:-1] + [record_line(f"Q{len(labels)}", labels[-1], aliases=extra_aliases)]
    kb_after = ingest_snapshot(enriched)
    if kb_before.lookup(probe) is not None:
        assert kb_after.lookup(probe) is not None


# --- subclass closure and narrowing -------------------------------------------

def test_closure_single_node_no_subclasses():
    kb = ingest_snapshot([record_line("Q1", "root")])
    assert kb.subclass_closure({1}) == {1}


def test_closure_chain():
    # Z subclass_of Y subclass_of X: closure({X}) found by reverse reachability
    kb = ingest_snapshot([
        record_line("Q1", "X"),
        record_line("Q2", "Y", subclass_of=["Q1"]),
        record_line("Q3", "Z", subclass_of=["Q2"]),
    ])
    assert kb.subclass_closure({1}) == {1, 2, 3}
    assert kb.subclass_closure({2}) == {2, 3}


def test_closure_terminates_on_cycle():
    kb = ingest_snapshot([
        record_line("Q1", "A", subclass_of=["Q2"]),
        record_line("Q2", "B", subclass_of=["Q1"]),
    ])
    assert kb.subclass_closure({1}) == {1, 2}


def test_closure_is_a_fixed_point(fixture_kb):
    first = fixture_kb.subclass_closure({2221906})
    assert fixture_kb.subclass_closure(first) == first


def test_narrow_person_filters_by_instance_of(fixture_kb):
    classes = fixture_kb.narrow_candidates("person", {"person": {5}})
    assert classes == {5}
    assert fixture_kb.lookup("Michael Jordan", classes=classes).id == 41421
    # Paris is no instance of human, and iPad has no instance-of links at all
    assert fixture_kb.lookup("Paris", classes=classes) is None
    assert fixture_kb.lookup("iPad", classes=classes) is None


def test_narrow_product_returns_all_ids(fixture_kb):
    # not narrowed: every entity stays searchable, with or without instance-of links
    assert fixture_kb.narrow_candidates("product", {}) is None
    for rec in fixture_kb.records.values():
        assert fixture_kb.lookup(rec.label, classes=None) is not None


def test_narrow_person_on_empty_kb():
    kb = ingest_snapshot([])
    classes = kb.narrow_candidates("person", {"person": {5}})
    assert classes == {5}  # absent roots are kept
    assert kb.lookup("Michael Jordan", classes=classes) is None


def test_narrow_missing_class_roots():
    kb = ingest_snapshot([record_line("Q1", "x")])
    with pytest.raises(MissingClassRootsError, match="person"):
        kb.narrow_candidates("person", {})


def test_narrow_location_uses_closure(fixture_kb):
    classes = fixture_kb.narrow_candidates("location", {"location": {2221906}})
    assert classes == {2221906, 515}
    # Paris: instance of city, city subclass of the root
    assert fixture_kb.lookup("Paris", classes=classes).id == 90
    assert fixture_kb.lookup("Michael Jordan", classes=classes) is None


# --- narrowed lookup against the scan-then-intersect oracle -------------------

NARROWED_ROOTS = {"person": {5}, "location": {2221906}, "organization": {43229}}


def scan_narrow_oracle(kb, coarse, class_roots):
    """Narrowing by scanning the whole KB: the ids whose instance-of links
    meet the class-root closure, or every id for a category not narrowed."""
    if coarse not in NARROWED_ROOTS:
        return set(kb.records)
    allowed = kb.subclass_closure(class_roots[coarse])
    return {rec.id for rec in kb.records.values() if allowed.intersection(rec.instance_of)}


def intersect_lookup_oracle(kb, surface, candidates, use_aliases=True):
    """Lookup restricted to a candidate id set by intersecting each stage's hits."""
    key = normalize_surface(surface, kb.case_sensitive)
    stages = [kb._label_index] + ([kb._alias_index] if use_aliases else [])
    for index in stages:
        ids = index.get(key, set()) & candidates
        if ids:
            return kb.records[min(ids)]
    return None


def random_class_kb(seed):
    """Homonyms and shared aliases over a random subclass tree under the
    three narrowed roots plus foreign classes."""
    rng = random.Random(seed)
    classes = [5, 2221906, 43229, 4830453, 7, 8]
    lines = [record_line("Q5", "human"), record_line("Q2221906", "geographic location"),
             record_line("Q43229", "organization"), record_line("Q7", "foreign"),
             record_line("Q4830453", "business", subclass_of=["Q43229"]),
             record_line("Q8", "other", subclass_of=["Q7"])]
    for qid in range(100, 130):
        parent = rng.choice(classes)
        lines.append(record_line(f"Q{qid}", f"class {qid}", subclass_of=[f"Q{parent}"]))
        classes.append(qid)
    for qid in range(1000, 1300):
        lines.append(record_line(
            f"Q{qid}", f"name {rng.randrange(40)}",
            aliases=[f"name {rng.randrange(40)}" for _ in range(rng.randrange(3))],
            instance_of=[f"Q{c}" for c in rng.sample(classes, rng.randrange(3))],
        ))
    return ingest_snapshot(lines)


@pytest.mark.parametrize("kb_name", ["demo", "fixture", "random"])
def test_narrowed_lookup_matches_scan_oracle(kb_name, demo_kb, fixture_kb):
    kb = {"demo": demo_kb, "fixture": fixture_kb, "random": random_class_kb(3)}[kb_name]
    surfaces = {s for rec in kb.records.values() for s in (rec.label, *rec.aliases)}
    for coarse in [*NARROWED_ROOTS, "product"]:
        classes = kb.narrow_candidates(coarse, NARROWED_ROOTS)
        candidates = scan_narrow_oracle(kb, coarse, NARROWED_ROOTS)
        for surface in sorted(surfaces):
            for use_aliases in (True, False):
                assert (kb.lookup(surface, classes=classes, use_aliases=use_aliases)
                        == intersect_lookup_oracle(kb, surface, candidates, use_aliases)), \
                    (coarse, surface, use_aliases)


def test_entity_record_defaults():
    rec = EntityRecord(id=3, label="thing")
    assert rec.qid == "Q3"
    assert rec.aliases == () and rec.occupation == ()


def test_knowledge_base_rejects_duplicate_records_directly():
    rec = EntityRecord(id=1, label="x")
    with pytest.raises(SnapshotError):
        KnowledgeBase([rec, rec])
