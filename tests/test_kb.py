import gc
import importlib.util
import json
import random
import re
import sys
import tracemalloc
import unicodedata
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (DEMO_DIR, SNAPSHOT_FIELDS, json_values, numbers, oracle_ingest,
                      record_line)
from finetype import kb as kb_module
from finetype.cli import project_tags_to_coarse
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
from finetype.linker import Linker, LinkerConfig, link_mention
from finetype.tagger import extract_spans, read_conll

# Made when the module is collected, once --hypothesis-profile has taken
# effect, so that the profile sets the example count; settings made in
# conftest.py would keep the default one.
fuzz = settings(derandomize=True, deadline=None)


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
    assert normalize_surface("E\u0301TE\u0301  Stra\u00dfe") == "\u00e9t\u00e9 strasse"


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


def test_null_aliases_are_dropped():
    line = json.dumps({"qid": "Q1", "label": "x", "aliases": [None, "y", None]})
    kb = ingest_snapshot([line])
    assert kb.records[1].aliases == ("y",)
    assert kb.lookup("None") is None


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


def test_lookup_falls_back_to_aliases_when_classes_drop_every_label_hit():
    # the label stage hits only Q3, of the wrong class; the alias stage then finds Q8
    kb = ingest_snapshot([
        record_line("Q3", "Jordan", instance_of=["Q6256"]),
        record_line("Q8", "Michael Jordan", aliases=["Jordan"], instance_of=["Q5"]),
    ])
    assert kb.lookup("Jordan").id == 3
    assert kb.lookup("Jordan", classes={5}).id == 8
    assert kb.lookup("Jordan", classes={515}) is None


def test_lookup_case_insensitive_by_default(fixture_kb):
    assert fixture_kb.lookup("michael jordan").id == 41421


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


def id_set(hit):
    """One KB index value as the set of ids the oracle keeps, after checking
    its form: one id as an int, several as a tuple of distinct ids."""
    if type(hit) is int:
        return {hit}
    assert type(hit) is tuple and len(hit) > 1 and len(set(hit)) == len(hit), hit
    assert all(type(i) is int for i in hit), hit
    return set(hit)


def id_sets(index):
    """A KB index in the form the oracle builds: each key's ids as a set."""
    return {key: id_set(hit) for key, hit in index.items()}


def intersect_lookup_oracle(kb, surface, candidates):
    """Lookup restricted to a candidate id set by intersecting each stage's hits."""
    key = normalize_surface(surface)
    for index in (kb._label_index, kb._alias_index):
        ids = (id_set(index[key]) if key in index else set()) & candidates
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
            assert (kb.lookup(surface, classes=classes)
                    == intersect_lookup_oracle(kb, surface, candidates)), (coarse, surface)


def test_entity_record_defaults():
    rec = EntityRecord(id=3, label="thing")
    assert rec.qid == "Q3"
    assert rec.aliases == () and rec.occupation == ()


def test_linker_computes_each_closure_once(hierarchy, demo_kb, demo_table, monkeypatch):
    calls = []
    for name in ("narrow_candidates", "subclass_closure"):
        def counted(self, *args, _name=name, _fn=getattr(KnowledgeBase, name)):
            calls.append(_name)
            return _fn(self, *args)
        monkeypatch.setattr(KnowledgeBase, name, counted)
    linker = Linker(demo_kb, hierarchy, demo_table, LinkerConfig(class_roots=NARROWED_ROOTS))
    assert calls.count("narrow_candidates") == len(hierarchy.roots)
    assert calls.count("subclass_closure") == len(NARROWED_ROOTS)
    assert linker.classes["location"] == demo_kb.subclass_closure({2221906})
    assert isinstance(linker.classes["location"], frozenset)
    assert linker.classes["product"] is None
    calls.clear()
    mentions = [(ex, span) for ex in read_conll(DEMO_DIR / "corpus.conll")
                for span in extract_spans(project_tags_to_coarse(ex.gold_tags, hierarchy))]
    linked = [link_mention(linker, span, ex.tokens) for ex, span in mentions]
    assert len(linked) == 21 and sum(m.entity is not None for m in linked) == 19
    assert calls == []


# --- records built on first access ---------------------------------------------

def test_records_mapping_builds_each_record_once(fixture_kb):
    records = fixture_kb.records
    rec = records[41421]
    assert rec is records[41421] is records.get(41421) is fixture_kb.lookup("MJ")
    assert rec == EntityRecord(41421, "Michael Jordan", ("Michael Jeffrey Jordan", "MJ"),
                               "american basketball player", (5,), (), (3665646,))
    assert 41421 in records and 41422 not in records and "Q41421" not in records
    assert records.get(41422) is None
    with pytest.raises(KeyError):
        records[41422]
    assert len(records) == len(fixture_kb) == 10
    assert sorted(records) == sorted(rec.id for rec in records.values())
    assert any(r is rec for r in records.values())
    with pytest.raises(TypeError):
        records[1] = rec


def test_entity_record_has_slots():
    rec = EntityRecord(id=3, label="thing")
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.label = "other"


# --- ingest leaves the cyclic GC alone ----------------------------------------------

@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("lines, error", [
    ([record_line("Q1", "a"), record_line("Q2", "b")], None),
    ([record_line("Q1", "a"), "{not json"], "line 2: invalid JSON"),
    ([record_line("Q1", "a"), record_line("Q1", "b")], "line 2: duplicate entity id Q1"),
], ids=["ok", "malformed", "duplicate"])
def test_ingest_leaves_caller_gc_setting_untouched(caller_gc, lines, error):
    seen = []

    def observed():
        for line in lines:
            seen.append(gc.isenabled())
            yield line

    was = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        if error is None:
            assert len(ingest_snapshot(observed())) == 2
        else:
            with pytest.raises(SnapshotError, match=error):
                ingest_snapshot(observed())
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc, caller_gc]
    finally:
        (gc.enable if was else gc.disable)()


# --- ingest against the record-by-record oracle --------------------------------

def outcome(ingest, lines):
    """Everything an ingest yields, as comparable values: the error text, or the
    records in order and the three indexes."""
    try:
        result = ingest(lines)
    except SnapshotError as exc:
        return ("error", str(exc))
    if isinstance(result, KnowledgeBase):
        result = (dict(result.records), id_sets(result._label_index),
                  id_sets(result._alias_index), id_sets(result._subclass_children))
    records, *indexes = result
    return ("ok", list(records.items()), *indexes)


def random_snapshot_lines(seed):
    """Homonyms, null, blank, duplicate and label-equal aliases, whitespace and
    case variants, unknown fields, a 60-digit Q-id, blank lines and record
    lines padded with JSON whitespace."""
    rng = random.Random(seed)
    names = ["Ada", "ada", " Ada ", "Bob  Lee", "bob lee", "Core", "\u00c9t\u00e9", "E\u0301te\u0301"]
    ids = rng.sample(range(1, 10**6), 400)
    lines = []
    for i, qid in enumerate(ids):
        label = rng.choice(names)
        aliases = [rng.choice([*names, None, "", "  ", label]) for _ in range(rng.randrange(4))]
        obj = {"qid": f"Q{qid}", "label": label, "aliases": aliases,
               "description": rng.choice(["", None, "a thing", 0, 7.5]),
               "instance_of": [f"Q{rng.choice(ids)}" for _ in range(rng.randrange(3))],
               "subclass_of": rng.choice([[], None, [f"Q{rng.choice(ids[:20])}"]]),
               "occupation": rng.choice([[], None, ["Q82955", "Q82955"]]),
               "sitelinks": rng.choice([None, {"en": label}])}
        for key in rng.sample(sorted(obj), rng.randrange(3)):
            if key not in ("qid", "label"):
                del obj[key]
        line = json.dumps(obj, ensure_ascii=rng.random() < 0.5)
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["\n", " \r\n", ""]))
        if rng.random() < 0.05:
            lines.append(rng.choice(["\n", "   \n", ""]))
    long_id = "Q" + "9" * 60  # over-long for a real Q-id, but a valid one
    lines.append(json.dumps({"qid": long_id, "label": "Ada", "instance_of": [long_id]}))
    return lines


MALFORMED_LINES = [
    "{not json", "", "[1, 2]", "null", "1" * 5000, '"Q1"', '{"label": "x"}',
    json.dumps({"qid": "Q" + "1" * 5000, "label": "x"}),
    json.dumps({"qid": "Q1", "label": "x", "instance_of": ["Q" + "2" * 5000]}),
    '{"qid": "Q1", "label": "x", "description": %s}' % ("7" * 5000),
    "[" * 100000,
    json.dumps({"qid": "Q01", "label": "x"}), json.dumps({"qid": 7, "label": "x"}),
    json.dumps({"qid": "Q1", "label": " "}), json.dumps({"qid": "Q1", "label": None}),
    json.dumps({"qid": "Q1", "label": "x", "aliases": "y"}),
    json.dumps({"qid": "Q1", "label": "x", "aliases": None}),
    json.dumps({"qid": "Q1", "label": "x", "instance_of": "Q5"}),
    json.dumps({"qid": "Q1", "label": "x", "subclass_of": 0}),
    json.dumps({"qid": "Q1", "label": "x", "occupation": {}}),
    json.dumps({"qid": "Q1", "label": "x", "occupation": ["Q5", "5"]}),
    '{"qid": "Q1", "label": "x"} {"qid": "Q2", "label": "y"}',
    '{"qid": "Q1", "label": "x"} trailing',
    '{"qid": "Q1", "label": "x"}\x0b', '{"qid": "Q1", "label": "x"}\u00a0',
    '\ufeff{"qid": "Q1", "label": "x"}', '\x0b{"qid": "Q1", "label": "x"}',
    '{"qid": "Q1", "label": "x", "label": ""}',
    json.dumps({"qid": "Q41421", "label": "duplicate"}),
]


def assert_matches_oracle(lines):
    expected = outcome(oracle_ingest, lines)
    assert expected[0] == "ok"
    assert outcome(ingest_snapshot, lines) == expected


@pytest.mark.parametrize("name", ["demo", "fixture", "random"])
def test_one_pass_ingest_matches_oracle(name):
    lines = {"demo": (DEMO_DIR / "snapshot.jsonl").read_text(encoding="utf-8").splitlines(True),
             "fixture": FIXTURE_LINES, "random": random_snapshot_lines(5)}[name]
    assert_matches_oracle(lines)
    kb = ingest_snapshot(lines)
    for rec in kb.records.values():
        assert kb.lookup(rec.label) is kb.records[kb.lookup(rec.label).id]


MIXED_LINK_LINES = [
    json.dumps({"qid": "Q1", "label": "x", field: links})
    for field in ("instance_of", "subclass_of", "occupation")
    for links in (["Q5", 5], ["Q5", ["Q5"]], ["Q5", "Q05"], ["Q5", "Q\u00b2"], ["Q5", None])
]
SPACED_LINK_LINE = json.dumps({"qid": "Q1", "label": "x", "instance_of": ["Q5", " Q5 "],
                               "occupation": [" Q5 ", "Q5"]})
# Entity ids on either side of the plain "Q<digits>" form, and of its length limit.
ENTITY_QID_LINES = [json.dumps({"qid": qid, "label": "x"}) for qid in (
    " Q4 ", "Q1\n", "q3", "Q\u00b2", "Q\u0663", "Q1\u0663", "Q" + "9" * 18, "Q" + "9" * 19)]
# The text each of these lines' errors starts with, after its line number.
PINNED_ERRORS = {
    record_line("Q1", "  "): "record Q1 has an empty label",
    json.dumps({"qid": "Q1", "label": None}): "record Q1 has an empty label",
    json.dumps({"qid": "Q41421", "label": "duplicate"}):
        "duplicate entity id Q41421 (first seen on line 4)",
    "{\n": "invalid JSON at column 2: Expecting property name enclosed in double quotes",
    "[1,\r\n": "invalid JSON at column 4: Expecting value",
    '{"qid": "Q2"} x\n': "invalid JSON at column 15: Extra data",
    '"abc\n': "invalid JSON at column 1: Unterminated string starting at",
    "[" * 100_000 + "\n": "invalid JSON: maximum recursion depth exceeded",
}


@pytest.mark.parametrize("line", dict.fromkeys(
    [*MALFORMED_LINES, *MIXED_LINK_LINES, *ENTITY_QID_LINES, SPACED_LINK_LINE, *PINNED_ERRORS]))
@pytest.mark.parametrize("place", ["middle", "last"])
def test_ingest_error_text_matches_the_oracle(line, place):
    # In the middle the line under test is line 6, after records that link to
    # Q5 and Q2221906; last, it follows every fixture record and ends the snapshot.
    at = 5 if place == "middle" else len(FIXTURE_LINES)
    lines = FIXTURE_LINES[:at] + [line] + FIXTURE_LINES[at:]
    expected = outcome(oracle_ingest, lines)
    assert outcome(ingest_snapshot, lines) == expected
    if expected[0] == "error":
        # one line cited, and no position of the JSON decoder's own wording
        cite = f"line {at + 1}: "
        assert expected[1].startswith(cite + PINNED_ERRORS.get(line, ""))
        assert "line 1" not in expected[1][len(cite):] and "char" not in expected[1]
    if line is SPACED_LINK_LINE:
        assert expected[0] == "ok"
        assert (1, EntityRecord(1, "x", instance_of=(5, 5), occupation=(5, 5))) in expected[1]
    elif line in MIXED_LINK_LINES:
        assert expected[0] == "error"


Q1_LINE = record_line("Q1", "a")
COMPACT_Q1_LINE = json.dumps({"qid": "Q1", "label": "a"}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("lines, error", [
    # one str object twice: a duplicate told apart by identity would pass
    ([Q1_LINE, Q1_LINE], "line 2: duplicate entity id Q1 (first seen on line 1)"),
    (["\n", " \t\n", Q1_LINE, "\n", "   \n", record_line("Q2", "b"), "\r\n", "",
      record_line("Q1", "c")], "line 9: duplicate entity id Q1 (first seen on line 3)"),
    (["\n", record_line("Q1", "a"), "\n", record_line("Q2", "b"), "\n", record_line("Q3", "c"),
      "\n", record_line("Q2", "d")], "line 8: duplicate entity id Q2 (first seen on line 4)"),
    (["  \n", COMPACT_Q1_LINE, "\n", "\t\n", COMPACT_Q1_LINE],
     "line 5: duplicate entity id Q1 (first seen on line 2)"),
], ids=["same-str-object", "blank-lines-before-and-between", "blank-line-before-each-record",
        "general-parser-after-blank-lines"])
def test_duplicate_id_error_text_names_both_lines(lines, error):
    assert outcome(ingest_snapshot, lines) == outcome(oracle_ingest, lines) == ("error", error)


# --- generated snapshots against the oracle ------------------------------------------

LONG_QID = "Q" + "9" * 60
record_objects = st.dictionaries(st.sampled_from(SNAPSHOT_FIELDS), json_values)
# Arbitrary text, numbers, and records of any JSON values padded at either end.
generated_lines = st.lists(st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", "\ufeff"]), record_objects,
              st.sampled_from(["", "\n", " \r\n", "\x0b", " x"]))
    .map(lambda t: t[0] + json.dumps(t[1]) + t[2]),
    st.text(), numbers,
), max_size=8)

SNAPSHOT_NAMES = ["Ada", " Ada ", "ada", "Ada\t", "Bob  Lee", "\u00c9t\u00e9", "E\u0301te\u0301",
                  "\x0bAda", "", " "]
LINK_TEXTS = ["Q5", "Q515", "Q7", " Q5 ", "Q05", "q5", LONG_QID]
FIELD_VALUES = [None, 0, -1, 1.5, True, "", "Q5", "Q05", " Q5 ", "Ada", [], {}, {"Q5": 1},
                [None], [5], ["Q5", 5], ["Q5", ["Q5"]], ["Ada", None]]
LINE_ENDS = {"lf": "\n", "none": "", "crlf": "\r\n", "space": " \n", "vt": "\x0b",
             "trailing": " x\n", "second-record": ' {"qid": "Q8", "label": "x"}\n'}


# The strategies record_snapshots draws from that do not depend on a draw,
# built once: Hypothesis would otherwise set up each one again on every draw.
record_counts = st.integers(1, 5)
record_labels = st.one_of(st.sampled_from(SNAPSHOT_NAMES), st.text(max_size=4))
record_qids = st.sampled_from(["Q1", "Q2", "Q3", LONG_QID])
descriptions = st.sampled_from(["", "a thing"])
record_links = st.lists(st.sampled_from(LINK_TEXTS), max_size=2)
# an alias is a pool name, the label or the label padded, or other text
LABEL, PADDED_LABEL = object(), object()
record_aliases = st.lists(st.one_of(st.sampled_from([*SNAPSHOT_NAMES, LABEL, PADDED_LABEL]),
                                    st.text(max_size=3)), max_size=3)
record_perturbations = st.sampled_from(["none", "field", "drop", "start", "end"])
snapshot_fields = st.sampled_from(SNAPSHOT_FIELDS)
field_values = st.sampled_from(FIELD_VALUES)
line_starts = st.sampled_from(["\ufeff", " ", "\t", "\x0b"])
line_end_names = st.sampled_from(sorted(LINE_ENDS))
blank_lines = st.sampled_from(["\n", " \n", "\r\n", ""])


@st.composite
def record_snapshots(draw):
    """A few records of the seven documented fields, each with its Q-id,
    label, aliases and link texts drawn from small pools (so ids and link
    texts repeat), and at most one perturbation: a field set to a value of
    another type or dropped, or the line given a BOM, leading whitespace or
    another ending; blank lines fall between them."""
    lines = []
    for _ in range(draw(record_counts)):
        label = draw(record_labels)
        aliases = [label if name is LABEL else f" {label} " if name is PADDED_LABEL else name
                   for name in draw(record_aliases)]
        fields = {"qid": draw(record_qids), "label": label, "aliases": aliases,
                  "description": draw(descriptions),
                  **{field: draw(record_links) for field in SNAPSHOT_FIELDS[4:]}}
        keys, start, end = list(SNAPSHOT_FIELDS), "", "\n"
        kind = draw(record_perturbations)
        if kind == "field":
            fields[draw(snapshot_fields)] = draw(field_values)
        elif kind == "drop":
            keys.remove(draw(snapshot_fields))
        elif kind == "start":
            start = draw(line_starts)
        elif kind == "end":
            end = LINE_ENDS[draw(line_end_names)]
        lines.append(record_line(**fields, start=start, end=end, ensure_ascii=draw(st.booleans()),
                                 keys=keys))
        if draw(st.booleans()):
            lines.append(draw(blank_lines))
    return lines


# Lines in the documented layout (json.dumps's default for the seven fields, in
# order), each given at most one text-level perturbation: the lines ingest reads
# from its pattern, and the lines just outside that layout.
EDGE_SPACES = ["\xa0", "\u2003", "\x85", "\u3000"]
LAYOUT_NAMES = ["Ada", "Bob  Lee", "x/y", "\u00c9t\u00e9"]
LAYOUT_QIDS = ["q5", "Q05", "Q0", "Q" + "1" * 18, "Q" + "1" * 19, LONG_QID, "Q" + "1" * 5000]
ESCAPES = ["\\u00e9", '\\"', "\\\\", "\\/"]
CONTROLS = ["\x00", "\t", "\n", "\r", "\x1f"]
SEPARATORS = {", ": [",", ",  ", " , ", ",\t"], ": ": [":", ":  ", " : "]}
MARK = "\ue000"  # a character no drawn value holds, put where the text is edited


def with_text(line, text):
    """``line`` with the marked place in one of its strings replaced by ``text``."""
    return line.replace(MARK, text).replace(json.dumps(MARK)[1:-1], text)


# The strategies documented_layout_snapshots draws from that do not depend on
# a draw, built once.
layout_counts = st.integers(1, 4)
layout_names = st.sampled_from(LAYOUT_NAMES)
layout_record_qids = st.sampled_from([f"Q{i}" for i in range(1, 10)] + ["Q" + "1" * 18])
layout_aliases = st.lists(layout_names, max_size=2)
layout_links = st.lists(st.sampled_from(["Q5", "Q515", "Q7"]), max_size=2)
layout_perturbations = st.sampled_from(["none", "separator", "swap", "escape", "control", "edge",
                                        "qid", "alias", "end"])
edge_spaces = st.sampled_from(EDGE_SPACES)
qid_fields = st.sampled_from(["qid", *SNAPSHOT_FIELDS[4:]])
layout_qids = st.sampled_from(LAYOUT_QIDS)
text_fields = st.sampled_from(["label", "aliases", "description"])
escapes, controls = st.sampled_from(ESCAPES), st.sampled_from(CONTROLS)
swapped_keys = st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True)
layout_ends = st.sampled_from([" x\n", "\r\n", "", " \n"])
layout_blank_lines = st.sampled_from(["\n", " \n", ""])
spaced_separators = {separator: st.sampled_from(others) for separator, others in SEPARATORS.items()}


@st.composite
def documented_layout_snapshots(draw):
    """A few documented-layout records, with Q-ids, names and link texts drawn
    from small pools, each given one perturbation or none: a separator spaced
    or compacted, two keys swapped, an escape or a raw control character in a
    string, a space at a label's edge or a blank label, a Q-id off the plain
    form, an alias that is blank or the label, or another line end."""
    lines = []
    for _ in range(draw(layout_counts)):
        label = draw(layout_names)
        fields = {"qid": draw(layout_record_qids), "label": label,
                  "aliases": draw(layout_aliases), "description": draw(descriptions),
                  **{field: draw(layout_links) for field in SNAPSHOT_FIELDS[4:]}}
        kind = draw(layout_perturbations)
        if kind == "edge":
            space = draw(edge_spaces)
            fields["label"] = draw(st.sampled_from([space + label, label + space, space]))
        elif kind == "qid":
            field = draw(qid_fields)
            qid = draw(layout_qids)
            fields[field] = qid if field == "qid" else [*fields[field], qid]
        elif kind == "alias":
            fields["aliases"].append(draw(st.sampled_from(["", " ", label, f" {label}"])))
        elif kind in ("escape", "control"):
            field = draw(text_fields)
            value = fields["description"] if field == "description" else label
            at = draw(st.integers(0, len(value)))
            marked = value[:at] + MARK + value[at:]
            if field == "aliases":
                fields["aliases"].append(marked)
            else:
                fields[field] = marked
        keys = list(SNAPSHOT_FIELDS)
        if kind == "swap":
            i, j = draw(swapped_keys)
            keys[i], keys[j] = keys[j], keys[i]
        end = draw(layout_ends) if kind == "end" else "\n"
        line = record_line(**fields, end=end, ensure_ascii=draw(st.booleans()), keys=keys)
        if kind in ("escape", "control"):
            line = with_text(line, draw(escapes if kind == "escape" else controls))
        elif kind == "separator":
            places = [(m.start(), m.group()) for m in re.finditer(", |: ", line)]
            at, separator = draw(st.sampled_from(places))
            line = (line[:at] + draw(spaced_separators[separator])
                    + line[at + len(separator):])
        lines.append(line)
        if draw(st.booleans()):
            lines.append(draw(layout_blank_lines))
    return lines


# Every string in json_values' Q-id sample that parse_qid accepts; drawn as a
# first line, it puts link texts that generated lines repeat before them.
WARM_UP_LINE = json.dumps({"qid": "Q9", "label": "warm-up",
                           **{field: ["Q1", "Q2", "q3", " Q4 ", "Q1\n"]
                              for field in ("instance_of", "subclass_of", "occupation")}})


def with_warm_up(snapshots):
    """``snapshots``, each drawn with or without WARM_UP_LINE first."""
    return st.tuples(st.sampled_from([[], [WARM_UP_LINE]]), snapshots).map(lambda t: t[0] + t[1])


def assert_ingest_matches_the_oracle(lines):
    assert outcome(ingest_snapshot, lines) == outcome(oracle_ingest, lines)


# One property per generator, so each draws the full example count.
@fuzz
@given(with_warm_up(record_snapshots()))
def test_snapshot_ingest_of_perturbed_records_matches_the_oracle(lines):
    assert_ingest_matches_the_oracle(lines)


@fuzz
@given(with_warm_up(documented_layout_snapshots()))
def test_snapshot_ingest_of_perturbed_layout_lines_matches_the_oracle(lines):
    assert_ingest_matches_the_oracle(lines)


@fuzz
@given(with_warm_up(generated_lines))
@example(["\u00b2"])
@example(['{"qid": "Q1", "label": null, "aliases": [null]}'])
# a field of another type, null included
@example([record_line(qid=5), record_line(qid=None)])
@example([record_line(label=None), record_line(label=5)])
@example([record_line(label=["Ada"])])
@example([record_line(aliases=None), record_line(aliases=[None, "x"])])
@example([record_line(aliases=[5]), record_line(aliases="Ada")])
@example([record_line(aliases=[["Ada"]])])
@example([record_line(description=None), record_line(description=[5])])
@example([record_line(instance_of=None), record_line(subclass_of="Q5")])
@example([record_line(occupation={"Q5": 1}), record_line(occupation=[None])])
@example([record_line(instance_of=["Q5"]), record_line("Q2", occupation=["Q5", 5])])
@example([record_line(subclass_of=["Q5"]), record_line("Q2", subclass_of=[["Q5"]])])
@example([record_line(keys=("qid", "label"))])
# labels and aliases padded, duplicated or equal to the label once stripped
@example([record_line(label=" Ada\t", aliases=["Ada", " Ada ", "x", "x ", "x"])])
@example([record_line(label="\x0b\u00c9t\u00e9", aliases=["E\u0301te\u0301", " "])])
@example([record_line(label=" "), record_line("Q2", label="")])
# link texts met twice, spaced, zero-padded and 60 digits long
@example([record_line(instance_of=["Q5"]),
          record_line("Q2", instance_of=["Q5", " Q5 "], occupation=["q5"])])
@example([record_line(instance_of=["Q5"]), record_line("Q2", subclass_of=["Q05"])])
@example([record_line(LONG_QID, subclass_of=[LONG_QID]),
          record_line("Q2", occupation=[LONG_QID, "Q5"], subclass_of=[LONG_QID])])
# line ends and starts: CRLF, a BOM, a vertical tab, trailing text, blank lines
@example([record_line(instance_of=["Q5"], end="\r\n"), record_line("Q2", instance_of=["Q5"])])
@example([record_line(start="\ufeff")])
@example([record_line(end="\x0b")])
@example([record_line(end="\x0b\n"), record_line(start="\x0b")])
@example([record_line(end=" x\n")])
@example([record_line(end=LINE_ENDS["second-record"])])
@example(["\n", record_line(), " \n", "", record_line("Q2", end="")])
# duplicate ids, on either path
@example([record_line(), record_line(label="Bob")])
@example([record_line(end="\r\n"), record_line()])
# a separator spaced or compacted, and every separator compacted
@example([record_line(aliases=["x", "y"]).replace('"x", "y"', '"x","y"')])
@example([record_line().replace('"label": ', '"label":  ')])
@example([record_line(instance_of=["Q5"]), record_line("Q2", subclass_of=["Q5", "Q7"])
          .replace('"Q5", "Q7"', '"Q5" , "Q7"')])
@example([json.dumps(json.loads(record_line(subclass_of=["Q5"])), separators=(",", ":"))])
# two keys swapped
@example([record_line(keys=["label", "qid", *SNAPSHOT_FIELDS[2:]])])
@example([record_line(subclass_of=["Q5"], keys=[*SNAPSHOT_FIELDS[:4], "subclass_of",
                                                 "instance_of", "occupation"])])
# escapes in the label, an alias and the description
@example([record_line(label="Ad\u00e9"), record_line("Q2", label='A"da')])
@example([record_line(aliases=["a\\b", "\u00e9"])])
@example([with_text(record_line(description=f"x{MARK}y"), "\\/")])
@example([with_text(record_line(label=f"A{MARK}da"), "\\/")])
# raw control characters
@example([with_text(record_line(label=f"A{MARK}da"), "\x00")])
@example([with_text(record_line(aliases=[MARK]), "\t")])
@example([with_text(record_line(description=MARK), "\x1f")])
# spaces at a label's edge, and labels blank once stripped
@example([record_line(label="\xa0Ada", ensure_ascii=False),
          record_line("Q2", label="Ada\u2003", ensure_ascii=False)])
@example([record_line(label="\x85Ada\u3000", ensure_ascii=False)])
@example([record_line(label="\u3000", ensure_ascii=False)])
@example([record_line(label=" ")])
@example([record_line(label="")])
# Q-ids off the plain form, and of 18, 19, 60 and 5,000 digits
@example([record_line("q5"), record_line("Q05"), record_line("Q0")])
@example([record_line("Q" + "1" * 18), record_line("Q" + "1" * 19), record_line(LONG_QID)])
@example([record_line("Q" + "1" * 5000)])
@example([record_line(instance_of=["q5"]), record_line("Q2", subclass_of=["Q05"]),
          record_line("Q3", occupation=["Q0"])])
@example([record_line(subclass_of=["Q" + "1" * 18, "Q" + "1" * 19, LONG_QID])])
@example([record_line(instance_of=["Q" + "1" * 5000])])
@example([record_line(subclass_of=["Q" + "1" * 5000])])
# aliases blank, or the label itself
@example([record_line(aliases=["", " ", "Ada", " Ada", "x", "x "])])
# CRLF before a second record, and no line end at all
@example([record_line(end="\r\n"), record_line("Q2")])
@example([record_line("Q1", end=""), "\n", record_line("Q2", end="")])
# texts the ASCII key shortcut refuses (a double space, non-ASCII spaces and
# letters) and one it takes (mixed case), and subclass_of links met new and again
@example([record_line(label="Acme  Corp"), record_line("Q2", label="acme corp")])
@example([record_line(aliases=["Acme  Corp", " x  y "]), record_line("Q2", aliases=["acme corp"])])
@example([record_line(label="AcMe CoRP", aliases=["ACME corp", "Stra\xdfe"], ensure_ascii=False),
          record_line("Q2", label="acme corp", aliases=["STRASSE"])])
@example([record_line(label="Acme\u3000Corp", ensure_ascii=False),
          record_line("Q2", label="Acme\xa0Corp", aliases=["x\xa0 y"], ensure_ascii=False),
          record_line("Q3", label="acme corp", aliases=["X Y"])])
@example([record_line(subclass_of=["Q5", "Q7"]), record_line("Q2", subclass_of=["Q5", "Q7"]),
          record_line("Q3", subclass_of=["Q5"])])
def test_snapshot_ingest_matches_the_oracle(lines):
    assert_ingest_matches_the_oracle(lines)


# --- the compact KB: source lines, and int or tuple index values -------------------

def test_one_entity_keeps_one_id_under_a_key_its_aliases_share():
    lines = [record_line("Q2", "y", aliases=["bar"]),
             record_line("Q3", "x", aliases=["Foo", "foo", "FOO "]),
             record_line("Q4", "z", aliases=["Bar", "BAR"]),
             record_line("Q5", "w", subclass_of=["Q1", "Q1"])]
    assert_matches_oracle(lines)
    kb = ingest_snapshot(lines)
    assert kb._alias_index == {"bar": (2, 4), "foo": 3}
    assert kb._subclass_children == {1: 5}


def test_homonym_whose_lowest_id_lies_outside_the_closure():
    lines = [record_line("Q5", "human"), record_line("Q8", "foreign"),
             record_line("Q6", "person", subclass_of=["Q5"]),
             record_line("Q7", "acme", instance_of=["Q8"]),
             record_line("Q300", "acme", aliases=["ACME corp"], instance_of=["Q6"]),
             record_line("Q42", "ACME", instance_of=["Q5", "Q8"]),
             record_line("Q9", "other", aliases=["acme corp"], instance_of=["Q8"])]
    assert_matches_oracle(lines)
    kb = ingest_snapshot(lines)
    assert kb._label_index["acme"] == (7, 300, 42)
    people = kb.narrow_candidates("person", {"person": {5}})
    assert people == {5, 6}
    assert kb.lookup("Acme").id == 7
    assert kb.lookup("Acme", classes=people).id == 42
    assert kb.lookup("acme corp").id == 9
    assert kb.lookup("acme corp", classes=people).id == 300
    assert kb.lookup("acme", classes={8}).id == 7
    assert kb.lookup("acme", classes={99}) is None
    for surface in ("acme", "acme corp"):
        for classes in (None, people, {8}, {99}):
            candidates = set(kb.records) if classes is None else {
                rec.id for rec in kb.records.values() if classes.intersection(rec.instance_of)}
            assert kb.lookup(surface, classes=classes) == intersect_lookup_oracle(
                kb, surface, candidates)


def test_class_with_more_than_two_subclass_children():
    lines = [record_line("Q1", "root"),
             *(record_line(f"Q{c}", f"class {c}", subclass_of=["Q1"]) for c in (9, 3, 12, 4)),
             record_line("Q20", "leaf", subclass_of=["Q3", "Q12"]),
             record_line("Q21", "twig", subclass_of=["Q3"])]
    assert_matches_oracle(lines)
    kb = ingest_snapshot(lines)
    assert kb._subclass_children == {1: (9, 3, 12, 4), 3: (20, 21), 12: 20}
    assert kb.subclass_closure({1}) == {1, 3, 4, 9, 12, 20, 21}
    assert kb.subclass_closure({12, 4}) == {4, 12, 20}


SOURCE_LINE_SHAPES = {
    "leading-whitespace": record_line("Q11", "lead", aliases=["in front"], start=" \t"),
    "bom-in-values": record_line("Q12", "\ufeffbom", aliases=["\ufeff", "b\ufeffom"],
                                 description="\ufeffa thing"),
    "bom-in-values-unescaped": json.dumps(
        {"qid": "Q13", "label": "\ufeffBOM", "aliases": ["x\ufeff"], "description": "\ufeff"},
        ensure_ascii=False) + "\n",
    "vertical-tab-in-values": record_line("Q14", "\x0bvt\x0b", aliases=["a\x0bb", "\x0b"],
                                          description="\x0b"),
    "crlf": record_line("Q15", "crlf", aliases=["CR LF"], instance_of=["Q5"], end="\r\n"),
    "space-crlf": record_line("Q16", "crlf", instance_of=["Q515"], end=" \r\n"),
    "no-newline": record_line("Q17", "last", subclass_of=["Q5"], end=""),
    "60-digit-qids": record_line(LONG_QID, "long", instance_of=[LONG_QID],
                                 subclass_of=["Q5", LONG_QID], occupation=[LONG_QID]),
}


@pytest.mark.parametrize("line", SOURCE_LINE_SHAPES.values(), ids=SOURCE_LINE_SHAPES.keys())
def test_records_decode_each_kept_source_line_to_the_oracle_record(line):
    lines = FIXTURE_LINES + [line]
    assert_matches_oracle(lines)
    expected = oracle_ingest(lines)[0]
    kb = ingest_snapshot(lines)
    entity_id = list(expected)[-1]
    assert kb._lines[entity_id] is line
    for entity_id, record in expected.items():
        assert kb.records[entity_id] == record


# --- the lines ingest reads without _parse ----------------------------------------

# Lines outside the documented layout, each in its own way.
OFF_LAYOUT_LINES = [
    record_line("Q1", "crlf", instance_of=["Q5"], end="\r\n"),
    record_line("Q2", "leading space", start=" "),
    record_line("Q3", "trailing space", end=" \n"),
    json.dumps({"qid": "Q4", "label": "no lists"}) + "\n",
    json.dumps({"qid": "Q6", "label": "null alias", "aliases": [None, "x"], "instance_of": [],
                "subclass_of": [], "occupation": []}) + "\n",
    json.dumps({"qid": "Q7", "label": 7, "aliases": [], "instance_of": ["Q5"],
                "subclass_of": None, "occupation": []}) + "\n",
    record_line("q8", "lower-case qid"),
    record_line(LONG_QID, "long qid", subclass_of=[LONG_QID]),
    "\n",
    " \n",
]


def seeded_snapshot_lines(seed):
    """2,000 documented-layout records linking to 30 classes, with every line
    of OFF_LAYOUT_LINES put in at a random place."""
    rng = random.Random(seed)
    classes = [f"Q{c}" for c in rng.sample(range(10, 10**6), 30)]
    lines = [record_line(f"Q{10**7 + i}", f"entity {rng.randrange(500)}",
                         aliases=rng.sample(["x", " y ", "Z", "entity"], rng.randrange(3)),
                         instance_of=rng.sample(classes, rng.randrange(3)),
                         subclass_of=rng.sample(classes, rng.randrange(2)),
                         occupation=rng.sample(classes, rng.randrange(2)))
             for i in range(2_000)]
    for line in OFF_LAYOUT_LINES:
        lines.insert(rng.randrange(len(lines) + 1), line)
    return lines


GENERATE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"


def in_documented_layout(line):
    """Whether ``line`` is a record as json.dumps writes the documented fields
    by default, in their order, with or without ``ensure_ascii``, followed by
    at most one newline, with no escape, a plain Q-id in every place that
    holds one, and a label that is not blank."""
    body = line[:-1] if line.endswith("\n") else line
    try:
        obj = json.loads(body)
    except ValueError:
        return False
    if not (isinstance(obj, dict) and tuple(obj) == SNAPSHOT_FIELDS and "\\" not in body
            and body in (json.dumps(obj), json.dumps(obj, ensure_ascii=False))):
        return False
    qids = [obj["qid"], *(qid for field in SNAPSHOT_FIELDS[4:] for qid in obj[field])]
    return (all(isinstance(qid, str) and re.fullmatch(r"Q[1-9][0-9]{0,17}", qid)
                for qid in qids)
            and isinstance(obj["label"], str) and obj["label"].strip() != ""
            and isinstance(obj["description"], str)
            and all(isinstance(alias, str) for alias in obj["aliases"]))


def benchmark_kb_lines(tmp_path, monkeypatch):
    """The KB lines perfbench/generate.py writes for its smallest workload."""
    spec = importlib.util.spec_from_file_location("perfbench_generate", GENERATE_PATH)
    generate = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, generate)  # its dataclasses look it up
    spec.loader.exec_module(generate)
    generate.generate(generate.WORKLOADS["train-tag"], 1, tmp_path)
    return (tmp_path / "kb.jsonl").read_text(encoding="utf-8").splitlines(True)


# The same records with raw and with escaped non-ASCII text: only the first
# is in the layout the pattern takes.
NON_ASCII_LINES = [record_line(qid, "Zoë Ørsted", ["東京", " Zoë "], "née", ["Q5"],
                               ensure_ascii=ensure_ascii)
                   for qid, ensure_ascii in (("Q91", False), ("Q92", True))]


@pytest.mark.parametrize("name", ["demo", "seeded", "benchmark"])
def test_documented_layout_lines_are_not_parsed(name, monkeypatch, tmp_path):
    lines = {"demo": lambda: (DEMO_DIR / "snapshot.jsonl").read_text(encoding="utf-8")
             .splitlines(True),
             "seeded": lambda: seeded_snapshot_lines(3) + NON_ASCII_LINES,
             "benchmark": lambda: benchmark_kb_lines(tmp_path, monkeypatch)}[name]()
    parsed = []
    parse = kb_module._parse

    def counting_parse(line):
        parsed.append(line)
        return parse(line)

    monkeypatch.setattr(kb_module, "_parse", counting_parse)
    kb = ingest_snapshot(lines)
    assert len(kb) == sum(1 for line in lines if line.strip())
    assert any(in_documented_layout(line) for line in lines)
    assert [line for line in lines if not in_documented_layout(line)] == parsed
    if name == "seeded":
        assert [in_documented_layout(line) for line in NON_ASCII_LINES] == [True, False]
        assert all(line in parsed for line in OFF_LAYOUT_LINES)
        assert len(parsed) < len(lines) / 20


def test_only_non_ascii_keys_are_nfc_normalized(monkeypatch, tmp_path):
    # Every label and alias of the benchmark KB is ASCII without a double
    # space, so each key takes the one-casefold shortcut; a non-ASCII key is
    # NFC-normalized whether its line is read from the pattern or by _parse.
    lines = benchmark_kb_lines(tmp_path, monkeypatch)
    nfc = mock.Mock(wraps=unicodedata.normalize)
    monkeypatch.setattr(unicodedata, "normalize", nfc)
    surface = mock.Mock(wraps=normalize_surface)
    monkeypatch.setattr(kb_module, "normalize_surface", surface)
    assert len(ingest_snapshot(lines)) == len(lines)
    assert nfc.call_count == surface.call_count == 0
    for line in NON_ASCII_LINES:
        ingest_snapshot([line])
        assert nfc.call_count > 0
        nfc.reset_mock()


# Label and alias text: spaces, cases and characters whose keys differ from
# their plain casefold, characters the layout holds only escaped, and any other.
KEY_TEXT = st.text(st.one_of(
    st.sampled_from([" ", "\t", "\xa0", "\u3000", "\x85", "\x1c", "\x1d", "\x1e", "\x1f",
                     "a", "B", "E", "e", "t", "\xc9", "\xe9", "\u0301", "\u0308", "\xdf",
                     "\u212a", "\u212b", "\u0130", "\ufb01", '"', "\\"]),
    st.characters()), max_size=8)


@fuzz
@given(st.lists(st.tuples(KEY_TEXT.filter(str.strip), st.lists(KEY_TEXT, max_size=3)),
                min_size=1, max_size=4))
@example([("\u00c9t\u00e9", []), ("\x00", ["\u00c9t\u00e9"])])
@example([("E\u0301te\u0301", []), ("\x00", ["E\u0301te\u0301"])])
@example([("A\x1cB\x1f\xa0c", []), ("\x00", ["A\x1cB\x1f\xa0c"])])
@example([("\x00", ["\x00"])])
@example([("Acme  Corp", ["Acme  Corp ", "AcMe"]), ("\xc9t\xe9", ["E\u0301te\u0301"])])
def test_snapshot_keys_follow_normalize_surface(records):
    # Each record is written raw and escaped. A raw line with no '"', backslash
    # or control character is read from the layout pattern, with its ASCII key
    # shortcut; every other line goes to _parse. Either way each label and
    # alias key must be normalize_surface's key of the stripped text.
    lines, labels, aliases = [], {}, {}
    for i, (label, names) in enumerate(records):
        raw = record_line(f"Q{2 * i + 1}", label, names, ensure_ascii=False)
        lines += [raw, record_line(f"Q{2 * i + 2}", label, names)]
        if all(" " <= c and c not in '"\\' for text in (label, *names) for c in text):
            assert kb_module._documented_layout(raw)
        ids = {2 * i + 1, 2 * i + 2}
        labels.setdefault(normalize_surface(label), set()).update(ids)
        for alias in names:
            if alias.strip() not in ("", label.strip()):
                aliases.setdefault(normalize_surface(alias), set()).update(ids)
        for text in (label, *names):
            assert normalize_surface(text) == " ".join(
                unicodedata.normalize("NFC", text).split()).casefold()
    with mock.patch.object(kb_module, "_parse", wraps=kb_module._parse) as parse:
        kb = ingest_snapshot(lines)
    assert [call.args[0] for call in parse.call_args_list] == [
        line for line in lines if not in_documented_layout(line)]
    assert id_sets(kb._label_index) == labels
    assert id_sets(kb._alias_index) == aliases


def scaled_snapshot_lines(records):
    """``records`` lines: a 40-class subclass tree, an alias on every fourth
    record, and 20 homonym label groups of three records whatever the size.
    Every key with several ids holds one tuple, which stays tracked until a
    collection first sees it, so the number of such keys does not grow."""
    rng = random.Random(records)
    lines = [record_line("Q1", "entity", end="")]
    lines += [record_line(f"Q{c}", f"class {c}", subclass_of=[f"Q{rng.randrange(1, c)}"], end="")
              for c in range(2, 42)]
    for i in range(records - len(lines)):
        label = f"homonym {i % 20}" if i < 60 else f"entity {i}"
        lines.append(record_line(f"Q{1000 + i}", label,
                                 aliases=[f"also {i}"] if i % 4 == 0 else [],
                                 description=f"thing number {i}",
                                 instance_of=[f"Q{rng.randrange(2, 42)}"], end=""))
    return lines


def test_ingest_leaves_the_collector_nothing_that_grows_with_the_kb():
    small, large = scaled_snapshot_lines(2_000), scaled_snapshot_lines(20_000)
    growth = []
    was = gc.isenabled()
    gc.disable()
    try:
        for lines in (small, large):
            before = len(gc.get_objects())
            kb = ingest_snapshot(lines)
            growth.append(len(gc.get_objects()) - before)
            assert len(kb) == len(lines)
            del kb
    finally:
        (gc.enable if was else gc.disable)()
    assert abs(growth[1] - growth[0]) < 100, growth


def test_ingest_with_the_collector_on_runs_no_full_collection():
    lines = scaled_snapshot_lines(20_000)
    full = []

    def on_collection(phase, info):
        if phase == "start" and info["generation"] == 2:
            full.append(info)

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        kb = ingest_snapshot(lines)
    finally:
        gc.callbacks.remove(on_collection)
        (gc.enable if was else gc.disable)()
    assert len(kb) == len(lines)
    assert full == []


def retained_bytes(build):
    """Bytes that ``build()``'s result holds, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return size


def test_compact_kb_retains_at_most_six_tenths_of_the_oracle_records():
    # Measured on CPython 3.11: 1.80 MB against the oracle's 3.57 MB (0.51);
    # a KB of field tuples and id sets held 3.61 MB (1.01).
    compact = retained_bytes(lambda: ingest_snapshot(scaled_snapshot_lines(5_000)))
    oracle = retained_bytes(lambda: oracle_ingest(scaled_snapshot_lines(5_000)))
    assert compact <= 0.6 * oracle, (compact, oracle)
