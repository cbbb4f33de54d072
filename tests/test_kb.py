import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_DIR
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


def intersect_lookup_oracle(kb, surface, candidates, use_aliases=True):
    """Lookup restricted to a candidate id set by intersecting each stage's hits."""
    key = normalize_surface(surface, kb.case_sensitive)
    stages = [kb._label_index] + ([kb._alias_index] if use_aliases else [])
    for index in stages:
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
            for use_aliases in (True, False):
                assert (kb.lookup(surface, classes=classes, use_aliases=use_aliases)
                        == intersect_lookup_oracle(kb, surface, candidates, use_aliases)), \
                    (coarse, surface, use_aliases)


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


# --- cyclic GC paused during ingest and restored --------------------------------

@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("lines, error", [
    ([record_line("Q1", "a"), record_line("Q2", "b")], None),
    ([record_line("Q1", "a"), "{not json"], "line 2: invalid JSON"),
    ([record_line("Q1", "a"), record_line("Q1", "b")], "line 2: duplicate entity id Q1"),
], ids=["ok", "malformed", "duplicate"])
def test_ingest_restores_caller_gc_state(caller_gc, lines, error):
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
        assert seen == [False, False]
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("line, error", [
    ("{\n", "invalid JSON at column 2: Expecting property name enclosed in double quotes"),
    ("[1,\r\n", "invalid JSON at column 4: Expecting value"),
    ('{"qid": "Q2"} x\n', "invalid JSON at column 15: Extra data"),
    ('"abc\n', "invalid JSON at column 1: Unterminated string starting at"),
    ("[" * 100_000 + "\n", "invalid JSON: maximum recursion depth exceeded"),
], ids=["open-brace", "crlf", "extra-data", "unterminated", "deep"])
def test_invalid_json_cites_one_line_and_a_column_on_it(line, error):
    with pytest.raises(SnapshotError) as exc:
        ingest_snapshot([record_line("Q1", "a") + "\n", line])
    assert str(exc.value).startswith(f"line 2: {error}")
    assert "line 1" not in str(exc.value) and "char" not in str(exc.value)


# --- one-pass ingest against the record-by-record oracle ------------------------

def oracle_parse_record(line):
    """The snapshot line parser as it was before ingest became one pass."""
    try:
        obj = json.loads(line.rstrip("\r\n"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"invalid JSON at column {exc.pos + 1}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SnapshotError("record is not a JSON object")
    if "qid" not in obj:
        raise SnapshotError("record has no 'qid' field")
    entity_id = parse_qid(obj["qid"])
    label = "" if obj.get("label") is None else str(obj.get("label")).strip()
    if not label:
        raise SnapshotError(f"record {format_qid(entity_id)} has an empty label")
    raw_aliases = obj.get("aliases", [])
    if not isinstance(raw_aliases, list):
        raise SnapshotError("field 'aliases' must be an array")
    aliases = []
    for alias in raw_aliases:
        alias = "" if alias is None else str(alias).strip()
        if alias and alias != label and alias not in aliases:
            aliases.append(alias)

    def id_list(value, field):
        if value is None:
            return ()
        if not isinstance(value, list):
            raise SnapshotError(f"field {field!r} must be an array of Q-ids")
        return tuple(parse_qid(v) for v in value)

    return EntityRecord(
        id=entity_id, label=label, aliases=tuple(aliases),
        description=str(obj.get("description", "") or ""),
        instance_of=id_list(obj.get("instance_of"), "instance_of"),
        subclass_of=id_list(obj.get("subclass_of"), "subclass_of"),
        occupation=id_list(obj.get("occupation"), "occupation"),
    )


def oracle_ingest(lines, case_sensitive=False):
    """Parse every line into a record, then index the record list: the records
    by id and the label, alias and subclass-children indexes."""
    records, seen = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            rec = oracle_parse_record(raw)
        except SnapshotError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from None
        if rec.id in seen:
            raise SnapshotError(f"line {lineno}: duplicate entity id {rec.qid}"
                                f" (first seen on line {seen[rec.id]})")
        seen[rec.id] = lineno
        records[rec.id] = rec
    labels, aliases, children = {}, {}, {}
    for rec in records.values():
        labels.setdefault(normalize_surface(rec.label, case_sensitive), set()).add(rec.id)
        for alias in rec.aliases:
            aliases.setdefault(normalize_surface(alias, case_sensitive), set()).add(rec.id)
        for parent in rec.subclass_of:
            children.setdefault(parent, set()).add(rec.id)
    return records, labels, aliases, children


def outcome(ingest, lines, case_sensitive=False):
    """Everything an ingest yields, as comparable values: the error text, or the
    records in order and the three indexes."""
    try:
        result = ingest(lines, case_sensitive=case_sensitive)
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


@pytest.mark.parametrize("name", ["demo", "fixture", "random"])
def test_one_pass_ingest_matches_oracle(name):
    lines = {"demo": (DEMO_DIR / "snapshot.jsonl").read_text(encoding="utf-8").splitlines(True),
             "fixture": FIXTURE_LINES, "random": random_snapshot_lines(5)}[name]
    for case_sensitive in (False, True):
        expected = outcome(oracle_ingest, lines, case_sensitive)
        assert expected[0] == "ok"
        assert outcome(ingest_snapshot, lines, case_sensitive) == expected
    kb = ingest_snapshot(lines)
    for rec in kb.records.values():
        assert kb.lookup(rec.label) is kb.records[kb.lookup(rec.label).id]


@pytest.mark.parametrize("bad", MALFORMED_LINES)
def test_one_pass_ingest_error_text_matches_oracle(bad):
    lines = FIXTURE_LINES[:5] + [bad, FIXTURE_LINES[5]]
    assert outcome(ingest_snapshot, lines) == outcome(oracle_ingest, lines)


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


@pytest.mark.parametrize("line", MALFORMED_LINES + MIXED_LINK_LINES + ENTITY_QID_LINES
                         + [SPACED_LINK_LINE])
def test_ingest_error_text_after_cached_links_matches_oracle(line):
    # FIXTURE_LINES link to Q5, Q515 and Q2221906 first, so the ingest has
    # seen those link texts before it reaches the line under test.
    lines = FIXTURE_LINES + [line]
    for case_sensitive in (False, True):
        expected = outcome(oracle_ingest, lines, case_sensitive)
        assert outcome(ingest_snapshot, lines, case_sensitive) == expected
    if line is SPACED_LINK_LINE:
        assert expected[0] == "ok"
        assert expected[1][-1] == (1, EntityRecord(1, "x", instance_of=(5, 5), occupation=(5, 5)))
    elif line in MIXED_LINK_LINES:
        assert expected[0] == "error"


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
              st.sampled_from(["Q1", "Q2", "q3", " Q4 ", "Q0", "Q", "Q²", "Q1\n"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
record_objects = st.dictionaries(
    st.sampled_from(["qid", "label", "aliases", "description", "instance_of", "subclass_of",
                     "occupation"]),
    json_values,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", "\ufeff"]), record_objects,
              st.sampled_from(["", "\n", " \r\n", "\x0b", " x"]))
    .map(lambda t: t[0] + json.dumps(t[1]) + t[2]),
    st.text(max_size=12),
), max_size=6))
def test_one_pass_ingest_matches_oracle_on_generated_lines(lines):
    assert outcome(ingest_snapshot, lines) == outcome(oracle_ingest, lines)


# Every string in json_values' Q-id sample that parse_qid accepts, so that the
# generated lines meet link texts the ingest has already parsed.
WARM_UP_LINE = json.dumps({"qid": "Q9", "label": "warm-up",
                           **{field: ["Q1", "Q2", "q3", " Q4 ", "Q1\n"]
                              for field in ("instance_of", "subclass_of", "occupation")}})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", "\ufeff"]), record_objects,
              st.sampled_from(["", "\n", " \r\n", "\x0b", " x"]))
    .map(lambda t: t[0] + json.dumps(t[1]) + t[2]),
    st.text(max_size=12),
), max_size=6))
def test_one_pass_ingest_matches_oracle_on_generated_lines_after_cached_links(lines):
    lines = [WARM_UP_LINE, *lines]
    assert outcome(ingest_snapshot, lines) == outcome(oracle_ingest, lines)


# --- the compact KB: source lines, and int or tuple index values -------------------

def assert_matches_oracle(lines):
    for case_sensitive in (False, True):
        expected = outcome(oracle_ingest, lines, case_sensitive)
        assert expected[0] == "ok"
        assert outcome(ingest_snapshot, lines, case_sensitive) == expected


def test_one_entity_keeps_one_id_under_a_key_its_aliases_share():
    lines = [record_line("Q2", "y", aliases=["bar"]),
             record_line("Q3", "x", aliases=["Foo", "foo", "FOO "]),
             record_line("Q4", "z", aliases=["Bar", "BAR"]),
             record_line("Q5", "w", subclass_of=["Q1", "Q1"])]
    assert_matches_oracle(lines)
    kb = ingest_snapshot(lines)
    assert kb._alias_index == {"bar": (2, 4), "foo": 3}
    assert kb._subclass_children == {1: 5}
    strict = ingest_snapshot(lines, case_sensitive=True)
    assert strict._alias_index == {"bar": 2, "Foo": 3, "foo": 3, "FOO": 3, "Bar": 4, "BAR": 4}


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


LONG_QID = "Q" + "9" * 60
SOURCE_LINE_SHAPES = {
    "leading-whitespace": " \t" + record_line("Q11", "lead", aliases=["in front"]) + "\n",
    "bom-in-values": record_line("Q12", "\ufeffbom", aliases=["\ufeff", "b\ufeffom"],
                                 description="\ufeffa thing") + "\n",
    "bom-in-values-unescaped": json.dumps(
        {"qid": "Q13", "label": "\ufeffBOM", "aliases": ["x\ufeff"], "description": "\ufeff"},
        ensure_ascii=False) + "\n",
    "vertical-tab-in-values": record_line("Q14", "\x0bvt\x0b", aliases=["a\x0bb", "\x0b"],
                                          description="\x0b") + "\n",
    "crlf": record_line("Q15", "crlf", aliases=["CR LF"], instance_of=["Q5"]) + "\r\n",
    "space-crlf": record_line("Q16", "crlf", instance_of=["Q515"]) + " \r\n",
    "no-newline": record_line("Q17", "last", subclass_of=["Q5"]),
    "60-digit-qids": record_line(LONG_QID, "long", instance_of=[LONG_QID],
                                 subclass_of=["Q5", LONG_QID], occupation=[LONG_QID]) + "\n",
}


@pytest.mark.parametrize("line", SOURCE_LINE_SHAPES.values(), ids=SOURCE_LINE_SHAPES.keys())
def test_records_decode_each_kept_source_line_to_the_oracle_record(line):
    lines = [fixture + "\n" for fixture in FIXTURE_LINES] + [line]
    assert_matches_oracle(lines)
    expected = oracle_ingest(lines)[0]
    kb = ingest_snapshot(lines)
    entity_id = list(expected)[-1]
    assert kb._lines[entity_id] is line
    for entity_id, record in expected.items():
        assert kb.records[entity_id] == record


def scaled_snapshot_lines(records):
    """``records`` lines: a 40-class subclass tree, an alias on every fourth
    record, and 20 homonym label groups of three records whatever the size.
    Every key with several ids holds one tuple, which stays tracked until a
    collection first sees it, so the number of such keys does not grow."""
    rng = random.Random(records)
    lines = [record_line("Q1", "entity")]
    lines += [record_line(f"Q{c}", f"class {c}", subclass_of=[f"Q{rng.randrange(1, c)}"])
              for c in range(2, 42)]
    for i in range(records - len(lines)):
        label = f"homonym {i % 20}" if i < 60 else f"entity {i}"
        lines.append(record_line(f"Q{1000 + i}", label,
                                 aliases=[f"also {i}"] if i % 4 == 0 else [],
                                 description=f"thing number {i}",
                                 instance_of=[f"Q{rng.randrange(2, 42)}"]))
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
