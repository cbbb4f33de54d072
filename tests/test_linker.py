import json

import numpy as np
import pytest

from finetype.embeddings import EmbeddingTable, phrase_similarity, tokenize
from finetype.kb import EntityRecord, MissingClassRootsError, ingest_snapshot
from finetype.linker import (
    FineTypedMention,
    Linker,
    LinkerConfig,
    candidate_fields,
    cluster_to_subtype,
    link_mention,
)
from finetype.tagger import MentionSpan
from finetype.taxonomy import parse_hierarchy

from conftest import pairwise_mean_cosine

DEMO_CLASS_ROOTS = {
    "person": {5},
    "location": {2221906},
    "organization": {43229},
}


# a KB with no entity: lookups miss and no candidate-field label stands in
# for an empty description
EMPTY_KB = ingest_snapshot([])


def demo_cfg(**kwargs):
    kwargs.setdefault("class_roots", DEMO_CLASS_ROOTS)
    return LinkerConfig(**kwargs)


def demo_linker(hierarchy, table, kb=EMPTY_KB, **kwargs):
    return Linker(kb, hierarchy, table, demo_cfg(**kwargs))


# --- config -----------------------------------------------------------------

def test_default_threshold_is_point_one():
    assert LinkerConfig().threshold == 0.1


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_threshold_range_validated(bad):
    with pytest.raises(ValueError):
        LinkerConfig(threshold=bad)


def test_linker_names_every_missing_class_root(hierarchy, demo_table):
    cfg = LinkerConfig(class_roots={"location": {2221906}})
    with pytest.raises(MissingClassRootsError,
                       match="set class_roots.person, class_roots.organization$"):
        Linker(EMPTY_KB, hierarchy, demo_table, cfg)
    # a hierarchy without narrowable roots needs none
    Linker(EMPTY_KB, parse_hierarchy(["product", "product.computer"]), demo_table, LinkerConfig())


# --- candidate fields ---------------------------------------------------------

# Named cases of the typing evidence: a record's fields, the coarse tag and the
# ids ``candidate_fields`` reads.
CANDIDATE_FIELD_CASES = {
    "person-uses-occupation": (dict(occupation=(82955,), instance_of=(515,)), "person", [82955]),
    "location-uses-instance-of": (dict(occupation=(82955,), instance_of=(515,)), "location",
                                  [515]),
    "organization-uses-instance-of": (dict(occupation=(82955,), instance_of=(515,)),
                                      "organization", [515]),
    "empty-fields": ({}, "person", []),
}


@pytest.mark.parametrize("case", CANDIDATE_FIELD_CASES)
def test_candidate_fields_are_occupation_for_person_and_instance_of_otherwise(case):
    fields, coarse, want = CANDIDATE_FIELD_CASES[case]
    assert candidate_fields(EntityRecord(id=1, label="x", **fields), coarse) == want


# --- clustering -----------------------------------------------------------------

def evidence_tokens(entity, coarse, kb=None):
    """The entity's description tokens, or without any, the labels of its
    candidate-field entities in ``kb``."""
    evidence = tokenize(entity.description)
    if not evidence and kb is not None:
        for linked_id in candidate_fields(entity, coarse):
            linked = kb.records.get(linked_id)
            if linked is not None:
                evidence.extend(tokenize(linked.label))
    return evidence


def per_subtype_oracle(entity, coarse, hierarchy, table, cfg, kb=None):
    """The loop ``cluster_to_subtype`` replaced: one ``phrase_similarity`` call,
    reducing the evidence again, per subtype."""
    subtypes = hierarchy.subtypes_of(coarse) if coarse in map(str, hierarchy.roots) else []
    evidence = evidence_tokens(entity, coarse, kb)
    if not subtypes or not evidence:
        return None
    best = None
    for subtype in subtypes:
        leaf = tokenize(subtype.leaf)
        if not leaf:  # the loop raised here; a leaf with no word token is now skipped
            continue
        score = phrase_similarity(evidence, leaf, table)
        if score is None or score <= cfg.threshold:
            continue
        if best is None or score > best[1]:
            best = (subtype, score)
    return best


def assert_same_clustering(got, want, context):
    if want is None:
        assert got is None, context
    else:
        assert got is not None, context
        assert (str(got[0]), got[1]) == (str(want[0]), want[1]), context


def assert_winner_scores_the_50_digit_cosine(got, evidence, table, memo, context):
    """A winning subtype's score is the 50-digit pairwise-mean cosine of the
    evidence and its leaf, clipped to [-1, 1], at 1e-12; ``memo`` keeps each
    (evidence, leaf) value computed for one table."""
    if got is None:
        return
    key = (tuple(evidence), got[0].leaf)
    if key not in memo:
        memo[key] = min(max(pairwise_mean_cosine(evidence, tokenize(got[0].leaf), table), -1.0),
                        1.0)
    assert abs(got[1] - memo[key]) <= 1e-12, context


TABLET = EntityRecord(id=1, label="x", description="line of tablet computers")
NAMELESS = EntityRecord(id=999, label="Nameless", description="", occupation=(82955,))
# the only defined similarity of "a" and "b" is the default threshold, 0.1
AT_THRESHOLD = EmbeddingTable(2, {"a": np.array([1.0, 0.0]),
                                  "b": np.array([0.1, np.sqrt(1 - 0.01)])})
PARALLEL = EmbeddingTable(2, {t: np.array([1.0, 0.0]) for t in "xyz"})


def case(name, coarse, want, entity=None, lines=None, table=None, uses_demo_kb=False,
         threshold=0.1):
    """A named clustering case: ``entity`` (default: the demo's iPad, Q2796)
    typed under ``coarse`` with the hierarchy of ``lines`` (default: the
    packaged one), ``table`` (default: the demo's), the demo KB or an empty
    one, and ``threshold``. ``want`` is the winning subtype or None, or that
    subtype with its pinned score."""
    return pytest.param(coarse, want, entity, lines, table, uses_demo_kb, threshold, id=name)


CLUSTER_CASES = [
    case("ipad-clusters-to-computer", "product", "product.computer"),
    # the argmax does not depend on the threshold, which only suppresses it
    case("ipad-at-threshold-0", "product", "product.computer", uses_demo_kb=True, threshold=0.0),
    case("ipad-at-threshold-0.5", "product", "product.computer", uses_demo_kb=True, threshold=0.5),
    case("ipad-above-its-score", "product", None, uses_demo_kb=True, threshold=0.9),
    case("score-equal-to-the-threshold-is-rejected", "thing", None,
         EntityRecord(id=1, label="x", description="a"), ["thing", "thing.b"], AT_THRESHOLD),
    case("score-above-the-threshold-qualifies", "thing", ("thing.b", pytest.approx(0.1, abs=1e-12)),
         EntityRecord(id=1, label="x", description="a"), ["thing", "thing.b"], AT_THRESHOLD,
         threshold=0.09),
    case("root-without-subtypes", "person", None, TABLET, ["person"]),
    case("subtype-is-no-root", "product.computer", None),
    case("date-is-no-root", "date", None),
    case("all-similarities-undefined", "product", None,
         EntityRecord(id=1, label="x", description="zzz qqq")),
    # no description: the occupation entity's label ("politician") is the evidence
    case("empty-description-uses-candidate-labels", "person", "person.politician", NAMELESS,
         uses_demo_kb=True),
    case("empty-description-without-kb", "person", None, NAMELESS),
    # both score 1.0; the first in document order wins
    case("tie-keeps-document-order", "t", "t.y", EntityRecord(id=1, label="e", description="x"),
         ["t", "t.y", "t.z"], PARALLEL),
    case("leaf-without-word-token-is-skipped", "product", "product.computer", TABLET,
         ["product", "product.+", "product.computer"]),
    case("only-leaf-without-word-token", "product", None, TABLET, ["product", "product.+"]),
]


@pytest.mark.parametrize("coarse, want, entity, lines, table, uses_demo_kb, threshold",
                         CLUSTER_CASES)
def test_clustering_matches_the_oracles(hierarchy, demo_table, demo_kb, coarse, want, entity,
                                        lines, table, uses_demo_kb, threshold):
    h = hierarchy if lines is None else parse_hierarchy(lines)
    table = table or demo_table
    entity = entity or demo_kb.records[2796]
    kb = demo_kb if uses_demo_kb else None
    cfg = demo_cfg(threshold=threshold)
    got = cluster_to_subtype(Linker(kb or EMPTY_KB, h, table, cfg), entity, coarse)
    assert_same_clustering(got, per_subtype_oracle(entity, coarse, h, table, cfg, kb), coarse)
    if got is None:
        assert want is None
    else:
        assert got == (want if isinstance(want, tuple) else (want, got[1]))
        evidence = evidence_tokens(entity, coarse, kb)
        assert_winner_scores_the_50_digit_cosine(got, evidence, table, {}, coarse)


def test_evidence_reduced_once_matches_per_subtype_oracle_on_demo(hierarchy, demo_table, demo_kb):
    exact = {}
    for threshold in (0.0, 0.1, 0.5):
        cfg = demo_cfg(threshold=threshold)
        for kb in (None, demo_kb):
            linker = Linker(kb or EMPTY_KB, hierarchy, demo_table, cfg)
            for entity in demo_kb.records.values():
                for coarse in map(str, hierarchy.roots):
                    want = per_subtype_oracle(entity, coarse, hierarchy, demo_table, cfg, kb)
                    got = cluster_to_subtype(linker, entity, coarse)
                    assert_same_clustering(got, want, (entity.id, coarse, threshold))
                    assert_winner_scores_the_50_digit_cosine(
                        got, evidence_tokens(entity, coarse, kb), demo_table, exact,
                        (entity.id, coarse, threshold))


def test_evidence_reduced_once_matches_per_subtype_oracle_on_random_tables():
    # Random tables and hierarchies with exact ties (repeated vectors), zero
    # vectors, OOV and no-word leaves, and thresholds set exactly at a score;
    # root "u" has no subtype with a usable vector and root "v" no subtype.
    rng = np.random.default_rng(23)
    for case in range(150):
        dim = int(rng.integers(1, 5))
        vectors = {f"w{i}": rng.standard_normal(dim) for i in range(8)}
        vectors["twin"] = vectors["w0"].copy()
        vectors["zero"] = np.zeros(dim)
        table = EmbeddingTable(dim, vectors)
        vocab = list(vectors) + ["oov"]
        leaves = {"_".join(rng.choice(vocab, size=rng.integers(1, 3)))
                  for _ in range(rng.integers(1, 7))}
        leaves |= set(rng.choice(["+", "oov", "zero", "w0", "twin"], size=2))
        names = list(leaves)
        rng.shuffle(names)
        h = parse_hierarchy(["t", *(f"t.{leaf}" for leaf in names),
                             "u", "u.oov", "u.zero", "u.+", "v"])
        entity = EntityRecord(id=1, label="e",
                              description=" ".join(rng.choice(vocab, size=rng.integers(0, 4))))
        evidence = tokenize(entity.description)
        scores = [phrase_similarity(evidence, tokenize(leaf), table)
                  for leaf in names if evidence and tokenize(leaf)]
        thresholds = [0.0, 0.1] + [s for s in scores if s is not None and 0.0 <= s <= 1.0]
        exact = {}
        for threshold in thresholds:
            cfg = LinkerConfig(threshold=threshold)
            linker = Linker(EMPTY_KB, h, table, cfg)
            for coarse in ("t", "u", "v"):
                got = cluster_to_subtype(linker, entity, coarse)
                assert_same_clustering(got, per_subtype_oracle(entity, coarse, h, table, cfg),
                                       (case, names, entity.description, threshold, coarse))
                assert_winner_scores_the_50_digit_cosine(
                    got, evidence, table, exact, (case, names, entity.description, threshold))
                assert coarse == "t" or got is None


def test_clustering_ignores_each_word_vector_scale(hierarchy, demo_table, demo_kb):
    # only word directions enter a score: scaling every vector by its own power
    # of two, which normalizing undoes exactly, leaves each result bit-identical
    rng = np.random.default_rng(3)
    scaled = EmbeddingTable(demo_table.dim, {
        t: demo_table.get(t) * 2.0 ** int(rng.integers(-20, 21)) for t in demo_table.tokens()})
    plain = demo_linker(hierarchy, demo_table, demo_kb, threshold=0.0)
    rescaled = demo_linker(hierarchy, scaled, demo_kb, threshold=0.0)
    results = 0
    for entity in demo_kb.records.values():
        for coarse in map(str, hierarchy.roots):
            want = cluster_to_subtype(plain, entity, coarse)
            assert_same_clustering(cluster_to_subtype(rescaled, entity, coarse), want,
                                   (entity.id, coarse))
            results += want is not None
    assert results > 0


def test_leaf_without_word_token_is_skipped(demo_table):
    h = parse_hierarchy(["product", "product.+", "product.computer"])
    entity = EntityRecord(id=1, label="x", description="line of tablet computers")
    got = cluster_to_subtype(demo_linker(h, demo_table), entity, "product")
    assert got is not None and got[0] == "product.computer"
    only = parse_hierarchy(["product", "product.+"])
    assert cluster_to_subtype(demo_linker(only, demo_table), entity, "product") is None


def test_roots_without_usable_subtypes_fall_back_to_coarse_label(demo_table):
    kb = ingest_snapshot([json.dumps({"qid": "Q2796", "label": "iPad",
                                      "description": "line of tablet computers"})])
    h = parse_hierarchy(["product", "product.zzz", "product.+", "building"])
    linker = Linker(kb, h, demo_table, demo_cfg(threshold=0.0))
    for coarse in ("product", "building"):
        span = MentionSpan(0, 1, coarse)
        assert link_mention(linker, span, ["iPad"]) == FineTypedMention(span, 2796, coarse, None)


# --- link_mention ------------------------------------------------------------------

@pytest.fixture(scope="module")
def linker(hierarchy, demo_table, demo_kb):
    return demo_linker(hierarchy, demo_table, demo_kb)


# Named demo mentions: the tokens, the span, then the entity, the fine type and
# whether it was clustered (with a score above the threshold).
LINK_CASES = {
    "michael-jeffrey-jordan": ("Michael Jeffrey Jordan in San Jose .", (0, 3, "person"),
                               41421, "person.athlete", True),
    "unseen-surface-falls-back": ("Zorgcorp", (0, 1, "organization"), None, "organization", False),
    "unmapped-coarse-tag-bypasses": ("2011", (0, 1, "date"), None, "date", False),
    # Eiffel Tower resolves but its description tokens are out of vocabulary
    "found-entity-below-threshold-keeps-entity": ("Eiffel Tower", (0, 2, "building"), 243,
                                                  "building", False),
    # tagged person, but the surface only resolves to non-person entities
    "narrowing": ("iPad", (0, 1, "person"), None, "person", False),
}


@pytest.mark.parametrize("case", LINK_CASES)
def test_link_mention(linker, case):
    text, span, entity, fine_type, clustered = LINK_CASES[case]
    got = link_mention(linker, MentionSpan(*span), text.split())
    assert (got.span, got.entity, got.fine_type) == (MentionSpan(*span), entity, fine_type)
    assert (got.score is not None and got.score > 0.1) == clustered


def test_hierarchy_consistency_over_demo_entities(hierarchy, linker):
    for surface, coarse in [
        ("Michael Jordan", "person"), ("Lionel Messi", "person"),
        ("Paris", "location"), ("Atlantic Ocean", "location"),
        ("Apple", "organization"), ("FC Barcelona", "organization"),
        ("iPad", "product"), ("Titanic", "product"), ("Eiffel Tower", "building"),
    ]:
        tokens = surface.split()
        got = link_mention(linker, MentionSpan(0, len(tokens), coarse), tokens)
        assert hierarchy.coarse_of(got.fine_type) == coarse


def test_link_deterministic_under_kb_reordering(hierarchy, demo_table, demo_config_path):
    lines = (demo_config_path.parent / "snapshot.jsonl").read_text().strip().splitlines()
    rng = np.random.default_rng(3)
    tokens = "Michael Jeffrey Jordan visited the iPad store".split()
    outputs = set()
    for _ in range(10):
        shuffled = list(lines)
        rng.shuffle(shuffled)
        linker = demo_linker(hierarchy, demo_table, ingest_snapshot(shuffled))
        a = link_mention(linker, MentionSpan(0, 3, "person"), tokens)
        b = link_mention(linker, MentionSpan(5, 6, "product"), tokens)
        outputs.add((a.entity, a.fine_type, a.score, b.entity, b.fine_type, b.score))
    assert len(outputs) == 1


def test_fallback_totality_random_spans(hierarchy, linker):
    # every input yields a mention, whatever the surface or tag
    rng = np.random.default_rng(11)
    words = ["iPad", "Paris", "xyzzy", "Apple", "of", "Tower", "2011"]
    tags = [str(r) for r in hierarchy.roots] + ["date", "cardinal"]
    for _ in range(50):
        n = int(rng.integers(1, 5))
        tokens = list(rng.choice(words, size=n))
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, n + 1))
        span = MentionSpan(start, end, str(rng.choice(tags)))
        got = link_mention(linker, span, tokens)
        assert isinstance(got, FineTypedMention)
        assert (got.score is not None) == (got.fine_type != span.coarse)
