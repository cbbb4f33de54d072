import json

import mpmath
import numpy as np
import pytest

from finetype.embeddings import (MEAN_VECTOR, PAIRWISE_MEAN, EmbeddingTable, phrase_similarity,
                                  tokenize)
from finetype.kb import EntityRecord, ingest_snapshot
from finetype.linker import (
    FineTypedMention,
    LinkerConfig,
    candidate_fields,
    cluster_to_subtype,
    link_mention,
)
from finetype.tagger import MentionSpan
from finetype.taxonomy import parse_hierarchy

DEMO_CLASS_ROOTS = {
    "person": {5},
    "location": {2221906},
    "organization": {43229},
}


def demo_cfg(**kwargs):
    kwargs.setdefault("class_roots", DEMO_CLASS_ROOTS)
    return LinkerConfig(**kwargs)


def pairwise_mean_oracle(desc_text, subtype_name, table):
    """Brute-force high-precision mean over in-vocabulary token pairs."""
    desc = [table.get(t) for t in tokenize(desc_text)]
    sub = [table.get(t) for t in tokenize(subtype_name)]
    scores = []
    with mpmath.workdps(50):
        for d in desc:
            for s in sub:
                if d is None or s is None:
                    continue
                dd = [mpmath.mpf(x) for x in d]
                ss = [mpmath.mpf(x) for x in s]
                dot = mpmath.fsum(a * b for a, b in zip(dd, ss))
                nd = mpmath.sqrt(mpmath.fsum(a * a for a in dd))
                ns = mpmath.sqrt(mpmath.fsum(b * b for b in ss))
                scores.append(dot / (nd * ns))
        return float(mpmath.fsum(scores) / len(scores)) if scores else None


# --- config -----------------------------------------------------------------

def test_default_threshold_is_point_one():
    assert LinkerConfig().threshold == 0.1


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_threshold_range_validated(bad):
    with pytest.raises(ValueError):
        LinkerConfig(threshold=bad)


def test_similarity_mode_validated():
    with pytest.raises(ValueError):
        LinkerConfig(similarity_mode="median")


# --- candidate fields ---------------------------------------------------------

def test_person_uses_occupation():
    rec = EntityRecord(id=1, label="x", occupation=(82955,), instance_of=(5,))
    assert candidate_fields(rec, "person") == [82955]


def test_location_and_organization_use_instance_of():
    rec = EntityRecord(id=1, label="x", occupation=(82955,), instance_of=(515,))
    assert candidate_fields(rec, "location") == [515]
    assert candidate_fields(rec, "organization") == [515]


def test_empty_fields():
    rec = EntityRecord(id=1, label="x")
    assert candidate_fields(rec, "person") == []


# --- clustering -----------------------------------------------------------------

def test_ipad_clusters_to_computer(hierarchy, demo_table, demo_kb):
    entity = demo_kb.lookup("iPad")
    assert entity.id == 2796
    got = cluster_to_subtype(entity, "product", hierarchy, demo_table, demo_cfg())
    assert got is not None
    label, score = got
    assert label == "product.computer"
    expected = pairwise_mean_oracle("line of tablet computers", "computer", demo_table)
    assert score == pytest.approx(expected, abs=1e-12)
    assert score > 0.1


def test_score_equal_to_threshold_is_rejected():
    # engineered so the only defined similarity is exactly the threshold
    table = EmbeddingTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.1, np.sqrt(1 - 0.01)])})
    h = parse_hierarchy(["thing", "thing.b"])
    entity = EntityRecord(id=1, label="x", description="a")
    cfg = LinkerConfig(threshold=0.1)
    score = pairwise_mean_oracle("a", "b", table)
    assert score == pytest.approx(0.1, abs=1e-12)
    assert cluster_to_subtype(entity, "thing", h, table, cfg) is None
    # strictly above the threshold qualifies
    assert cluster_to_subtype(entity, "thing", h, table, LinkerConfig(threshold=0.09)) is not None


def test_coarse_with_no_subtypes_returns_none(demo_table):
    h = parse_hierarchy(["person"])
    entity = EntityRecord(id=1, label="x", description="line of tablet computers")
    assert cluster_to_subtype(entity, "person", h, demo_table, demo_cfg()) is None


def test_all_similarities_undefined_returns_none(hierarchy, demo_table):
    entity = EntityRecord(id=1, label="x", description="zzz qqq")
    assert cluster_to_subtype(entity, "product", hierarchy, demo_table, demo_cfg()) is None


def test_empty_description_falls_back_to_candidate_field_labels(hierarchy, demo_table, demo_kb):
    # no description: the occupation entity's label ("politician") is the evidence
    entity = EntityRecord(id=999, label="Nameless", description="", occupation=(82955,))
    got = cluster_to_subtype(entity, "person", hierarchy, demo_table, demo_cfg(), kb=demo_kb)
    assert got is not None
    assert got[0] == "person.politician"


def test_empty_description_without_kb_returns_none(hierarchy, demo_table):
    entity = EntityRecord(id=999, label="Nameless", description="", occupation=(82955,))
    assert cluster_to_subtype(entity, "person", hierarchy, demo_table, demo_cfg()) is None


def test_tie_broken_by_document_order():
    table = EmbeddingTable(2, {"x": np.array([1.0, 0.0]), "y": np.array([1.0, 0.0]),
                               "z": np.array([1.0, 0.0])})
    h = parse_hierarchy(["t", "t.y", "t.z"])
    entity = EntityRecord(id=1, label="e", description="x")
    got = cluster_to_subtype(entity, "t", h, table, LinkerConfig())
    assert got[0] == "t.y"  # both score 1.0; first in document order wins


def test_threshold_independent_argmax(hierarchy, demo_table, demo_kb):
    entity = demo_kb.lookup("iPad")
    low = cluster_to_subtype(entity, "product", hierarchy, demo_table, demo_cfg(threshold=0.0))
    mid = cluster_to_subtype(entity, "product", hierarchy, demo_table, demo_cfg(threshold=0.5))
    assert low[0] == mid[0] == "product.computer"
    assert low[1] == mid[1]
    # raising the threshold above the winning score only suppresses the result
    high = cluster_to_subtype(entity, "product", hierarchy, demo_table, demo_cfg(threshold=0.9))
    assert high is None


def per_subtype_oracle(entity, coarse, hierarchy, table, cfg, kb=None):
    """The loop ``cluster_to_subtype`` replaced: one ``phrase_similarity`` call,
    reducing the evidence again, per subtype."""
    subtypes = hierarchy.subtypes_of(coarse)
    if not subtypes:
        return None
    evidence = tokenize(entity.description)
    if not evidence and kb is not None:
        for linked_id in candidate_fields(entity, coarse):
            linked = kb.records.get(linked_id)
            if linked is not None:
                evidence.extend(tokenize(linked.label))
    if not evidence:
        return None
    best = None
    for subtype in subtypes:
        leaf = tokenize(subtype.leaf)
        if not leaf:  # the loop raised here; a leaf with no word token is now skipped
            continue
        score = phrase_similarity(evidence, leaf, table, cfg.similarity_mode)
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


@pytest.mark.parametrize("mode", [PAIRWISE_MEAN, MEAN_VECTOR])
def test_evidence_reduced_once_matches_per_subtype_oracle_on_demo(hierarchy, demo_table, demo_kb,
                                                                   mode):
    for threshold in (0.0, 0.1, 0.5):
        cfg = demo_cfg(threshold=threshold, similarity_mode=mode)
        for entity in demo_kb.records.values():
            for coarse in map(str, hierarchy.roots):
                for kb in (None, demo_kb):
                    want = per_subtype_oracle(entity, coarse, hierarchy, demo_table, cfg, kb)
                    got = cluster_to_subtype(entity, coarse, hierarchy, demo_table, cfg, kb)
                    assert_same_clustering(got, want, (entity.id, coarse, threshold))


@pytest.mark.parametrize("mode", [PAIRWISE_MEAN, MEAN_VECTOR])
def test_evidence_reduced_once_matches_per_subtype_oracle_on_random_tables(mode):
    # Random tables and hierarchies with exact ties (repeated vectors), zero
    # vectors, OOV and no-word leaves, and thresholds set exactly at a score.
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
        h = parse_hierarchy(["t", *(f"t.{leaf}" for leaf in names)])
        entity = EntityRecord(id=1, label="e",
                              description=" ".join(rng.choice(vocab, size=rng.integers(0, 4))))
        evidence = tokenize(entity.description)
        scores = [phrase_similarity(evidence, tokenize(leaf), table, mode)
                  for leaf in names if evidence and tokenize(leaf)]
        thresholds = [0.0, 0.1] + [s for s in scores if s is not None and 0.0 <= s <= 1.0]
        for threshold in thresholds:
            cfg = LinkerConfig(threshold=threshold, similarity_mode=mode)
            assert_same_clustering(cluster_to_subtype(entity, "t", h, table, cfg),
                                   per_subtype_oracle(entity, "t", h, table, cfg),
                                   (case, names, entity.description, threshold))


def test_leaf_without_word_token_is_skipped(demo_table):
    h = parse_hierarchy(["product", "product.+", "product.computer"])
    entity = EntityRecord(id=1, label="x", description="line of tablet computers")
    got = cluster_to_subtype(entity, "product", h, demo_table, demo_cfg())
    assert got is not None and got[0] == "product.computer"
    only = parse_hierarchy(["product", "product.+"])
    assert cluster_to_subtype(entity, "product", only, demo_table, demo_cfg()) is None


# --- link_mention ------------------------------------------------------------------

def test_link_michael_jeffrey_jordan(hierarchy, demo_table, demo_kb):
    tokens = "Michael Jeffrey Jordan in San Jose .".split()
    span = MentionSpan(0, 3, "person")
    got = link_mention(span, tokens, demo_kb, hierarchy, demo_table, demo_cfg())
    assert got.entity == 41421
    assert got.fine_type == "person.athlete"
    assert got.score is not None and got.score > 0.1


def test_link_ipad(hierarchy, demo_table, demo_kb):
    tokens = ["Apple", "'s", "iPad"]
    got = link_mention(MentionSpan(2, 3, "product"), tokens, demo_kb, hierarchy,
                       demo_table, demo_cfg())
    assert got.entity == 2796
    assert got.fine_type == "product.computer"


def test_link_unseen_surface_falls_back(hierarchy, demo_table, demo_kb):
    got = link_mention(MentionSpan(0, 1, "organization"), ["Zorgcorp"], demo_kb,
                       hierarchy, demo_table, demo_cfg())
    assert got == FineTypedMention(MentionSpan(0, 1, "organization"), None, "organization", None)


def test_link_unmapped_coarse_tag_bypasses(hierarchy, demo_table, demo_kb):
    got = link_mention(MentionSpan(0, 1, "date"), ["2011"], demo_kb, hierarchy,
                       demo_table, demo_cfg())
    assert got.fine_type == "date"
    assert got.entity is None and got.score is None


def test_link_found_entity_below_threshold_keeps_entity(hierarchy, demo_table, demo_kb):
    # Eiffel Tower resolves but its description tokens are out of vocabulary
    got = link_mention(MentionSpan(0, 2, "building"), ["Eiffel", "Tower"], demo_kb,
                       hierarchy, demo_table, demo_cfg())
    assert got.entity == 243
    assert got.fine_type == "building"
    assert got.score is None


def test_link_respects_narrowing(hierarchy, demo_table, demo_kb):
    # tagged person, but the surface only resolves to non-person entities
    got = link_mention(MentionSpan(0, 1, "person"), ["iPad"], demo_kb, hierarchy,
                       demo_table, demo_cfg())
    assert got.entity is None
    assert got.fine_type == "person"


def test_hierarchy_consistency_over_demo_entities(hierarchy, demo_table, demo_kb):
    for surface, coarse in [
        ("Michael Jordan", "person"), ("Lionel Messi", "person"),
        ("Paris", "location"), ("Atlantic Ocean", "location"),
        ("Apple", "organization"), ("FC Barcelona", "organization"),
        ("iPad", "product"), ("Titanic", "product"), ("Eiffel Tower", "building"),
    ]:
        tokens = surface.split()
        got = link_mention(MentionSpan(0, len(tokens), coarse), tokens, demo_kb,
                           hierarchy, demo_table, demo_cfg())
        assert hierarchy.coarse_of(got.fine_type) == coarse


def test_link_deterministic_under_kb_reordering(hierarchy, demo_table, demo_config_path):
    lines = (demo_config_path.parent / "snapshot.jsonl").read_text().strip().splitlines()
    rng = np.random.default_rng(3)
    tokens = "Michael Jeffrey Jordan visited the iPad store".split()
    outputs = set()
    for _ in range(10):
        shuffled = list(lines)
        rng.shuffle(shuffled)
        kb = ingest_snapshot(shuffled)
        a = link_mention(MentionSpan(0, 3, "person"), tokens, kb, hierarchy,
                         demo_table, demo_cfg())
        b = link_mention(MentionSpan(5, 6, "product"), tokens, kb, hierarchy,
                         demo_table, demo_cfg())
        outputs.add((a.entity, a.fine_type, a.score, b.entity, b.fine_type, b.score))
    assert len(outputs) == 1


def test_fallback_totality_random_spans(hierarchy, demo_table, demo_kb):
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
        got = link_mention(span, tokens, demo_kb, hierarchy, demo_table, demo_cfg())
        assert isinstance(got, FineTypedMention)
        assert (got.score is not None) == (got.fine_type != span.coarse)


def test_mean_vector_mode_matches_oracle_argmax(hierarchy, demo_table, demo_kb):
    entity = demo_kb.lookup("iPad")
    cfg = demo_cfg(similarity_mode="mean-vector", threshold=0.0)
    got = cluster_to_subtype(entity, "product", hierarchy, demo_table, cfg)
    assert got is not None

    # oracle: cosine of the mean in-vocabulary vectors of each side
    def mean_vec(tokens):
        vecs = [demo_table.get(t) for t in tokens]
        vecs = [v for v in vecs if v is not None]
        return np.mean(vecs, axis=0) if vecs else None

    desc = mean_vec(tokenize(entity.description))
    best = None
    for sub in hierarchy.subtypes_of("product"):
        s = mean_vec(tokenize(sub.leaf))
        if s is None:
            continue
        score = float(np.dot(desc, s) / (np.linalg.norm(desc) * np.linalg.norm(s)))
        if best is None or score > best[1]:
            best = (str(sub), score)
    assert got[0] == best[0]
    assert got[1] == pytest.approx(best[1], abs=1e-12)


def test_linked_output_json_round_trip(hierarchy, demo_table, demo_kb):
    got = link_mention(MentionSpan(0, 1, "product"), ["iPad"], demo_kb, hierarchy,
                       demo_table, demo_cfg())
    record = {"fine": str(got.fine_type), "entity": got.entity, "score": got.score}
    assert json.loads(json.dumps(record))["fine"] == "product.computer"
