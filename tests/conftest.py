import json
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from finetype import load_embeddings, load_hierarchy, load_snapshot
from finetype.embeddings import EmbeddingError, EmbeddingTable, _sidecar_dim, bounded_rows
from finetype.kb import EntityRecord, SnapshotError, format_qid, normalize_surface, parse_qid
from finetype.tagger import MentionSpan, StaticVectors, read_conll
from finetype.taxonomy import default_hierarchy_path

DATA_DIR = Path(default_hierarchy_path()).parent
DEMO_DIR = DATA_DIR / "demo"

# A longer run of the derandomized oracle properties, for a CI step that runs
# them alone: the two vector readers' per-line loops, the snapshot ingest's
# oracle and keys properties (tests/test_kb.py) and float32 tagging, at
# --hypothesis-profile=fuzz-2000. Tier-1 runs each at the default count; each
# generator has its own property, so each gets the whole count.
settings.register_profile("fuzz-2000", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def hierarchy():
    return load_hierarchy(default_hierarchy_path())


@pytest.fixture(scope="session")
def demo_kb():
    return load_snapshot(DEMO_DIR / "snapshot.jsonl")


@pytest.fixture(scope="session")
def demo_table():
    return load_embeddings(DEMO_DIR / "wiki_vectors.vec")


@pytest.fixture(scope="session")
def demo_config_path():
    return DEMO_DIR / "pipeline.cfg"


def demo_sidecar_sentences():
    """Each demo corpus sentence's vectors from the demo token table: with
    these as a sidecar, a run reproduces the static-table one."""
    provider = StaticVectors(load_embeddings(DEMO_DIR / "token_vectors.vec"))
    corpus = read_conll(DEMO_DIR / "corpus.conll")
    return [provider.vectors_for(i, ex.tokens) for i, ex in enumerate(corpus)]


def sidecar_text(sentences) -> str:
    """A sidecar holding ``sentences``, every value in ``repr`` form."""
    rows = [f"{sentences[0].shape[1]}\n"]
    for sentence in sentences:
        rows.extend(" ".join(repr(float(v)) for v in row) + "\n" for row in sentence)
        rows.append("\n")
    return "".join(rows)


def tags_of_spans(spans: Iterable[MentionSpan], length: int) -> list[str]:
    """Encode non-overlapping spans as a BIO tag sequence of ``length``: the
    inverse of ``extract_spans`` that the codec round trips check."""
    tags = ["O"] * length
    for span in sorted(spans):
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        if any(t != "O" for t in tags[span.start : span.end]):
            raise ValueError(f"span {span} overlaps a previous span")
        tags[span.start] = f"B-{span.coarse}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.coarse}"
    return tags


def parse_sidecar_lines(lines: Iterable[str]) -> list[np.ndarray]:
    """``parse_sidecar`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
    dim: int | None = None
    sentences: list[np.ndarray] = []
    current: list[np.ndarray] = []

    def flush() -> None:
        if current:
            sentences.append(np.array(current, dtype=float))
            current.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if dim is None:
            if line:
                dim = _sidecar_dim(line, lineno)
            continue
        if not line:
            flush()
            continue
        try:
            row = np.array([float(v) for v in line.split()], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        current.append(row)
    if dim is None:
        raise EmbeddingError("sidecar file has no dimension header")
    flush()
    if not sentences:
        raise EmbeddingError("sidecar contains no sentences")
    return sentences


def parse_embeddings_lines(lines: Iterable[str]) -> EmbeddingTable:
    """``parse_embeddings`` one line at a time, the oracle of its block parse:
    each value through ``float``, each row's bound checked as it is read, and
    the first bad line named."""
    vectors = {}
    dim = None
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if dim is None and len(parts) == 2:
            try:
                int(parts[0])
                dim = int(parts[1])
            except ValueError:
                pass
            else:
                if dim < 1:
                    raise EmbeddingError(f"line {lineno}: declared dimension must be positive")
                continue
        try:
            row = np.array([float(v) for v in parts[1:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(row)
            if dim == 0:
                raise EmbeddingError(f"line {lineno}: entry has no vector values")
        if len(row) != dim:
            raise EmbeddingError(f"line {lineno}: expected {dim} values, found {len(row)}")
        if not bounded_rows([row])[0]:
            raise EmbeddingError(f"line {lineno}: values are not finite or too large")
        vectors[parts[0].lower()] = row
    if not vectors:
        raise EmbeddingError("embedding file contains no entries")
    return EmbeddingTable(dim, vectors)


# --- snapshot records -------------------------------------------------------------

SNAPSHOT_FIELDS = ("qid", "label", "aliases", "description", "instance_of", "subclass_of",
                   "occupation")


def record_line(qid="Q1", label="Ada", aliases=(), description="", instance_of=(),
                subclass_of=(), occupation=(), *, start="", end="\n", ensure_ascii=True,
                keys=SNAPSHOT_FIELDS):
    """A snapshot line: ``start``, then the record as ``json.dumps`` writes it
    with its ``keys`` (by default the documented fields, in their order), then
    ``end``. Any field may hold a value of any JSON type."""
    fields = {"qid": qid, "label": label, "aliases": aliases, "description": description,
              "instance_of": instance_of, "subclass_of": subclass_of, "occupation": occupation}
    return start + json.dumps({key: fields[key] for key in keys},
                              ensure_ascii=ensure_ascii) + end


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


def oracle_ingest(lines):
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
        labels.setdefault(normalize_surface(rec.label), set()).add(rec.id)
        for alias in rec.aliases:
            aliases.setdefault(normalize_surface(alias), set()).add(rec.id)
        for parent in rec.subclass_of:
            children.setdefault(parent, set()).add(rec.id)
    return records, labels, aliases, children


# --- generated input ------------------------------------------------------------------

numbers = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["²", "1" * 5000, "nan", "-0", "1e400", "0x10", "1_0"]),
)

# Any JSON value, with strings that are Q-ids, almost Q-ids, or neither.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
              st.integers(min_value=-3, max_value=10**6).map(lambda n: f"Q{n}"),
              st.sampled_from(["Q1", "Q2", "q3", " Q4 ", "Q0", "Q", "Q²", "Q1\n"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
