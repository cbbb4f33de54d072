"""Wikidata-style snapshot ingestion and surface-form lookup.

Lookup follows a two-stage exact-match protocol: labels first, then the
"also known as" alias redirection list, returning the candidate with the
numerically lowest Q-id (the most-referenced variant). For the
person/location/organization categories a reverse subclass-of index gives the
class closure that lookup hits must be instances of.
"""

from __future__ import annotations

import json
import os
import re
import unicodedata
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

from .textfile import decode_json_line, open_utf8

NARROWED_CATEGORIES = frozenset({"person", "location", "organization"})

_QID_RE = re.compile(r"^[Qq]([1-9][0-9]*)$")


class SnapshotError(ValueError):
    """Malformed snapshot line or inconsistent record set."""


class MissingClassRootsError(ValueError):
    """A narrowable category has no configured class root entities."""


def parse_qid(text: str) -> int:
    m = _QID_RE.match(str(text).strip())
    if not m:
        raise SnapshotError(f"not a Q-id: {text!r}")
    try:
        return int(m.group(1))
    except ValueError:  # more digits than int() converts
        raise SnapshotError(f"Q-id has too many digits ({len(m.group(1))})") from None


def format_qid(numeric: int) -> str:
    return f"Q{numeric}"


def normalize_surface(surface: str) -> str:
    """NFC-normalize, collapse whitespace and casefold."""
    return " ".join(unicodedata.normalize("NFC", surface).split()).casefold()


@dataclass(frozen=True, slots=True)
class EntityRecord:
    """One knowledge-base entity with its typing links.

    ``id`` is the numeric part of the Q-id. ``aliases`` never repeats the
    label. Link lists may reference ids absent from the snapshot.
    """

    id: int
    label: str
    aliases: tuple[str, ...] = ()
    description: str = ""
    instance_of: tuple[int, ...] = ()
    subclass_of: tuple[int, ...] = ()
    occupation: tuple[int, ...] = ()

    @property
    def qid(self) -> str:
        return format_qid(self.id)


_raw_decode = json.JSONDecoder().raw_decode
# A Q-id in the exact form parse_qid accepts most often, with few enough
# digits for int(); any other value goes through parse_qid.
_plain_qid = re.compile(r"Q[1-9][0-9]{0,17}").fullmatch


def _id_list(value: object, field: str, links: dict[str, int]) -> tuple[int, ...]:
    """A link field's ids. ``links`` maps each link text parse_qid has accepted
    so far to its id; a list holding any other element is parsed element by
    element, so the first bad one is reported."""
    if value is None:
        return ()
    if not isinstance(value, list):
        raise SnapshotError(f"field {field!r} must be an array of Q-ids")
    try:
        return tuple([links[v] for v in value])
    except (KeyError, TypeError):  # a text not seen yet, or an unhashable element
        ids = tuple([parse_qid(v) for v in value])
    links.update(zip(value, ids))
    return ids


def _text(value: object) -> str:
    """A label or alias as stripped text; JSON null counts as empty."""
    return "" if value is None else str(value).strip()


def _parse(line: str, links: dict[str, int]) -> tuple | None:
    """A snapshot line's validated fields in EntityRecord order, or None for a
    blank line. Any other line that is not a record raises SnapshotError,
    without a line number. ``links`` is passed on to _id_list."""
    # A line that is not one value followed by nothing or a newline (one with
    # leading or other trailing JSON whitespace, or an error) is decoded again.
    try:
        obj, end = _raw_decode(line)
    except (ValueError, RecursionError, TypeError):
        if not line.strip():
            return None
        obj = decode_json_line(line, SnapshotError)
    else:
        if end != len(line) and line[end:] != "\n":
            obj = decode_json_line(line, SnapshotError)
    if not isinstance(obj, dict):
        raise SnapshotError("record is not a JSON object")
    if "qid" not in obj:
        raise SnapshotError("record has no 'qid' field")
    qid = obj["qid"]
    entity_id = int(qid[1:]) if type(qid) is str and _plain_qid(qid) else parse_qid(qid)
    label = _text(obj.get("label"))
    if not label:
        raise SnapshotError(f"record {format_qid(entity_id)} has an empty label")
    raw_aliases = obj.get("aliases", [])
    if not isinstance(raw_aliases, list):
        raise SnapshotError("field 'aliases' must be an array")
    aliases: list[str] = []
    for alias in raw_aliases:
        alias = _text(alias)
        if alias and alias != label and alias not in aliases:
            aliases.append(alias)
    # Most link lists are empty; those need no call.
    inst, sub, occ = obj.get("instance_of"), obj.get("subclass_of"), obj.get("occupation")
    return (entity_id, label, tuple(aliases), str(obj.get("description", "") or ""),
            () if inst == [] else _id_list(inst, "instance_of", links),
            () if sub == [] else _id_list(sub, "subclass_of", links),
            () if occ == [] else _id_list(occ, "occupation", links))


def _ids(hit: int | tuple[int, ...] | None) -> tuple[int, ...]:
    """An index value as a tuple of ids; None (no entry) gives ()."""
    if hit is None:
        return ()
    return (hit,) if hit.__class__ is int else hit


class _Records(Mapping):
    """Read-only id -> EntityRecord view over the KB's validated source lines;
    each record is decoded on first access and the same object is returned
    after that."""

    def __init__(self, lines: dict[int, str]):
        self._lines = lines
        self._built: dict[int, EntityRecord] = {}

    def __getitem__(self, entity_id: int) -> EntityRecord:
        rec = self._built.get(entity_id)
        if rec is None:
            rec = self._built[entity_id] = EntityRecord(*_parse(self._lines[entity_id], {}))
        return rec

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._lines

    def __iter__(self):
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


class KnowledgeBase:
    """Indexed, immutable view over an ingested snapshot.

    The KB keeps each record's validated source line, decoded on first
    access. An index maps a key to its one entity id as an int, or to a tuple
    of distinct ids when several entities share the key. None of these is a
    container the cyclic GC keeps tracking: strings and ints never are, and a
    tuple of ints is untracked once a collection has seen it.
    """

    def __init__(self):
        self._lines: dict[int, str] = {}
        self.records: Mapping[int, EntityRecord] = _Records(self._lines)
        self._label_index: dict[str, int | tuple[int, ...]] = {}
        self._alias_index: dict[str, int | tuple[int, ...]] = {}
        self._subclass_children: dict[int, int | tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def label_index_size(self) -> int:
        return len(self._label_index)

    @property
    def alias_index_size(self) -> int:
        return len(self._alias_index)

    def lookup(self, surface: str, classes: AbstractSet[int] | None = None) -> EntityRecord | None:
        """Resolve a surface form, or return None when both stages miss.

        Stage 1 matches labels, stage 2 aliases; an exact label match always
        preempts alias candidates. Given ``classes``, a hit counts only when
        one of its instance-of links lies in it. Within the winning stage the
        record with the lowest numeric id wins, making the result independent
        of insertion order.
        """
        if not surface or not surface.strip():
            raise ValueError("lookup surface must be nonempty")
        key = normalize_surface(surface)
        for index in (self._label_index, self._alias_index):
            ids = _ids(index.get(key))
            if classes is not None:
                ids = [i for i in ids if not classes.isdisjoint(self.records[i].instance_of)]
            if ids:
                return self.records[min(ids)]
        return None

    def subclass_closure(self, roots: Iterable[int]) -> set[int]:
        """All ids reachable from ``roots`` by reverse subclass-of edges, roots included.

        Terminates on cyclic graphs; roots absent from the snapshot are kept.
        """
        closure: set[int] = set()
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            if node in closure:
                continue
            closure.add(node)
            frontier.extend(_ids(self._subclass_children.get(node)))
        return closure

    def narrow_candidates(
        self, coarse: str, class_roots: Mapping[str, Iterable[int]]
    ) -> frozenset[int] | None:
        """Classes whose instances a mention of ``coarse`` may link to.

        person/location/organization are narrowed to the subclass closure of
        the configured class roots, to be passed to ``lookup`` as
        ``classes``; every other category is not narrowed and gets None. Each
        call computes the closure afresh: a ``Linker`` calls this once per
        hierarchy root and keeps the result for the run.
        """
        if coarse not in NARROWED_CATEGORIES:
            return None
        roots = class_roots.get(coarse)
        if not roots:
            raise MissingClassRootsError("no class roots configured for narrowable"
                                         f" category {coarse!r}")
        return frozenset(self.subclass_closure(roots))


def ingest_snapshot(lines: Iterable[str]) -> KnowledgeBase:
    """Ingest newline-delimited JSON records; blank lines are skipped.

    One pass decodes, validates and indexes each line; unknown fields are
    ignored. Raises SnapshotError with the offending line number on malformed
    input or duplicate ids.
    """
    kb = KnowledgeBase()
    stored, children = kb._lines, kb._subclass_children
    label_index, alias_index = kb._label_index, kb._alias_index
    seen: dict[int, int] = {}
    links: dict[str, int] = {}  # class ids repeat across records: parse each text once
    # A key's second id turns its value into a list, made a tuple after the
    # loop, so that a key shared by n records costs O(n) and not O(n^2).
    shared: list[tuple[dict, object]] = []
    nfc = unicodedata.normalize

    def add(index: dict, key: object, entity_id: int) -> None:
        hit = index.get(key)
        if hit is None:
            index[key] = entity_id
        elif hit.__class__ is int:
            if hit != entity_id:
                index[key] = [hit, entity_id]
                shared.append((index, key))
        elif hit[-1] != entity_id:  # one record adds all its ids to a key together
            hit.append(entity_id)

    for lineno, raw in enumerate(lines, start=1):
        try:
            fields = _parse(raw, links)
            if fields is None:
                continue
            entity_id, label, aliases, _, _, parents, _ = fields
            if entity_id in seen:
                raise SnapshotError(f"duplicate entity id {format_qid(entity_id)}"
                                    f" (first seen on line {seen[entity_id]})")
        except SnapshotError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from None
        seen[entity_id] = lineno
        stored[entity_id] = raw
        # normalize_surface, inlined: one call fewer per key.
        key = " ".join(nfc("NFC", label).split()).casefold()
        if key in label_index:
            add(label_index, key, entity_id)
        else:
            label_index[key] = entity_id
        for alias in aliases:
            add(alias_index, " ".join(nfc("NFC", alias).split()).casefold(), entity_id)
        for parent in parents:
            add(children, parent, entity_id)
    for index, key in shared:
        index[key] = tuple(index[key])
    return kb


def load_snapshot(path: str | os.PathLike[str]) -> KnowledgeBase:
    with open_utf8(path, SnapshotError) as fh:
        return ingest_snapshot(fh)
