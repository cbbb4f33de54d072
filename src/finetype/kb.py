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
from typing import Iterable, Mapping

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


def normalize_surface(surface: str, case_sensitive: bool = False) -> str:
    """NFC-normalize and collapse whitespace; casefold unless strict mode."""
    s = unicodedata.normalize("NFC", surface)
    s = " ".join(s.split())
    return s if case_sensitive else s.casefold()


@dataclass(frozen=True)
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


def _parse_id_list(value: object, field: str) -> tuple[int, ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise SnapshotError(f"field {field!r} must be an array of Q-ids")
    return tuple(parse_qid(v) for v in value)


def _text(value: object) -> str:
    """A label or alias as stripped text; JSON null counts as empty."""
    return "" if value is None else str(value).strip()


def parse_record(line: str) -> EntityRecord:
    """Parse one JSON snapshot line; unknown fields are ignored."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise SnapshotError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SnapshotError("record is not a JSON object")
    if "qid" not in obj:
        raise SnapshotError("record has no 'qid' field")
    entity_id = parse_qid(obj["qid"])
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
    return EntityRecord(
        id=entity_id,
        label=label,
        aliases=tuple(aliases),
        description=str(obj.get("description", "") or ""),
        instance_of=_parse_id_list(obj.get("instance_of"), "instance_of"),
        subclass_of=_parse_id_list(obj.get("subclass_of"), "subclass_of"),
        occupation=_parse_id_list(obj.get("occupation"), "occupation"),
    )


class KnowledgeBase:
    """Indexed, immutable view over an ingested snapshot."""

    def __init__(self, records: Iterable[EntityRecord], case_sensitive: bool = False):
        self.case_sensitive = case_sensitive
        self.records: dict[int, EntityRecord] = {}
        self._label_index: dict[str, set[int]] = {}
        self._alias_index: dict[str, set[int]] = {}
        self._subclass_children: dict[int, set[int]] = {}
        for rec in records:
            if rec.id in self.records:
                raise SnapshotError(f"duplicate entity id {rec.qid}")
            self.records[rec.id] = rec
            self._label_index.setdefault(self._key(rec.label), set()).add(rec.id)
            for alias in rec.aliases:
                self._alias_index.setdefault(self._key(alias), set()).add(rec.id)
            for parent in rec.subclass_of:
                self._subclass_children.setdefault(parent, set()).add(rec.id)

    def _key(self, surface: str) -> str:
        return normalize_surface(surface, self.case_sensitive)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def label_index_size(self) -> int:
        return len(self._label_index)

    @property
    def alias_index_size(self) -> int:
        return len(self._alias_index)

    def lookup(
        self,
        surface: str,
        classes: set[int] | None = None,
        use_aliases: bool = True,
    ) -> EntityRecord | None:
        """Resolve a surface form, or return None when both stages miss.

        Stage 1 matches labels, stage 2 aliases; an exact label match always
        preempts alias candidates. Given ``classes``, a hit counts only when
        one of its instance-of links lies in it. Within the winning stage the
        record with the lowest numeric id wins, making the result independent
        of insertion order.
        """
        if not surface or not surface.strip():
            raise ValueError("lookup surface must be nonempty")
        key = self._key(surface)
        stages = [self._label_index]
        if use_aliases:
            stages.append(self._alias_index)
        for index in stages:
            ids = index.get(key, ())
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
            frontier.extend(self._subclass_children.get(node, ()))
        return closure

    def narrow_candidates(
        self, coarse: str, class_roots: Mapping[str, Iterable[int]]
    ) -> set[int] | None:
        """Classes whose instances a mention of ``coarse`` may link to.

        person/location/organization are narrowed to the subclass closure of
        the configured class roots, to be passed to ``lookup`` as
        ``classes``; every other category is not narrowed and gets None.
        """
        coarse = str(coarse)
        if coarse not in NARROWED_CATEGORIES:
            return None
        roots = set(class_roots.get(coarse, ()))
        if not roots:
            raise MissingClassRootsError(
                f"no class roots configured for narrowable category {coarse!r}"
            )
        return self.subclass_closure(roots)

def ingest_snapshot(lines: Iterable[str], case_sensitive: bool = False) -> KnowledgeBase:
    """Ingest newline-delimited JSON records; blank lines are skipped.

    Raises SnapshotError with the offending line number on malformed input
    or duplicate ids.
    """
    records: list[EntityRecord] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            rec = parse_record(raw)
        except SnapshotError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from None
        if rec.id in seen:
            raise SnapshotError(
                f"line {lineno}: duplicate entity id {rec.qid}"
                f" (first seen on line {seen[rec.id]})"
            )
        seen[rec.id] = lineno
        records.append(rec)
    return KnowledgeBase(records, case_sensitive=case_sensitive)


def load_snapshot(path: str | os.PathLike[str], case_sensitive: bool = False) -> KnowledgeBase:
    with open(path, encoding="utf-8") as fh:
        return ingest_snapshot(fh, case_sensitive=case_sensitive)
