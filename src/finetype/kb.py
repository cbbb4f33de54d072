"""Wikidata-style snapshot ingestion and surface-form lookup.

Lookup follows a two-stage exact-match protocol: labels first, then the
"also known as" alias redirection list, returning the candidate with the
numerically lowest Q-id (the most-referenced variant). For the
person/location/organization categories a reverse subclass-of index gives the
class closure that lookup hits must be instances of.
"""

from __future__ import annotations

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
    """NFC-normalize, collapse whitespace and casefold. ASCII text skips NFC,
    which leaves it as it is."""
    if not surface.isascii():
        surface = unicodedata.normalize("NFC", surface)
    return " ".join(surface.split()).casefold()


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


# A Q-id's digits in the exact form parse_qid accepts most often, with few
# enough of them for int().
_QID_DIGITS = r"[1-9][0-9]{0,17}"
_LINK_FIELDS = ("instance_of", "subclass_of", "occupation")
# A record line exactly as json.dumps writes the seven documented fields by
# default, followed by at most one newline. Every Q-id has _QID_DIGITS, and no
# string holds an escape or a control character, so JSON would decode each
# one to the matched text. Groups: the id's digits, the label, and the text
# between the aliases' and the subclass_of links' brackets.
_TEXT = r'[^"\\\x00-\x1f]*'
_TEXTS = f'(?:"{_TEXT}"(?:, "{_TEXT}")*)?'
_QIDS = f'(?:"Q{_QID_DIGITS}"(?:, "Q{_QID_DIGITS}")*)?'
_documented_layout = re.compile(
    rf'\{{"qid": "Q({_QID_DIGITS})", "label": "({_TEXT})", "aliases": \[({_TEXTS})\], '
    rf'"description": "{_TEXT}", "instance_of": \[{_QIDS}\], '
    rf'"subclass_of": \[({_QIDS})\], "occupation": \[{_QIDS}\]\}}\n?').fullmatch


def _id_list(value: object, field: str) -> tuple[int, ...]:
    """A link field's ids, parsed element by element, so the first bad one is
    reported."""
    if value is None:
        return ()
    if not isinstance(value, list):
        raise SnapshotError(f"field {field!r} must be an array of Q-ids")
    return tuple([parse_qid(v) for v in value])


def _text(value: object) -> str:
    """A label or alias as stripped text; JSON null counts as empty."""
    return "" if value is None else str(value).strip()


def _parse(line: str) -> tuple | None:
    """A snapshot line's validated fields in EntityRecord order, or None for a
    blank line. Any other line that is not a record raises SnapshotError,
    without a line number."""
    if not line.strip():
        return None
    obj = decode_json_line(line, SnapshotError)
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
    return (entity_id, label, tuple(aliases), str(obj.get("description", "") or ""),
            *[_id_list(obj.get(field), field) for field in _LINK_FIELDS])


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
            rec = self._built[entity_id] = EntityRecord(*_parse(self._lines[entity_id]))
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


def _first_line(stored: dict[int, str], entity_id: int, blanks: list[int]) -> int:
    """The line number of ``entity_id``'s first record. ``stored`` holds the
    records in line order, so its index there counts the records before it;
    ``blanks``, in ascending order, are the lines that hold none."""
    lineno = list(stored).index(entity_id) + 1
    for blank in blanks:
        if blank > lineno:
            break
        lineno += 1
    return lineno


def ingest_snapshot(lines: Iterable[str]) -> KnowledgeBase:
    """Ingest newline-delimited JSON records; blank lines are skipped.

    One pass reads, validates and indexes each line; unknown fields are
    ignored. A line in the layout that json.dumps writes by default for the
    seven documented fields is read with one compiled pattern and no JSON
    decode: it costs that match, one probe of the stored ids and its index
    inserts. A line in any other layout is decoded by the general parser,
    which gives the same result more slowly. A matched label or alias that is
    ASCII with no double space is keyed by one casefold, the key
    normalize_surface gives it; all other text is keyed by normalize_surface.
    Raises SnapshotError with the offending line number on malformed input or
    duplicate ids; line numbers are worked out only then, and for blank lines.
    """
    kb = KnowledgeBase()
    stored, children = kb._lines, kb._subclass_children
    label_index, alias_index = kb._label_index, kb._alias_index
    label_setdefault, alias_setdefault = label_index.setdefault, alias_index.setdefault
    blanks: list[int] = []  # the number of each blank line, the one line that stores nothing
    # A key's second id turns its value into a list, made a tuple after the
    # loop, so that a key shared by n records costs O(n) and not O(n^2).
    shared: list[tuple[dict, object]] = []
    documented_layout = _documented_layout

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

    def current_line() -> int:
        # Every line before this one stored a record or is in blanks.
        return len(stored) + len(blanks) + 1

    def numbered(message: object) -> SnapshotError:
        return SnapshotError(f"line {current_line()}: {message}")

    def duplicate(entity_id: int) -> SnapshotError:
        return numbered(f"duplicate entity id {format_qid(entity_id)}"
                        f" (first seen on line {_first_line(stored, entity_id, blanks)})")

    for raw in lines:
        # A line in the documented layout with a label that is not blank is
        # read from the match, with no decode. Every other line, whatever its
        # layout, goes to _parse, which words the errors.
        documented = documented_layout(raw)
        if documented is not None:
            digits, label, names, sub = documented.groups()
            label = label.strip()
        if documented is None or not label:
            try:
                fields = _parse(raw)
            except SnapshotError as exc:
                raise numbered(exc) from None
            if fields is None:
                blanks.append(current_line())
                continue
            entity_id, label, aliases, _, _, parents, _ = fields
            if entity_id in stored:
                raise duplicate(entity_id)
            stored[entity_id] = raw
            key = normalize_surface(label)
            if label_setdefault(key, entity_id) != entity_id:
                add(label_index, key, entity_id)
            for alias in aliases:
                alias_key = normalize_surface(alias)
                if alias_setdefault(alias_key, entity_id) != entity_id:
                    add(alias_index, alias_key, entity_id)
            for parent in parents:
                add(children, parent, entity_id)
            continue
        entity_id = int(digits)
        # A first record keeps its place in stored, which _first_line reads.
        if entity_id in stored:
            raise duplicate(entity_id)
        stored[entity_id] = raw
        # A matched string holds no control character, so its only ASCII
        # whitespace is " ". Stripped and free of double spaces, ASCII text is
        # then its own split-and-join and skips NFC, so normalize_surface
        # would only casefold it.
        key = (label.casefold() if label.isascii() and "  " not in label
               else normalize_surface(label))
        if label_setdefault(key, entity_id) != entity_id:
            add(label_index, key, entity_id)
        if names:
            # No matched string holds a '"', so '", "' only separates aliases.
            for alias in names[1:-1].split('", "'):
                alias = alias.strip()
                if alias and alias != label:
                    alias_key = (alias.casefold() if alias.isascii() and "  " not in alias
                                 else normalize_surface(alias))
                    if alias_setdefault(alias_key, entity_id) != entity_id:
                        add(alias_index, alias_key, entity_id)
        if sub:
            for parent in sub.split(", "):
                add(children, int(parent.strip('"Q')), entity_id)
    for index, key in shared:
        index[key] = tuple(index[key])
    return kb


def load_snapshot(path: str | os.PathLike[str]) -> KnowledgeBase:
    with open_utf8(path, SnapshotError) as fh:
        return ingest_snapshot(fh)
