"""Opening the UTF-8 text files every reader parses, and decoding a JSON line."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def open_utf8(path: str | os.PathLike[str], error: type[Exception]) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; an ``error`` raised while it is read is
    raised again as ``<path>: <message>``. Bytes that are not UTF-8 raise
    ``error`` citing the first line holding them, found only then by a rescan."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: line {_non_utf8_line(path)}: not UTF-8 text") from None
    except error as exc:
        raise type(exc)(f"{path}: {exc}") from None


def decode_json_line(line: str, error: type[Exception]) -> object:
    """The JSON value of ``line`` without its line terminator. A line that is
    not JSON raises ``error`` as ``invalid JSON at column C: <reason>``, C
    counted on the line, or as ``invalid JSON: <reason>``."""
    try:
        return json.loads(line.rstrip("\r\n"))
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at column {exc.pos + 1}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise error(f"invalid JSON: {exc}") from None


def _non_utf8_line(path: str | os.PathLike[str]) -> int:
    """The 1-based number of the line holding the first byte of ``path`` that
    is not UTF-8, lines ending at LF, CR or CRLF as in text reading; one past
    the last line if the file changed since it was read and is UTF-8 now."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
