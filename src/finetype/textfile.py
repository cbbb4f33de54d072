"""Opening the UTF-8 text files every reader parses."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def open_utf8(path: str | os.PathLike[str], error: type[Exception]) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text. Bytes that are not UTF-8 raise ``error``
    naming the file and the first line that holds them; that line is found
    only then, by scanning the file's bytes again."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{_non_utf8_place(path)}: not UTF-8 text") from None


def _non_utf8_place(path: str | os.PathLike[str]) -> str:
    """``path`` and the 1-based number of the line holding its first byte that
    is not UTF-8, lines ending at LF, CR or CRLF as in text reading."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = head.count("\n") + 1
        return f"{path} line {lineno}"
    return str(path)  # the file changed since it was read
