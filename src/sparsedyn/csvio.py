"""The text of every artifact: the one CSV format of every numeric table,
the price-panel reader, the JSON writer, parser and matrix reader, and
the one writer of a text file.

A table is optional ``# `` comment lines (each one line of UTF-8 text),
a header of column names, then one row per line; cells are ``,``-separated
and numbers are written as ``%.17g`` (exact for float64).  Writers produce
a table as a stream of row blocks, so a caller can write it without
holding its text.  Readers skip blank and ``#`` lines anywhere.  A JSON artifact is one object with
sorted keys and two-space indents, ending in a line feed.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import json
import logging
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, require_real
from .linalg import as_matrix

log = logging.getLogger("sparsedyn")

__all__ = ["Table", "read_table", "require_complete", "table_blocks", "number", "json_text",
           "ingest_csv", "read_text", "decode_text", "write_text"]

_NUMBER = "%.17g"

# Rows per written block: about 0.9 MB of text at 41 columns.
_BLOCK_ROWS = 1024

# The choices of ``ingest_csv``'s options, each default first.
MISSING_POLICIES = ("reject", "ffill")
CONVERSIONS = ("raw", "log", "returns")


def number(value: float) -> str:
    """A number as every table writes it."""
    return _NUMBER % value


def table_blocks(header: list[str], columns, comments: list[str] | None = None) -> Iterator[str]:
    """A table's text as a stream of blocks: the comment and header lines,
    then ``_BLOCK_ROWS`` rows per block.  ``columns`` are arrays of numbers
    of one length, put side by side (a 1-D array is one column), with one
    column per header name in all; each comment is one line of text that
    UTF-8 can encode, holding no line break of ``str.splitlines``.  A
    mismatch or another comment raises ``ValueError`` in this call, before
    any block exists."""
    parts = [np.asarray(part, dtype=np.float64) for part in columns]
    parts = [part[:, None] if part.ndim == 1 else part for part in parts]
    if (any(part.ndim != 2 for part in parts) or len({len(part) for part in parts}) != 1
            or sum(part.shape[1] for part in parts) != len(header)):
        raise ValueError(f"columns of shapes {[part.shape for part in parts]} "
                         f"do not fill the {len(header)} columns of one table")
    comments = comments or []
    for comment in comments:
        if "".join(comment.splitlines()) != comment:
            raise ValueError(f"comment {comment!r} holds a line break")
        try:
            comment.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"comment {comment!r} is not UTF-8 text: {exc.reason}") from exc
    return _blocks(header, parts, comments)


def _blocks(header: list[str], parts: list[np.ndarray], comments: list[str]) -> Iterator[str]:
    yield "".join(f"# {comment}\n" for comment in comments) + ",".join(header) + "\n"
    line = ",".join([_NUMBER] * len(header)) + "\n"
    # Only one block's rows exist as Python floats and as text at a time.
    for start in range(0, len(parts[0]), _BLOCK_ROWS):
        block = np.column_stack([part[start:start + _BLOCK_ROWS] for part in parts])
        yield "".join(line % tuple(row) for row in block.tolist())


def json_text(doc: dict) -> str:
    """A JSON artifact's text."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_doc(text: str, what: str):
    """Parse a JSON artifact; text that is not a JSON object is a ``DataError``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit
        raise DataError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"invalid {what} JSON: the document is not a JSON object")
    return doc


def _json_matrix(value, name: str, shape) -> np.ndarray:
    """Nested JSON lists as the matrix ``as_matrix(..., name, shape)`` checks, each
    entry through ``require_real``; ``[]`` stands for a shape with a zero dimension."""
    entries = np.asarray(value, dtype=object)
    for entry in entries.flat:
        require_real(entry, name)
    if value == [] and shape != "square" and 0 in shape:
        entries = entries.reshape(shape)
    return as_matrix(entries, name, shape)


def write_text(path, content: str | Iterable[str]) -> bytes:
    """Write a text, or a table's blocks one at a time as they are made, as
    UTF-8 to ``path`` and its new directories; the SHA-256 of those bytes.
    A text is encoded before anything is created, so one that UTF-8 cannot
    encode raises ``UnicodeEncodeError`` and leaves no file."""
    path = Path(path)
    digest = hashlib.sha256()
    blocks = ([content.encode("utf-8")] if isinstance(content, str)
              else (block.encode("utf-8") for block in content))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        for data in blocks:
            digest.update(data)
            handle.write(data)
    return digest.digest()


def read_text(path) -> str:
    """The text of an input file; bytes that are not UTF-8 are a
    ``DataError`` naming the file."""
    return decode_text(Path(path).read_bytes(), path)


def decode_text(data: bytes, path) -> str:
    """``data``, the bytes of the file at ``path``, decoded as a text file
    is read: UTF-8 with universal newlines; bytes that are not UTF-8 are a
    ``DataError`` naming the file."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _cell(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class Table:
    """Row ``i`` of a parsed table came from line ``lines[i]``; ``keys[i]``
    is its first cell as text and ``values[i]`` every cell as a float, nan
    where the cell is not a finite number.  ``header_line`` is 0 when the
    text has no header."""

    header: list[str]
    header_line: int
    lines: list[int]
    keys: list[str]
    values: np.ndarray


def read_table(text: str) -> Table:
    """Parse a table; a header without a value column, or a row with the
    wrong field count, is a ``DataError`` naming its line."""
    header, header_line, lines, keys = [], 0, [], []
    text_lines = text.splitlines()
    values = np.empty((0, 0))
    for lineno, line in enumerate(text_lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = stripped.split(",")
        if not header_line:
            if len(cells) < 2:
                raise DataError(f"line {lineno}: header must name at least one series")
            header, header_line = [name.strip() for name in cells], lineno
            # Rows go straight into one array with room for every line left,
            # so the file never exists as lists of Python floats.
            values = np.empty((len(text_lines) - lineno, len(header)))
            continue
        if len(cells) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(cells)}")
        values[len(lines)] = list(map(_cell, cells))
        lines.append(lineno)
        keys.append(cells[0].strip())
    values = values[:len(lines)]
    values[~np.isfinite(values)] = np.nan
    return Table(header=header, header_line=header_line, lines=lines, keys=keys, values=values)


def require_complete(table: Table) -> None:
    """``DataError`` naming the line and column of the first value cell (the
    key column is its owner's to check), in file order, that is not a
    finite number."""
    bad = np.argwhere(np.isnan(table.values[:, 1:]))
    if bad.size:
        row, column = bad[0]
        raise DataError(f"line {table.lines[row]}: missing value in column "
                        f"{table.header[column + 1]!r}")


def _time_key(text: str, lineno: int) -> float | datetime.date:
    key = _cell(text)
    if math.isfinite(key):
        return key
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise DataError(
            f"line {lineno}: cannot order time value {text!r} (use ISO dates or numbers)"
        ) from None


def ingest_csv(path, missing: str = MISSING_POLICIES[0],
               convert: str = CONVERSIONS[0]) -> tuple[list[str], np.ndarray]:
    """Load a price CSV: header of series names, rows ``date,v1,...,vK``.

    The time column holds either numbers or ISO dates (``YYYY-MM-DD``),
    one kind per file, strictly increasing.  Series names must be
    non-empty and distinct.

    ``missing = "reject"`` fails on any empty/unparseable cell, naming the
    row; ``missing = "ffill"`` forward-fills from the previous day and logs
    the fill count.  It returns the series names and the series fed to the
    model, chosen by ``convert``: ``"raw"`` prices, ``"log"`` prices (all
    positive) or simple ``"returns"`` (no zero price, at least two rows).
    """
    if missing not in MISSING_POLICIES:
        raise ConfigError(f"missing policy must be 'reject' or 'ffill', got {missing!r}")
    if convert not in CONVERSIONS:
        raise ConfigError(f"unknown conversion {convert!r}")
    table = read_table(read_text(path))
    labels = table.header[1:]
    empty = [k + 2 for k, label in enumerate(labels) if not label]
    if empty:
        raise DataError(f"line {table.header_line}: empty series name in column(s) {empty}")
    repeated = sorted(label for label, count in Counter(labels).items() if count > 1)
    if repeated:
        raise DataError(f"line {table.header_line}: duplicate series name(s) {repeated}")
    keys = [_time_key(text, lineno) for lineno, text in zip(table.lines, table.keys)]
    values = table.values[:, 1:]
    holes = np.isnan(values)
    if missing == "ffill":
        # The first row has nothing to fill from; require_complete names it.
        for i in np.flatnonzero(holes[1:].any(axis=1)) + 1:
            values[i, holes[i]] = values[i - 1, holes[i]]
    require_complete(table)
    if len(keys) < 2:
        raise DataError("price CSV needs a header and at least two data rows")
    for i in range(1, len(keys)):
        if type(keys[i]) is not type(keys[0]):
            raise DataError(f"line {table.lines[i]}: time column mixes dates and numbers "
                            f"(saw {table.keys[i]!r})")
        if not keys[i - 1] < keys[i]:
            raise DataError(f"time column must be strictly increasing "
                            f"(saw {table.keys[i - 1]!r} then {table.keys[i]!r})")
    if holes.any():
        log.info("forward-filled %d missing cells", np.count_nonzero(holes))
    if convert == "log":
        if np.any(values <= 0):
            raise DataError("log conversion requires strictly positive prices")
        values = np.log(values)
    elif convert == "returns":
        if np.any(values[:-1] == 0):
            raise DataError("returns conversion divides by zero price")
        values = np.diff(values, axis=0) / values[:-1]
        if len(values) < 2:
            raise DataError("not enough rows after conversion")
    return labels, values
