"""Small shared plumbing: schema tag, deterministic serialization and the CSV table dialect.

Every CSV the package writes or reads apart from tick files (bars, panels,
daily fits, paths, curves and the comparison reports) is a table: a fixed
header line, then one comma-separated row per record, cells rendered by
:func:`fmt`, ``\\n`` line endings.  :func:`write_table` and :func:`read_table`
are the one place that knows this.  :func:`read_text` reads them and JSON
files as UTF-8, with a ParseError at the line of a byte that does not decode.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Iterator

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed or mis-ordered input; the message carries file/line context."""


def fmt(value: object) -> str:
    """Render a cell for CSV output: full-precision repr for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_json(path: str | Path, payload: dict) -> None:
    """Write a JSON document deterministically (sorted keys, no timestamps)."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_text(path: str | Path, data: bytes | None = None) -> str:
    """The UTF-8 text of a file, or of ``data`` read from its start; ParseError
    ``<path>:<line>: ...`` names the line of the first byte that does not decode."""
    data = Path(path).read_bytes() if data is None else data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: {exc}") from None


def read_json(path: str | Path):
    """A file's JSON document (NaN and Infinity as floats); bad JSON raises ParseError ``<path>:<line>: ...``."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None


def write_table(dest: str | Path, header: list[str], rows: Iterable[Iterable[object]]) -> None:
    """Write the header line, then one line per row with each cell rendered by fmt."""
    lines = [",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path: str | Path, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(location, cells)`` for each non-blank data row of a CSV table.

    ``location`` is ``<path>:<line>`` for messages.  A first line other than
    ``header``, a row with another number of fields, or bad UTF-8 raises ParseError.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    if next(reader, None) != header:
        raise ParseError(f"{path}:1: expected header {','.join(header)}")
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != len(header):
            raise ParseError(f"{where}: expected {len(header)} fields")
        yield where, row


def parse_float(cell: str, *, where: str, required: bool = False) -> float | None:
    """A float cell; empty gives None unless required.  ParseError names ``where``."""
    if cell == "" and not required:
        return None
    try:
        return float(cell)
    except ValueError as exc:
        raise ParseError(f"{where}: bad number {cell!r}") from exc


def parse_int(cell: str, *, where: str) -> int:
    """An integer cell that fits in int64; ParseError names ``where``."""
    try:
        value = int(cell)
    except ValueError as exc:
        raise ParseError(f"{where}: bad integer {cell!r}") from exc
    if not -2 ** 63 <= value < 2 ** 63:
        raise ParseError(f"{where}: integer out of range {cell!r}")
    return value
