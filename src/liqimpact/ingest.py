"""Tick-to-bar ingestion: trade signing against quote midpoints and bar aggregation.

Input is a synchronized trade-and-quote stream, one CSV row per tick.  Trades
are signed by comparing the trade price with the midpoint of the freshest quote
at or before the trade (above the midpoint buyer-initiated, below it
seller-initiated, exactly at it unsigned).  Signed sizes are then summed into
fixed-width intraday bars, producing per-bar order flow, the last traded price,
and its log return.

Ticks are held as columns: ``read_ticks`` returns a :class:`TickTable`, and
``build_bars`` works on one with array operations, never a Python loop per
tick.  ``read_ticks`` parses a chunk of the file as bytes with numpy when it is
in the plain layout: ASCII and unquoted, no blank line, seven commas a line,
kind ``T`` or ``Q``, timestamps ``YYYY-MM-DD[T ]HH:MM:SS[.f]`` with one to six
fraction digits, and numbers ``-?digits[.digits]`` of at most 15 digits.  Any
other chunk (quoted cells, exponents, ``nan``, offsets, ``,`` fractions,
non-ASCII text, blank lines) is read a row at a time under the same rules.
``build_bars`` takes only a ``TickTable``; a table has a length and iterates
as ``TickRecord``.  To build one in memory, fill its columns and call
:meth:`TickTable.validate`.  Bars are columns too: ``build_bars`` returns a
:class:`BarTable`, and the bar writers, ``flow_descriptives``, the synthetic
panels, the bar-file reader, the regression pairing and the depth report take
or make one and nothing else.  A ``BarTable`` has rows only per day: ``get(day)``
and ``values()`` give a day's bars as ``MinuteBar`` lists.
This module owns both bar-file layouts: the bar CSV that ``write_bars_csv``
writes and the day,bar,x,r panel CSV that ``write_panel_csv`` writes;
``read_bars_csv`` reads either.

Rules a tick row must follow (breaking one raises ParseError with the file and
physical line):

* the header is ``ts,kind,price,size,bid,ask,bid_size,ask_size``; cells may be
  quoted (a quoted cell ends on its own line), and ``\\r\\n`` line endings and
  blank lines are accepted;
* timestamps are ISO 8601 and naive, read as exchange-local wall-clock time; a
  timestamp with a UTC offset is rejected, even when every row has the same
  offset;
* every numeric cell that is present must be a finite number: ``nan`` and
  ``inf`` are rejected in all six fields;
* a trade (kind ``T``) needs price > 0 and size > 0; a quote (``Q``) needs a
  bid and an ask with bid <= ask, and its sizes, when given, must be >= 0.

Conventions the stream format leaves open, fixed here:

* prices are normalized to integer multiples of a configured tick size before
  the midpoint comparison, so the unsigned branch is an exact test;
* a quote stamped at the same second as a trade is eligible for signing it when
  it appears earlier in the file (file order breaks timestamp ties);
* quote state threads across bars within a day and resets at day boundaries;
  quotes outside session hours still update the state, while out-of-session
  trades are discarded entirely;
* bar-open bid/ask sizes snapshot the quote state strictly before the bar-open
  instant: a quote stamped exactly at bar open belongs to the bar's interior.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
from dataclasses import dataclass, fields
from datetime import date, datetime, time, timedelta
from itertools import compress
from pathlib import Path
from typing import Iterator

import numpy as np

from ._common import ParseError, parse_float, parse_int, read_table, read_text, write_table

__all__ = [
    "ParseError",
    "TickRecord",
    "TickTable",
    "MinuteBar",
    "BarTable",
    "FlowDescriptives",
    "read_ticks",
    "sign_trade",
    "build_bars",
    "flow_descriptives",
    "write_bars_csv",
    "write_panel_csv",
    "read_bars_csv",
]

logger = logging.getLogger(__name__)

TICK_HEADER = ["ts", "kind", "price", "size", "bid", "ask", "bid_size", "ask_size"]
BAR_HEADER = ["day", "bar", "order_flow", "last_price", "log_return", "open_bid_size", "open_ask_size"]
PANEL_HEADER = ["day", "bar", "x", "r"]

DEFAULT_TICK_SIZE = 0.01

_NUMERIC = tuple(TICK_HEADER[2:])
_EPOCH = datetime(1970, 1, 1)
_ONE_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400 * 10**6
# Characters parsed per chunk, about 5,000 rows: whole-file splitting would
# hold millions of cell strings at once.
_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True)
class TickRecord:
    """One trade (kind 'T') or quote (kind 'Q') event: the row a TickTable iterates as.

    Trade records populate price/size; quote records populate bid/ask and the
    two size fields.  ``lineno`` is the 1-based source line for diagnostics.
    """

    timestamp: datetime
    kind: str
    price: float | None = None
    size: float | None = None
    bid: float | None = None
    ask: float | None = None
    bid_size: float | None = None
    ask_size: float | None = None
    lineno: int = 0


def _nan_to_none(values: np.ndarray) -> list:
    return np.where(np.isnan(values), None, values).tolist()


def _as_datetime(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True, eq=False)
class TickTable:
    """Ticks as columns, one entry per tick in input order.

    ``ts_us`` holds the naive timestamps as int64 microseconds since
    1970-01-01; ``is_trade`` is False for quotes.  The six numeric columns are
    float64, NaN where the cell is empty (present values are always finite).
    ``lineno`` is the 1-based source line (0 when unknown) and ``source`` the
    file the rows came from; both serve only error messages.

    ``read_ticks`` makes one from a file; one built in memory from columns
    must be checked with :meth:`validate`.
    """

    ts_us: np.ndarray
    is_trade: np.ndarray
    price: np.ndarray
    size: np.ndarray
    bid: np.ndarray
    ask: np.ndarray
    bid_size: np.ndarray
    ask_size: np.ndarray
    lineno: np.ndarray
    source: str = ""

    def __len__(self) -> int:
        return self.ts_us.size

    def __iter__(self) -> Iterator[TickRecord]:
        stamps = map(_as_datetime, self.ts_us.tolist())
        kinds = np.where(self.is_trade, "T", "Q").tolist()
        numbers = [_nan_to_none(c) for c in self.numbers()]
        return map(TickRecord, stamps, kinds, *numbers, self.lineno.tolist())

    def numbers(self) -> tuple[np.ndarray, ...]:
        """The six numeric columns, in header order."""
        return self.price, self.size, self.bid, self.ask, self.bid_size, self.ask_size

    def columns(self) -> tuple[np.ndarray, ...]:
        """Every array field, in declaration order."""
        return self.ts_us, self.is_trade, *self.numbers(), self.lineno

    def where(self, i: int) -> str:
        """Location of row ``i`` for messages: file and line, line, or record index."""
        lineno = int(self.lineno[i])
        if self.source:
            return f"{self.source}:{lineno}"
        return f"line {lineno}" if lineno else f"record {i}"

    def validate(self) -> None:
        """Raise ParseError at the first row that breaks a trade or quote rule."""
        trade, quote = self.is_trade, ~self.is_trade
        bid, ask = self.bid, self.ask
        broken = (  # in the order the rules are checked on one row
            trade & ~((self.price > 0) & (self.size > 0)),
            quote & (np.isnan(bid) | np.isnan(ask)),
            quote & (bid > ask),
            quote & ((self.bid_size < 0) | (self.ask_size < 0)),
        )
        firsts = [int(np.argmax(rows)) if rows.any() else len(self) for rows in broken]
        i = min(firsts)
        if i == len(self):
            return
        messages = ("trade needs price > 0 and size > 0", "quote needs bid and ask",
                    f"crossed quote bid {bid[i]} > ask {ask[i]}", "negative quote size")
        raise ParseError(f"{self.where(i)}: {messages[firsts.index(i)]}")


@dataclass(frozen=True)
class MinuteBar:
    """Aggregated flow and price state for one intraday interval: the row of ``BarTable.get``.

    ``order_flow`` is buyer-initiated minus seller-initiated contracts over the
    bar.  ``last_price`` is the final trade price at or before the bar end,
    carried forward over trade-free bars; ``log_return`` is its log change from
    the previous bar and is None for the first bar of a day (and for bars
    before the day's first trade).  The open sizes are the best bid/ask sizes
    prevailing as the bar opens, None until the day's first quote.
    """

    day: str
    bar_index: int
    order_flow: float
    last_price: float | None
    log_return: float | None
    signed_count: int = 0
    unsigned_count: int = 0
    open_bid_size: float | None = None
    open_ask_size: float | None = None


@dataclass(frozen=True, eq=False)
class BarTable:
    """Bars as columns, one entry per bar.

    ``days`` holds the day labels in order of first appearance, a day with no
    bars included, and ``day`` each row's position in it (int64).  The float64
    columns hold NaN where a :class:`MinuteBar` field is None.  A return is the
    one field where None and NaN differ, since a regression skips a missing
    return but rejects a NaN one, so ``has_return`` marks the rows whose
    ``log_return`` is given.  A table has a length; its only row views are
    ``get(day)`` and ``values()``, a day's bars as a list of ``MinuteBar``.
    """

    days: tuple[str, ...]
    day: np.ndarray
    bar_index: np.ndarray
    order_flow: np.ndarray
    last_price: np.ndarray
    log_return: np.ndarray
    has_return: np.ndarray
    signed_count: np.ndarray
    unsigned_count: np.ndarray
    open_bid_size: np.ndarray
    open_ask_size: np.ndarray

    def __len__(self) -> int:
        return self.day.size

    def _fields(self) -> list[list]:
        """The MinuteBar fields of every row as lists, in field order, None where missing."""
        return [list(map(self.days.__getitem__, self.day.tolist())), self.bar_index.tolist(),
                self.order_flow.tolist(), _nan_to_none(self.last_price),
                np.where(self.has_return, self.log_return, None).tolist(),
                self.signed_count.tolist(), self.unsigned_count.tolist(),
                _nan_to_none(self.open_bid_size), _nan_to_none(self.open_ask_size)]

    def take(self, rows) -> BarTable:
        """The rows a boolean mask or an integer index array selects, in that order.

        ``days`` is kept whole, so every day code keeps its label.
        """
        return BarTable(self.days, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))

    def values(self) -> list[list[MinuteBar]]:
        """The bars of each day of ``days``, in that order, as :meth:`get` gives them."""
        return [self.get(day) for day in self.days]

    def get(self, day: str, default=None):
        """The bars of one day as ``MinuteBar``s in table order, or ``default`` for a day not in ``days``."""
        if day not in self.days:
            return default
        return list(map(MinuteBar, *self.take(self.day == self.days.index(day))._fields()))


@dataclass(frozen=True)
class FlowDescriptives:
    """Panel-level flow summary: moments, daily one-sided aggregates, signing rate."""

    mean_flow: float
    sd_flow: float
    unsigned_pct: float
    daily_positive: dict[str, float]
    daily_negative: dict[str, float]
    n_bars: int


# ---------------------------------------------------------------------------
# tick files


def _open_text(path: Path) -> io.TextIOBase:
    with path.open("rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open(encoding="utf-8")


def _cells(line: str) -> list[str]:
    return next(csv.reader([line])) if '"' in line else line.split(",")


def _row(line: str) -> tuple | str:
    """One data line's values, or what keeps it out of the columns (checked in field order).

    The values are int64 microseconds, is-trade and the six numbers, NaN where
    a cell is empty.  The trade and quote rules are left to
    :meth:`TickTable.validate`.
    """
    cells = _cells(line)
    if len(cells) != len(TICK_HEADER):
        return f"expected {len(TICK_HEADER)} fields, got {len(cells)}"
    try:
        ts = datetime.fromisoformat(cells[0])
    except ValueError:
        return f"bad timestamp {cells[0]!r}"
    if ts.tzinfo is not None:
        return f"timestamp {cells[0]!r} has a UTC offset; tick times must be naive"
    numbers = []
    for name, cell in zip(_NUMERIC, cells[2:]):
        try:
            value = float(cell) if cell else math.nan
        except ValueError:
            return f"bad number {cell!r}"
        if cell and not math.isfinite(value):
            return f"{name} must be finite, got {cell!r}"
        numbers.append(value)
    if cells[1] not in ("T", "Q"):
        return f"kind must be T or Q, got {cells[1]!r}"
    return ((ts - _EPOCH) // _ONE_US, cells[1] == "T", *numbers)


def _checked_table(rows: list[tuple], lineno: list[int], source: str = "") -> TickTable:
    """Columns of rows as :func:`_row` gives them, checked by the trade and quote rules."""
    ts_us, is_trade, *numbers = zip(*rows) if rows else [()] * len(TICK_HEADER)
    table = TickTable(np.array(ts_us, dtype=np.int64), np.array(is_trade, dtype=bool),
                      *(np.array(c, dtype=np.float64) for c in numbers),
                      np.array(lineno, dtype=np.int64), source=source)
    table.validate()
    return table


def _parse_lines(lines: list[str], first_lineno: int, source: str) -> TickTable:
    """Columns of a chunk's lines read a row at a time; a blank line holds no tick but keeps its number."""
    rows: list[tuple] = []
    kept: list[int] = []
    for lineno, line in enumerate(lines, first_lineno):
        if not line:
            continue
        row = _row(line)
        if isinstance(row, str):
            _checked_table(rows, kept, source)  # a row above it may break a trade or quote rule
            raise ParseError(f"{source}:{lineno}: {row}")
        rows.append(row)
        kept.append(lineno)
    return _checked_table(rows, kept, source)


# The plain layout that _plain_table parses as bytes.  A timestamp is
# YYYY-MM-DD, T or a space, HH:MM:SS, then optionally '.' and 1 to 6 digits.
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_WIDTH = 26
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# A number is -?digits[.digits] with at most 15 digits: its digits as an
# integer stay below 2**53 and 10**15 is exact, so one division rounds
# correctly and equals float(cell).
_MAX_DIGITS = 15
_PLAIN_BYTES = b"0123456789-.:, TQ\n"
_POW10 = 10.0 ** np.arange(_MAX_DIGITS + 1)
_ZERO = ord("0")


def _byte_columns(b: np.ndarray, lo: np.ndarray, w: int) -> np.ndarray:
    """Bytes lo + k of ``b`` for k < w as a (w, len(lo)) array; ``b`` is padded past its last cell."""
    return b[lo + np.arange(w)[:, None]]


def _stamps_us(b: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """int64 microseconds since 1970 of the timestamps at ``lo``, or None if one is not plain."""
    if not ((width == 19) | ((width >= 21) & (width <= _STAMP_WIDTH))).all():
        return None
    w = int(width.max())
    c = _byte_columns(b, lo, w)
    d = c - np.uint8(_ZERO)  # a byte below '0' wraps past 9
    in_fraction = np.arange(20, w)[:, None] < width
    if not ((d[_STAMP_DIGITS] < 10).all() and ((d[20:] < 10) | ~in_fraction).all()
            and ((c[4] == ord("-")) & (c[7] == ord("-")) & ((c[10] == ord("T")) | (c[10] == ord(" ")))
                 & (c[13] == ord(":")) & (c[16] == ord(":"))).all()
            and (w == 19 or ((width == 19) | (c[19] == ord("."))).all())):
        return None
    d = d.astype(np.int64)
    year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3]
    month, day = d[5] * 10 + d[6], d[8] * 10 + d[9]
    hour, minute, second = d[11] * 10 + d[12], d[14] * 10 + d[15], d[17] * 10 + d[18]
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (hour < 24) & (minute < 60) & (second < 60)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not ((day >= 1) & (day <= _DAYS_IN_MONTH[month] + (leap & (month == 2)))).all():
        return None
    # Days since 1970-01-01 of the proleptic Gregorian date, counted in years that begin on 1 March.
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468
    us = (((days * 24 + hour) * 60 + minute) * 60 + second) * 10**6
    for k in range(20, w):  # fraction digits, 10**5 us for the first
        us += np.where(in_fraction[k - 20], d[k], 0) * 10 ** (25 - k)
    return us


def _decimals(b: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """float64 values of the numeric cells at ``lo``, NaN where empty, or None if one is not plain."""
    out = np.full(lo.shape, np.nan)
    full = np.flatnonzero(width)
    lo, width = lo.take(full), width.take(full)
    if not lo.size:
        return out
    w = int(width.max())
    if w > _MAX_DIGITS + 2:
        return None
    c = _byte_columns(b, lo, w)
    inside = np.arange(w)[:, None] < width
    ones = c - np.uint8(_ZERO)
    digit = (ones < 10) & inside
    dot = (c == ord(".")) & inside
    minus = c[0] == ord("-")
    dots = dot.sum(axis=0)
    at = (dot * np.arange(w, dtype=np.uint8)[:, None]).sum(axis=0, dtype=np.int64)  # the dot's column, if any
    n_digits = width - minus - dots
    # Every byte a digit, a dot or a leading minus; one dot at most, with a digit on each side.
    if not ((digit | dot).sum() + minus.sum() == width.sum()
            and ((dots <= 1) & (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
                 & ((dots == 0) | ((at > minus) & (at < width - 1)))).all()):
        return None
    mantissa = np.zeros(lo.size, dtype=np.int64)
    scale = digit * np.uint8(9) + np.uint8(1)
    ones *= digit
    for k in range(w):  # one byte column at a time; the sign and the dot leave the mantissa as it is
        mantissa *= scale[k]
        mantissa += ones[k]
    values = mantissa / _POW10[np.where(dots, width - 1 - at, 0)]
    np.negative(values, out=values, where=minus)
    out.flat[full] = values
    return out


def _plain_table(text: str, first_lineno: int, source: str) -> TickTable | None:
    """Columns of a chunk parsed as bytes, checked, or None where the chunk leaves the plain layout.

    Plain means ASCII and unquoted, with no blank line, seven commas in every
    line, kind T or Q, timestamps YYYY-MM-DD[T ]HH:MM:SS[.f] (1 to 6 fraction
    digits, a real calendar date, naive) and numbers -?digits[.digits] of at
    most 15 digits.  Every value equals what the row reader makes of it.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):  # a quote, a letter, '+' or '/': leave the chunk at once
        return None
    padded = np.frombuffer(raw + b"\n" * (_STAMP_WIDTH + 2), np.uint8)
    b = padded[:len(raw) + 1]
    ends = np.flatnonzero(b == ord("\n"))
    n = ends.size
    commas = np.flatnonzero(b == ord(","))
    if commas.size != (len(TICK_HEADER) - 1) * n:
        return None
    commas = commas.reshape(n, -1)
    starts = np.concatenate([[0], ends[:-1] + 1])
    if not ((commas[:, 0] >= starts) & (commas[:, -1] < ends)).all():  # so each line holds its own seven
        return None
    lo = np.concatenate([starts[None], commas.T + 1])
    width = np.concatenate([commas.T, ends[None]]) - lo
    kind = b[lo[1]]
    if not ((width[1] == 1) & ((kind == ord("T")) | (kind == ord("Q")))).all():
        return None
    us = _stamps_us(padded, lo[0], width[0])
    numbers = None if us is None else _decimals(padded, lo[2:], width[2:])
    if numbers is None:
        return None
    table = TickTable(us, kind == ord("T"), *numbers,
                      np.arange(first_lineno, first_lineno + n, dtype=np.int64), source=source)
    table.validate()
    return table


def _parse_chunk(text: str, first_lineno: int, source: str) -> TickTable:
    """Columns of the lines of ``text`` (no final newline), the first at line ``first_lineno``."""
    table = _plain_table(text, first_lineno, source)
    return table if table is not None else _parse_lines(text.split("\n"), first_lineno, source)


def read_ticks(path: str | Path) -> TickTable:
    """Parse a tick CSV (plain or gzip, sniffed by magic bytes) into a TickTable.

    The file is read in chunks of whole lines.  A chunk in the plain layout
    is parsed as bytes (:func:`_plain_table`); any other is read a row at a
    time.  The first bad row of the file raises ParseError with
    ``<path>:<line>``, and so does a file that cannot be decoded (a truncated
    or corrupt gzip stream, bytes that are not UTF-8), at the first line not
    yet parsed.  Ordering is checked later by build_bars, which knows about
    days.
    """
    path = Path(path)
    source = str(path)
    chunks: list[TickTable] = []
    first_lineno, rest = 1, ""
    try:
        with _open_text(path) as stream:
            if _cells(stream.readline().rstrip("\n")) != TICK_HEADER:
                raise ParseError(f"{path}:1: expected header {','.join(TICK_HEADER)}")
            first_lineno = 2
            for block in iter(lambda: stream.read(_CHUNK_CHARS), ""):
                text = rest + block
                cut = text.rfind("\n")
                if cut < 0:
                    rest = text
                    continue
                rest = text[cut + 1:]
                chunks.append(_parse_chunk(text[:cut], first_lineno, source))
                first_lineno += text.count("\n", 0, cut) + 1
    except (EOFError, gzip.BadGzipFile, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}:{first_lineno}: {exc}") from exc
    if rest:
        chunks.append(_parse_chunk(rest, first_lineno, source))
    if not chunks:
        return _checked_table([], [], source)
    return TickTable(*(np.concatenate(col) for col in zip(*(c.columns() for c in chunks))), source=source)


# ---------------------------------------------------------------------------
# signing and bars


def sign_trade(
    trade_price: float,
    freshest_bid: float | None,
    freshest_ask: float | None,
    tick_size: float = DEFAULT_TICK_SIZE,
) -> int:
    """Classify a trade as +1 (buyer-initiated), -1 (seller-initiated), or 0.

    The comparison runs on integer tick counts: 2*price vs bid+ask, so a trade
    exactly at the midpoint is unsigned without floating-point surprises.  A
    missing quote side leaves the trade unsigned.  ``build_bars`` applies the
    same rule to whole columns.
    """
    if freshest_bid is None or freshest_ask is None:
        return 0
    if freshest_bid > freshest_ask:
        raise ValueError(f"crossed quote: bid {freshest_bid} > ask {freshest_ask}")
    p = round(trade_price / tick_size)
    b = round(freshest_bid / tick_size)
    a = round(freshest_ask / tick_size)
    if 2 * p > b + a:
        return 1
    if 2 * p < b + a:
        return -1
    return 0


def _session(session_start: str, session_end: str, bar_seconds: int) -> tuple[int, int, int]:
    """(session open as microseconds into the day, bar width in microseconds, bars per session)."""
    start = time.fromisoformat(session_start)
    end = time.fromisoformat(session_end)
    if start.tzinfo is not None or end.tzinfo is not None:
        raise ValueError("session times must be naive, like tick timestamps")
    if not 1e-6 <= bar_seconds < math.inf:
        raise ValueError(f"bar_seconds must be finite and at least a microsecond, got {bar_seconds}")
    bar_us = int(bar_seconds * 10**6)
    open_us, close_us = (((t.hour * 60 + t.minute) * 60 + t.second) * 10**6 + t.microsecond for t in (start, end))
    session_us = close_us - open_us
    if session_us <= 0:
        raise ValueError("session_end must be after session_start")
    if session_us % bar_us:
        raise ValueError(f"bar width {bar_seconds}s does not divide the {session_us / 10**6:.12g}s session")
    return open_us, bar_us, session_us // bar_us


def build_bars(
    ticks: TickTable,
    session_start: str = "09:00",
    session_end: str = "15:00",
    bar_seconds: int = 60,
    tick_size: float = DEFAULT_TICK_SIZE,
) -> BarTable:
    """Aggregate an ordered tick stream into one table of per-day bar sequences.

    ``ticks`` is the table ``read_ticks`` makes (or one built in memory and
    validated); session times are ISO strings such as ``"09:00"``.  Quotes set
    the freshest-quote state, and trades in session hours are signed against
    it and summed into the bar their timestamp falls in, all as array
    operations over the whole stream.  Timestamps running backwards within a
    day raise ParseError with the offending row's location.

    ``days`` lists the ISO day strings in order of first appearance.  A day
    with an in-session trade gets every bar of the session, in order; a day
    without one gets no rows, with a warning.
    """
    if not isinstance(ticks, TickTable):
        raise TypeError(f"build_bars takes the TickTable that read_ticks makes, got {type(ticks).__name__}")
    open_us, bar_us, n_bars = _session(session_start, session_end, bar_seconds)
    if not (math.isfinite(tick_size) and tick_size > 0):
        raise ValueError("tick_size must be a positive number")

    # Days in order of first appearance; the stable sort keeps input order inside each day.
    days, first, inverse = np.unique(ticks.ts_us // _US_PER_DAY, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    days = days[by_first]
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(days.size)
    d = rank[inverse]
    order = np.argsort(d, kind="stable")
    d = d[order]
    ts = ticks.ts_us[order]
    back = np.flatnonzero((d[1:] == d[:-1]) & (ts[1:] < ts[:-1]))
    if back.size:
        j = back[0] + 1
        raise ParseError(f"{ticks.where(order[j])}: timestamp {_as_datetime(ts[j])} precedes "
                         f"{_as_datetime(ts[j - 1])}")
    day_first = np.searchsorted(d, np.arange(days.size))
    tod = ts - days[d] * _US_PER_DAY

    # Freshest quote at or before each row, in file order, forgotten at day boundaries.
    trade = ticks.is_trade[order]
    quote = np.maximum.accumulate(np.where(trade, -1, np.arange(ts.size)))
    quote[quote < day_first[d]] = -1

    since_open = tod - open_us
    live = np.flatnonzero(trade & (since_open >= 0) & (since_open < n_bars * bar_us))
    slot = d[live] * n_bars + since_open[live] // bar_us  # bar over all days; never decreases
    rows = order[live]
    q = quote[live]
    quoted = q >= 0
    quote_rows = order[q[quoted]]
    # sign_trade on whole columns: tick counts rounded half to even, exact below 2**53.
    sign = np.zeros(live.size)
    sign[quoted] = np.sign(2 * np.rint(ticks.price[rows[quoted]] / tick_size)
                           - (np.rint(ticks.bid[quote_rows] / tick_size) + np.rint(ticks.ask[quote_rows] / tick_size)))

    slots = days.size * n_bars
    signed = sign != 0
    flow = np.bincount(slot[signed], weights=sign[signed] * ticks.size[rows[signed]], minlength=slots)
    flow = flow.astype(np.float64, copy=False)  # bincount of no weights is int64
    n_signed = np.bincount(slot[signed], minlength=slots)
    n_unsigned = np.bincount(slot[~signed], minlength=slots)
    ends = np.ones(live.size, dtype=bool)  # the last trade of each bar
    ends[:-1] = slot[1:] != slot[:-1]
    close = np.full(slots, np.nan)
    close[slot[ends]] = ticks.price[rows[ends]]
    close = close.reshape(days.size, n_bars)
    seen = np.where(np.isnan(close), -1, np.arange(n_bars))
    np.maximum.accumulate(seen, axis=1, out=seen)
    last = np.where(seen >= 0, np.take_along_axis(close, np.maximum(seen, 0), axis=1), np.nan)

    # Quote state strictly before each bar opens: the rows stamped earlier are a prefix of the day.
    # Keys are day rank * stride + time of day; two days' width keeps every bar open inside its day.
    stride = 2 * _US_PER_DAY
    bar_open = (np.arange(days.size)[:, None] * stride + open_us + np.arange(n_bars) * bar_us).ravel()
    before = np.searchsorted(d * stride + tod, bar_open)
    snap = np.where(before > np.repeat(day_first, n_bars), quote[before - 1], -1)
    snap_rows = order[np.maximum(snap, 0)]
    open_bid = np.where(snap >= 0, ticks.bid_size[snap_rows], np.nan)
    open_ask = np.where(snap >= 0, ticks.ask_size[snap_rows], np.nan)

    trades_per_day = np.bincount(d[live], minlength=days.size)
    labels = tuple(date.fromordinal(_EPOCH.toordinal() + n).isoformat() for n in days.tolist())
    for label in compress(labels, trades_per_day == 0):
        logger.warning("day %s has no in-session trades; emitting empty day", label)
    traded = trades_per_day > 0
    keep = np.repeat(traded, n_bars)
    last = last.ravel()[keep]
    # math.log, not np.log: numpy's SIMD log differs from libm in the last bit on some prices.
    logs = np.array(list(map(math.log, last.tolist())), dtype=np.float64).reshape(-1, n_bars)
    log_return = np.full_like(logs, np.nan)
    log_return[:, 1:] = logs[:, 1:] - logs[:, :-1]  # NaN unless both prices are present
    log_return = log_return.ravel()
    return BarTable(
        labels, np.repeat(np.flatnonzero(traded), n_bars), np.tile(np.arange(n_bars), int(traded.sum())),
        flow[keep], last, log_return, ~np.isnan(log_return), n_signed[keep], n_unsigned[keep],
        open_bid[keep], open_ask[keep])


def flow_descriptives(bars: BarTable) -> FlowDescriptives:
    """Summarize a bar panel: mean and unbiased sd of per-bar flow, daily
    positive/negative flow aggregates for the days with bars (in ``days``
    order), and the unsigned-trade percentage."""
    if not len(bars):
        raise ValueError("empty bar panel")
    flows = bars.order_flow.tolist()
    n = len(flows)
    mean = sum(flows) / n
    sd = math.sqrt(sum((x - mean) ** 2 for x in flows) / (n - 1)) if n > 1 else 0.0
    size = len(bars.days)
    present = np.flatnonzero(np.bincount(bars.day, minlength=size)).tolist()
    pos = np.bincount(bars.day, weights=np.maximum(bars.order_flow, 0.0), minlength=size).tolist()
    neg = np.bincount(bars.day, weights=np.maximum(-bars.order_flow, 0.0), minlength=size).tolist()
    unsigned = int(bars.unsigned_count.sum())
    total = int(bars.signed_count.sum()) + unsigned
    pct = 100.0 * unsigned / total if total else 0.0
    return FlowDescriptives(mean, sd, pct, {bars.days[i]: pos[i] for i in present},
                            {bars.days[i]: neg[i] for i in present}, n)


def _no_repeat(day: list[str], bar: list[int]) -> None:
    """ValueError at the first day and bar given twice, a file that read_bars_csv would refuse."""
    seen: set[tuple[str, int]] = set()
    for key in zip(day, bar):
        if key in seen:
            raise ValueError(f"repeated bar {key[0]} {key[1]}: the bar file could not be read back")
        seen.add(key)


def write_bars_csv(bars: BarTable, dest: str | Path) -> None:
    """Write bars as CSV with header day,bar,order_flow,last_price,log_return,open_bid_size,open_ask_size.

    Floats are written with repr so identical inputs produce byte-identical
    files; trade counts are in-memory diagnostics and are not serialized.
    """
    day, bar, flow, last, ret, _, _, bid, ask = bars._fields()
    _no_repeat(day, bar)
    write_table(dest, BAR_HEADER, zip(day, bar, flow, last, ret, bid, ask))


def write_panel_csv(bars: BarTable, dest: str | Path) -> None:
    """Write a regression panel as CSV with header day,bar,x,r (empty r on bars without a return)."""
    day, bar, flow, _, ret, *_ = bars._fields()
    _no_repeat(day, bar)
    write_table(dest, PANEL_HEADER, zip(day, bar, flow, ret))


def read_bars_csv(path: str | Path) -> BarTable:
    """Bars of a bar CSV or a day,bar,x,r panel CSV, told apart by header, as one table.

    Rows keep file order and days are coded in order of first appearance.  A
    panel row is a bar row with no price and no sizes; trade counts come back
    as 0.  An empty price or size cell, or a ``nan`` one, is missing (NaN).
    Any other header raises ParseError at line 1; a bad row length or number,
    or a second row for the same day and bar, raises it with the file and line.
    """
    path = Path(path)
    with path.open("rb") as fh:
        first = next(csv.reader(io.StringIO(read_text(path, fh.readline()), newline="")), [])
    if first not in (BAR_HEADER, PANEL_HEADER):
        raise ParseError(f"{path}:1: unrecognized header {','.join(first)!r}; expected "
                         f"{','.join(BAR_HEADER)} or {','.join(PANEL_HEADER)}")
    rows = read_table(path, first)
    if first == PANEL_HEADER:
        rows = ((where, (day, bar, x, "", r, "", "")) for where, (day, bar, x, r) in rows)
    codes: dict[str, int] = {}
    seen: set[tuple[str, int]] = set()
    day, bar_index, order_flow, last_price, log_return, open_bid, open_ask = ([] for _ in range(7))
    for where, (label, bar, x, price, r, bid_size, ask_size) in rows:
        day.append(codes.setdefault(label, len(codes)))
        bar_index.append(parse_int(bar, where=where))
        order_flow.append(parse_float(x, where=where, required=True))
        last_price.append(parse_float(price, where=where))
        log_return.append(parse_float(r, where=where))
        open_bid.append(parse_float(bid_size, where=where))
        open_ask.append(parse_float(ask_size, where=where))
        key = (label, bar_index[-1])
        if key in seen:
            raise ParseError(f"{where}: repeated bar {label} {key[1]}")
        seen.add(key)

    def floats(values: list) -> np.ndarray:
        return np.array(values, dtype=np.float64)  # None becomes NaN

    zeros = np.zeros(len(day), dtype=np.int64)
    return BarTable(tuple(codes), np.array(day, dtype=np.int64), np.array(bar_index, dtype=np.int64),
                    floats(order_flow), floats(last_price), floats(log_return),
                    np.array([v is not None for v in log_return], dtype=bool),
                    zeros, zeros, floats(open_bid), floats(open_ask))
