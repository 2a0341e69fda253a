"""Per-row reference implementations of tick reading and bar building.

``loop_read_ticks`` reads a tick file one csv row at a time and
``loop_build_bars`` walks the ticks one at a time, keeping the quote state in
local variables.  The library does both on columns; the tests check that it
gives the same records, bars and error messages as these loops.
``tick_table`` builds the ``TickTable`` of hand-written ``TickRecord`` lists,
for tests that feed the library ticks without a file, and ``rows`` turns a
table back into ``TickRecord``s.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from datetime import datetime, time, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from liqimpact.ingest import TICK_HEADER, MinuteBar, ParseError, TickRecord, TickTable, sign_trade

EPOCH = datetime(1970, 1, 1)


def tick_table(records) -> TickTable:
    """Columns from TickRecords (None becomes NaN), checked by ``TickTable.validate``.

    Messages name ``line N``, or ``record I`` for a record without a line number.
    """
    records = list(records)

    def column(name: str, dtype) -> np.ndarray:
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    table = TickTable(np.array([(r.timestamp - EPOCH) // timedelta(microseconds=1) for r in records],
                               dtype=np.int64),
                      np.array([r.kind == "T" for r in records], dtype=bool),
                      *(column(name, np.float64) for name in TICK_HEADER[2:]), column("lineno", np.int64))
    table.validate()
    return table


def rows(table: TickTable) -> list[TickRecord]:
    """One TickRecord per tick, in table order, None where a numeric column holds NaN."""
    numbers = [[None if math.isnan(v) else v for v in column.tolist()] for column in table.numbers()]
    return [TickRecord(EPOCH + timedelta(microseconds=us), "T" if trade else "Q", *cells, lineno)
            for us, trade, *cells, lineno in zip(table.ts_us.tolist(), table.is_trade.tolist(), *numbers,
                                                table.lineno.tolist())]


def _number(cell: str, name: str, where: str) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError as exc:
        raise ParseError(f"{where}: bad number {cell!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: {name} must be finite, got {cell!r}")
    return value


def loop_read_ticks(path: str | Path) -> list[TickRecord]:
    """One TickRecord per data row; the first bad row raises ParseError."""
    path = Path(path)
    raw = path.read_bytes()
    text = gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw
    records: list[TickRecord] = []
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(text), encoding="utf-8"))
    if next(reader, None) != TICK_HEADER:
        raise ParseError(f"{path}:1: expected header {','.join(TICK_HEADER)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(TICK_HEADER):
            raise ParseError(f"{where}: expected {len(TICK_HEADER)} fields, got {len(row)}")
        try:
            ts = datetime.fromisoformat(row[0])
        except ValueError as exc:
            raise ParseError(f"{where}: bad timestamp {row[0]!r}") from exc
        if ts.tzinfo is not None:
            raise ParseError(f"{where}: timestamp {row[0]!r} has a UTC offset; tick times must be naive")
        kind = row[1]
        price, size, bid, ask, bid_size, ask_size = (
            _number(cell, name, where) for name, cell in zip(TICK_HEADER[2:], row[2:]))
        if kind == "T":
            if price is None or size is None or price <= 0 or size <= 0:
                raise ParseError(f"{where}: trade needs price > 0 and size > 0")
        elif kind == "Q":
            if bid is None or ask is None:
                raise ParseError(f"{where}: quote needs bid and ask")
            if bid > ask:
                raise ParseError(f"{where}: crossed quote bid {bid} > ask {ask}")
            if (bid_size is not None and bid_size < 0) or (ask_size is not None and ask_size < 0):
                raise ParseError(f"{where}: negative quote size")
        else:
            raise ParseError(f"{where}: kind must be T or Q, got {kind!r}")
        records.append(TickRecord(ts, kind, price, size, bid, ask, bid_size, ask_size, lineno=lineno))
    return records


def loop_build_bars(
    ticks: Sequence[TickRecord],
    session_start: str = "09:00",
    session_end: str = "15:00",
    bar_seconds: int = 60,
    tick_size: float = 0.01,
) -> dict[str, list[MinuteBar]]:
    """Per-day bars from one ordered pass over each day's ticks."""
    start = time.fromisoformat(session_start)
    end = time.fromisoformat(session_end)
    total_seconds = (end.hour - start.hour) * 3600 + (end.minute - start.minute) * 60 + end.second - start.second
    n_bars = total_seconds // bar_seconds

    by_day: dict[str, list[TickRecord]] = {}
    for rec in ticks:
        by_day.setdefault(rec.timestamp.date().isoformat(), []).append(rec)

    out: dict[str, list[MinuteBar]] = {}
    for day, day_ticks in by_day.items():
        open_dt = datetime.combine(day_ticks[0].timestamp.date(), start)
        close_dt = open_dt + timedelta(seconds=total_seconds)

        flow = [0.0] * n_bars
        signed = [0] * n_bars
        unsigned = [0] * n_bars
        bar_price: list[float | None] = [None] * n_bars
        opens: list[tuple[float | None, float | None]] = []

        bid = ask = bid_size = ask_size = None
        prev_ts: datetime | None = None
        any_trade = False

        for rec in day_ticks:
            if prev_ts is not None and rec.timestamp < prev_ts:
                raise ParseError(f"{day}: timestamp {rec.timestamp} precedes {prev_ts}")
            prev_ts = rec.timestamp
            # Snapshot bar-open quote state for every boundary passed or reached.
            while len(opens) < n_bars and rec.timestamp >= open_dt + timedelta(seconds=len(opens) * bar_seconds):
                opens.append((bid_size, ask_size))
            if rec.kind == "Q":
                bid, ask = rec.bid, rec.ask
                bid_size, ask_size = rec.bid_size, rec.ask_size
                continue
            if not (open_dt <= rec.timestamp < close_dt):
                continue
            any_trade = True
            k = int((rec.timestamp - open_dt).total_seconds()) // bar_seconds
            sign = sign_trade(rec.price, bid, ask, tick_size)
            if sign:
                flow[k] += sign * rec.size
                signed[k] += 1
            else:
                unsigned[k] += 1
            bar_price[k] = rec.price

        if not any_trade:
            out[day] = []
            continue

        while len(opens) < n_bars:
            opens.append((bid_size, ask_size))

        bars: list[MinuteBar] = []
        last: float | None = None
        for k in range(n_bars):
            prev_last = last
            if bar_price[k] is not None:
                last = bar_price[k]
            lr = None
            if k > 0 and last is not None and prev_last is not None:
                lr = math.log(last) - math.log(prev_last)
            bars.append(MinuteBar(day, k, flow[k], last, lr, signed[k], unsigned[k], opens[k][0], opens[k][1]))
        out[day] = bars
    return out
