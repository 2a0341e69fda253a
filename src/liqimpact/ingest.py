"""Tick-to-bar ingestion: trade signing against quote midpoints and bar aggregation.

Input is a synchronized trade-and-quote stream, one CSV row per tick.  Trades
are signed by comparing the trade price with the midpoint of the freshest quote
at or before the trade (above the midpoint buyer-initiated, below it
seller-initiated, exactly at it unsigned).  Signed sizes are then summed into
fixed-width intraday bars, producing per-bar order flow, the last traded price,
and its log return.

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
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from ._common import fmt

__all__ = [
    "ParseError",
    "TickRecord",
    "MinuteBar",
    "FlowDescriptives",
    "read_ticks",
    "sign_trade",
    "build_bars",
    "flow_descriptives",
    "write_bars_csv",
    "read_bars_csv",
]

logger = logging.getLogger(__name__)

TICK_HEADER = ["ts", "kind", "price", "size", "bid", "ask", "bid_size", "ask_size"]
BAR_HEADER = ["day", "bar", "order_flow", "last_price", "log_return", "open_bid_size", "open_ask_size"]

DEFAULT_TICK_SIZE = 0.01


class ParseError(ValueError):
    """Malformed or mis-ordered tick input; the message carries file/line context."""


@dataclass(frozen=True)
class TickRecord:
    """One trade (kind 'T') or quote (kind 'Q') event.

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


@dataclass(frozen=True)
class MinuteBar:
    """Aggregated flow and price state for one intraday interval.

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


@dataclass(frozen=True)
class FlowDescriptives:
    """Panel-level flow summary: moments, daily one-sided aggregates, signing rate."""

    mean_flow: float
    sd_flow: float
    unsigned_pct: float
    daily_positive: dict[str, float]
    daily_negative: dict[str, float]
    n_bars: int


def _parse_float(cell: str, *, where: str) -> float | None:
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError as exc:
        raise ParseError(f"{where}: bad number {cell!r}") from exc


def read_ticks(path: str | Path) -> list[TickRecord]:
    """Parse a tick CSV (plain or gzip, sniffed by magic bytes) into records.

    Validates the header, the per-kind required fields, and the basic record
    invariants (positive trade price/size, bid <= ask, non-negative quote
    sizes).  Ordering is checked later by build_bars, which knows about days.
    """
    path = Path(path)
    raw = path.open("rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == b"\x1f\x8b":
        stream: io.TextIOBase = io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    else:
        stream = io.TextIOWrapper(raw, encoding="utf-8")

    records: list[TickRecord] = []
    with stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header != TICK_HEADER:
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
            kind = row[1]
            price = _parse_float(row[2], where=where)
            size = _parse_float(row[3], where=where)
            bid = _parse_float(row[4], where=where)
            ask = _parse_float(row[5], where=where)
            bid_size = _parse_float(row[6], where=where)
            ask_size = _parse_float(row[7], where=where)
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
            records.append(
                TickRecord(ts, kind, price, size, bid, ask, bid_size, ask_size, lineno=lineno)
            )
    return records


def sign_trade(
    trade_price: float,
    freshest_bid: float | None,
    freshest_ask: float | None,
    tick_size: float = DEFAULT_TICK_SIZE,
) -> int:
    """Classify a trade as +1 (buyer-initiated), -1 (seller-initiated), or 0.

    The comparison runs on integer tick counts: 2*price vs bid+ask, so a trade
    exactly at the midpoint is unsigned without floating-point surprises.  A
    missing quote side leaves the trade unsigned.
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


def _as_time(value: time | str) -> time:
    return value if isinstance(value, time) else time.fromisoformat(value)


def build_bars(
    ticks: Sequence[TickRecord],
    session_start: time | str = "09:00",
    session_end: time | str = "15:00",
    bar_seconds: int = 60,
    tick_size: float = DEFAULT_TICK_SIZE,
) -> dict[str, list[MinuteBar]]:
    """Aggregate an ordered tick stream into per-day bar sequences.

    One ordered pass per day: quotes update the freshest-quote state, trades in
    session hours are signed against it and summed into the bar their timestamp
    falls in.  Timestamps running backwards within a day raise ParseError with
    the offending line.  A day whose ticks contain no in-session trade is
    emitted as an empty list with a warning.

    Returns a dict keyed by ISO day string, in order of first appearance.
    """
    start = _as_time(session_start)
    end = _as_time(session_end)
    if bar_seconds <= 0:
        raise ValueError("bar_seconds must be positive")
    day0 = datetime(2000, 1, 3)
    session_len = (day0.replace(hour=end.hour, minute=end.minute, second=end.second)
                   - day0.replace(hour=start.hour, minute=start.minute, second=start.second))
    total_seconds = session_len.total_seconds()
    if total_seconds <= 0:
        raise ValueError("session_end must be after session_start")
    if total_seconds % bar_seconds:
        raise ValueError(f"bar width {bar_seconds}s does not divide the {total_seconds:.0f}s session")
    n_bars = int(total_seconds) // bar_seconds

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

        for i, rec in enumerate(day_ticks):
            if prev_ts is not None and rec.timestamp < prev_ts:
                where = f"line {rec.lineno}" if rec.lineno else f"record {i}"
                raise ParseError(f"{day} {where}: timestamp {rec.timestamp} precedes {prev_ts}")
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
            logger.warning("day %s has no in-session trades; emitting empty day", day)
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
            bars.append(
                MinuteBar(
                    day=day,
                    bar_index=k,
                    order_flow=flow[k],
                    last_price=last,
                    log_return=lr,
                    signed_count=signed[k],
                    unsigned_count=unsigned[k],
                    open_bid_size=opens[k][0],
                    open_ask_size=opens[k][1],
                )
            )
        out[day] = bars
    return out


def _flatten(bars: dict[str, list[MinuteBar]] | Iterable[MinuteBar]) -> list[MinuteBar]:
    if isinstance(bars, dict):
        return [b for day_bars in bars.values() for b in day_bars]
    return list(bars)


def flow_descriptives(bars: dict[str, list[MinuteBar]] | Iterable[MinuteBar]) -> FlowDescriptives:
    """Summarize a bar panel: mean and unbiased sd of per-bar flow, daily
    positive/negative flow aggregates, and the unsigned-trade percentage."""
    flat = _flatten(bars)
    if not flat:
        raise ValueError("empty bar panel")
    flows = [b.order_flow for b in flat]
    n = len(flows)
    mean = sum(flows) / n
    sd = math.sqrt(sum((x - mean) ** 2 for x in flows) / (n - 1)) if n > 1 else 0.0
    pos: dict[str, float] = {}
    neg: dict[str, float] = {}
    for b in flat:
        pos[b.day] = pos.get(b.day, 0.0) + max(b.order_flow, 0.0)
        neg[b.day] = neg.get(b.day, 0.0) + max(-b.order_flow, 0.0)
    signed = sum(b.signed_count for b in flat)
    unsigned = sum(b.unsigned_count for b in flat)
    total = signed + unsigned
    pct = 100.0 * unsigned / total if total else 0.0
    return FlowDescriptives(mean, sd, pct, pos, neg, n)


def write_bars_csv(bars: dict[str, list[MinuteBar]] | Iterable[MinuteBar], dest: str | Path) -> None:
    """Write bars as CSV with header day,bar,order_flow,last_price,log_return,open_bid_size,open_ask_size.

    Floats are written with repr so identical inputs produce byte-identical
    files; trade counts are in-memory diagnostics and are not serialized.
    """
    flat = _flatten(bars)
    lines = [",".join(BAR_HEADER)]
    for b in flat:
        lines.append(
            ",".join(
                [
                    b.day,
                    str(b.bar_index),
                    fmt(float(b.order_flow)),
                    fmt(b.last_price),
                    fmt(b.log_return),
                    fmt(b.open_bid_size),
                    fmt(b.open_ask_size),
                ]
            )
        )
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_bars_csv(path: str | Path) -> dict[str, list[MinuteBar]]:
    """Read a bar CSV back into per-day MinuteBar lists (counts come back as 0)."""
    path = Path(path)
    out: dict[str, list[MinuteBar]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != BAR_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(BAR_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(BAR_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(BAR_HEADER)} fields")
            where = f"{path}:{lineno}"
            out.setdefault(row[0], []).append(
                MinuteBar(
                    day=row[0],
                    bar_index=int(row[1]),
                    order_flow=float(row[2]),
                    last_price=_parse_float(row[3], where=where),
                    log_return=_parse_float(row[4], where=where),
                    open_bid_size=_parse_float(row[5], where=where),
                    open_ask_size=_parse_float(row[6], where=where),
                )
            )
    return out

