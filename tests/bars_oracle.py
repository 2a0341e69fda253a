"""Per-bar reference implementations of the synthetic panel, the bar-file readers and bar pairing.

``synth_regression_panel`` builds one ``MinuteBar`` per simulated bar,
``write_panel_csv`` writes such a list row by row, ``read_bars_csv`` and
``read_panel_csv`` build one ``MinuteBar`` per row of a bar or panel CSV, and
``from_bars`` pairs bars in a Python loop.  The library fills a ``BarTable``
from the simulated arrays or the file's cells and pairs by index arithmetic
over it; the tests check it against these.  ``bar_table`` builds the
``BarTable`` of hand-written ``MinuteBar`` lists, for tests that feed the
library bars; ``rows`` and ``by_day`` turn a table back into ``MinuteBar``s,
for tests that read the library's bars one at a time.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np
from scipy.signal import lfilter

from liqimpact._common import ParseError, parse_float, parse_int, read_table, write_table
from liqimpact.estimation import RegressionPanel
from liqimpact.ingest import BAR_HEADER, PANEL_HEADER, BarTable, MinuteBar
from liqimpact.sde import _impact_f


def bar_table(bars) -> BarTable:
    """Columns from MinuteBars, grouped by key for a dict and by ``b.day`` otherwise.

    A dict's rows take their key as day label, whatever their ``day`` field
    says, and an empty list keeps its day; a flat iterable keeps its rows in
    input order, days interleaved or not.
    """
    if isinstance(bars, dict):
        groups = [list(v) for v in bars.values()]
        days = tuple(bars)
        rows = [b for group in groups for b in group]
        sizes = np.array(list(map(len, groups)), dtype=np.int64)
        day = np.repeat(np.arange(len(days), dtype=np.int64), sizes)
    else:
        rows = list(bars)
        codes: dict[str, int] = {}
        day = np.array([codes.setdefault(b.day, len(codes)) for b in rows], dtype=np.int64)
        days = tuple(codes)

    def column(name: str, dtype) -> np.ndarray:
        return np.array(list(map(attrgetter(name), rows)), dtype=dtype)

    return BarTable(
        days, day, column("bar_index", np.int64),
        column("order_flow", np.float64), column("last_price", np.float64),
        column("log_return", np.float64), np.array([b.log_return is not None for b in rows], dtype=bool),
        column("signed_count", np.int64), column("unsigned_count", np.int64),
        column("open_bid_size", np.float64), column("open_ask_size", np.float64),
    )


def rows(table: BarTable) -> list[MinuteBar]:
    """One MinuteBar per row, in table order: None for a NaN price or size and for a row without a return."""
    def given(values: np.ndarray) -> list:
        return [None if math.isnan(v) else v for v in values.tolist()]

    returns = [r if has else None for r, has in zip(table.log_return.tolist(), table.has_return.tolist())]
    return [MinuteBar(*fields) for fields in zip(
        [table.days[d] for d in table.day.tolist()], table.bar_index.tolist(), table.order_flow.tolist(),
        given(table.last_price), returns, table.signed_count.tolist(), table.unsigned_count.tolist(),
        given(table.open_bid_size), given(table.open_ask_size))]


def by_day(table: BarTable) -> dict[str, list[MinuteBar]]:
    """The rows of each day label, every day of ``days`` included, rows in table order."""
    out: dict[str, list[MinuteBar]] = {day: [] for day in table.days}
    for b in rows(table):
        out[b.day].append(b)
    return out


def synth_regression_panel(a, impact, flow, n_days, bars_per_day, noise_sd=0.0, seed=0) -> list[MinuteBar]:
    """The bars of ``sde.synth_regression_panel`` for the same arguments, built one at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    decay, trans_sd = flow.transition(1.0)
    x0 = flow.m + flow.stationary_sd * rng.standard_normal(n_days)
    shocks = trans_sd * rng.standard_normal((n_days, bars_per_day - 1))
    eps = noise_sd * rng.standard_normal((n_days, bars_per_day - 1))

    zi = (decay * (x0 - flow.m))[:, None]
    dev, _ = lfilter([1.0], [1.0, -decay], shocks, axis=1, zi=zi)
    x = np.concatenate([x0[:, None], flow.m + dev], axis=1)

    fx = _impact_f(impact, x)
    r = a + fx[:, 1:] - fx[:, :-1] + eps
    log_p = math.log(100.0) + np.concatenate([np.zeros((n_days, 1)), np.cumsum(r, axis=1)], axis=1)
    p = np.exp(log_p)

    bars: list[MinuteBar] = []
    for d in range(n_days):
        day = str(d)
        for j in range(bars_per_day):
            bars.append(MinuteBar(
                day=day,
                bar_index=j,
                order_flow=float(x[d, j]),
                last_price=float(p[d, j]),
                log_return=None if j == 0 else float(r[d, j - 1]),
            ))
    return bars


def write_panel_csv(bars: list[MinuteBar], dest) -> None:
    write_table(dest, PANEL_HEADER, ((b.day, b.bar_index, float(b.order_flow), b.log_return) for b in bars))


def _no_repeat(bars: list[MinuteBar], bar: MinuteBar, where: str) -> None:
    """ParseError unless ``bar`` is the first of ``bars`` with its day and index."""
    if any(b.day == bar.day and b.bar_index == bar.bar_index for b in bars):
        raise ParseError(f"{where}: repeated bar {bar.day} {bar.bar_index}")


def read_bars_csv(path) -> dict[str, list[MinuteBar]]:
    """A bar CSV as per-day MinuteBar lists (counts come back as 0); a repeated day and bar is a ParseError."""
    out: dict[str, list[MinuteBar]] = {}
    for where, (day, bar, flow, last, ret, bid, ask) in read_table(path, BAR_HEADER):
        record = MinuteBar(
            day=day,
            bar_index=parse_int(bar, where=where),
            order_flow=parse_float(flow, where=where, required=True),
            last_price=parse_float(last, where=where),
            log_return=parse_float(ret, where=where),
            open_bid_size=parse_float(bid, where=where),
            open_ask_size=parse_float(ask, where=where),
        )
        _no_repeat(out.get(day, []), record, where)
        out.setdefault(day, []).append(record)
    return out


def read_panel_csv(path) -> list[MinuteBar]:
    """A day,bar,x,r panel CSV as MinuteBar records (no price fields); a repeated day and bar is a ParseError."""
    out: list[MinuteBar] = []
    for where, (day, bar, x, r) in read_table(path, PANEL_HEADER):
        record = MinuteBar(
            day=day,
            bar_index=parse_int(bar, where=where),
            order_flow=parse_float(x, where=where, required=True),
            last_price=None,
            log_return=parse_float(r, where=where),
        )
        _no_repeat(out, record, where)
        out.append(record)
    return out


def from_bars(bars) -> RegressionPanel:
    """Observations from consecutive same-day bar pairs with a defined return.

    Days group by key for a dict and by ``b.day`` otherwise, in order of first
    appearance; inside a day bars are sorted stably by index.
    """
    if isinstance(bars, dict):
        by_day = {d: list(v) for d, v in bars.items()}
    else:
        by_day = {}
        for b in bars:
            by_day.setdefault(b.day, []).append(b)
    rs: list[float] = []
    xs: list[float] = []
    xps: list[float] = []
    for day_bars in by_day.values():
        ordered = sorted(day_bars, key=lambda b: b.bar_index)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.log_return is None or cur.bar_index != prev.bar_index + 1:
                continue
            rs.append(cur.log_return)
            xs.append(cur.order_flow)
            xps.append(prev.order_flow)
    return RegressionPanel(np.array(rs), np.array(xs), np.array(xps))
