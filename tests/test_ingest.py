"""Tests for tick parsing, trade signing, and minute-bar construction."""

import gzip
import logging
import math
import re
import tempfile
from datetime import datetime, time, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bars_oracle
from ingest_oracle import loop_build_bars, loop_read_ticks, tick_table
from ingest_oracle import rows as tick_rows
from liqimpact import ingest
from liqimpact.cli import main
from liqimpact.ingest import (
    BAR_HEADER,
    PANEL_HEADER,
    MinuteBar,
    ParseError,
    TICK_HEADER,
    TickRecord,
    build_bars,
    flow_descriptives,
    read_bars_csv,
    read_ticks,
    sign_trade,
    write_bars_csv,
)

DATA = Path(__file__).parent / "data"


def _ts(s: str) -> datetime:
    return datetime.strptime(s, "%Y-%m-%d %H:%M:%S")


def trade(ts, price, size):
    return TickRecord(timestamp=_ts(ts), kind="T", price=price, size=size)


def quote(ts, bid, ask, bid_size=1.0, ask_size=1.0):
    return TickRecord(timestamp=_ts(ts), kind="Q", bid=bid, ask=ask,
                      bid_size=bid_size, ask_size=ask_size)


# ---------------------------------------------------------------------------
# trade signing


def test_sign_trade_basic_cases():
    assert sign_trade(100.02, 99.98, 100.02) == 1      # at the ask
    assert sign_trade(99.98, 99.98, 100.02) == -1      # at the bid
    assert sign_trade(100.00, 99.98, 100.02) == 0      # exactly at midpoint
    assert sign_trade(100.05, 99.98, 100.02) == 1      # above the ask
    assert sign_trade(99.90, 99.98, 100.02) == -1      # below the bid
    assert sign_trade(100.01, 99.98, 100.02) == 1      # above mid, inside spread
    assert sign_trade(99.99, 99.98, 100.02) == -1      # below mid, inside spread


def test_sign_trade_no_quote_state():
    assert sign_trade(100.0, None, None) == 0
    assert sign_trade(100.0, 99.98, None) == 0
    assert sign_trade(100.0, None, 100.02) == 0


def test_sign_trade_rounds_to_tick_grid():
    # 100.01 is not representable in binary; comparisons must happen on the
    # integer tick grid so float fuzz cannot flip a midpoint into a side.
    bid, ask = 100.00, 100.02
    mid_fuzzed = (bid + ask) / 2.0  # 100.00999999999999
    assert sign_trade(mid_fuzzed, bid, ask) == 0
    assert sign_trade(100.0099999999, bid, ask) == 0
    assert sign_trade(100.0100000001, bid, ask) == 0
    # A genuine one-tick step away from mid is still resolved.
    assert sign_trade(100.02, bid, ask) == 1
    assert sign_trade(100.00, bid, ask) == -1


def test_sign_trade_coarse_tick():
    assert sign_trade(1025.0, 1000.0, 1050.0, tick_size=25.0) == 0
    assert sign_trade(1050.0, 1000.0, 1050.0, tick_size=25.0) == 1


def test_sign_trade_crossed_quote_rejected():
    with pytest.raises(ValueError):
        sign_trade(100.0, 100.02, 99.98)


# ---------------------------------------------------------------------------
# golden fixture


def test_golden_fixture_fields():
    ticks = read_ticks(DATA / "golden_ticks.csv")
    assert len(ticks) == 20
    days = build_bars(ticks, session_start="09:00", session_end="09:05", bar_seconds=60)
    assert days.days == ("2024-03-15",)
    bars = bars_oracle.by_day(days)["2024-03-15"]
    assert [b.order_flow for b in bars] == [4.0, 4.0, -1.0, 0.0, 7.0]
    assert [b.last_price for b in bars] == [99.99, 100.04, 100.01, 100.01, 100.08]
    assert bars[0].log_return is None
    assert bars[1].log_return == pytest.approx(math.log(100.04 / 99.99), rel=1e-14)
    assert bars[3].log_return == 0.0  # no trades: price carried, flat return
    assert [b.signed_count for b in bars] == [2, 2, 3, 0, 2]
    assert [b.unsigned_count for b in bars] == [0, 1, 0, 0, 0]
    # Bar-open quote sizes come from the freshest quote strictly before the
    # bar opens, including the pre-session state for the first bar.
    assert [(b.open_bid_size, b.open_ask_size) for b in bars] == [
        (60.0, 30.0), (30.0, 25.0), (20.0, 35.0), (15.0, 45.0), (10.0, 55.0),
    ]


def test_golden_fixture_round_trips_through_csv(tmp_path):
    days = build_bars(read_ticks(DATA / "golden_ticks.csv"),
                      session_start="09:00", session_end="09:05", bar_seconds=60)
    dest = tmp_path / "bars.csv"
    write_bars_csv(days, dest)
    back = bars_oracle.by_day(read_bars_csv(dest))
    assert list(back) == list(days.days)
    for a, b in zip(bars_oracle.by_day(days)["2024-03-15"], back["2024-03-15"]):
        assert a.day == b.day and a.bar_index == b.bar_index
        assert a.order_flow == b.order_flow
        assert a.last_price == b.last_price
        assert a.log_return == b.log_return
        assert a.open_bid_size == b.open_bid_size
        assert a.open_ask_size == b.open_ask_size


# ---------------------------------------------------------------------------
# bar construction conventions


def test_flows_conserve_signed_sizes():
    """Sum of bar flows equals the sum of signed sizes from a direct replay."""
    rng = np.random.default_rng(71)
    for _ in range(50):
        ticks, expected = _random_stream(rng)
        days = build_bars(tick_table(ticks), session_start="09:00", session_end="09:30", bar_seconds=60)
        total = sum(b.order_flow for bars in days.values() for b in bars)
        assert total == pytest.approx(expected, abs=1e-9)


def _random_stream(rng):
    """Random in-session quote/trade stream plus an independent signed-size sum.

    The expectation replays sign_trade by hand while tracking the freshest
    quote, which is the same convention build_bars is supposed to apply.
    """
    ticks = []
    bid, ask = None, None
    expected = 0.0
    t = _ts("2024-05-06 09:00:00")
    n = int(rng.integers(10, 40))
    for _ in range(n):
        t = datetime.fromtimestamp(t.timestamp() + float(rng.integers(1, 50)))
        if t >= _ts("2024-05-06 09:30:00"):
            break
        if rng.random() < 0.4 or bid is None:
            mid = round(float(rng.uniform(99.0, 101.0)), 2)
            bid, ask = round(mid - 0.01, 2), round(mid + 0.01, 2)
            ticks.append(TickRecord(timestamp=t, kind="Q", bid=bid, ask=ask,
                                    bid_size=10.0, ask_size=10.0))
        else:
            price = [bid, round((bid + ask) / 2, 3), ask][int(rng.integers(0, 3))]
            size = float(rng.integers(1, 20))
            ticks.append(TickRecord(timestamp=t, kind="T", price=price, size=size))
            expected += sign_trade(price, bid, ask) * size
    return ticks, expected


def test_quote_at_bar_open_instant_not_in_snapshot():
    # The open snapshot is the state strictly before the bar-open instant;
    # a quote stamped exactly at the open belongs to the new bar.
    ticks = [
        quote("2024-05-06 08:59:00", 99.99, 100.01, 5.0, 6.0),
        trade("2024-05-06 09:00:10", 100.01, 1.0),
        quote("2024-05-06 09:01:00", 99.98, 100.02, 70.0, 80.0),
        trade("2024-05-06 09:01:30", 100.02, 2.0),
    ]
    days = build_bars(tick_table(ticks), session_start="09:00", session_end="09:02", bar_seconds=60)
    bars = bars_oracle.by_day(days)["2024-05-06"]
    assert (bars[0].open_bid_size, bars[0].open_ask_size) == (5.0, 6.0)
    assert (bars[1].open_bid_size, bars[1].open_ask_size) == (5.0, 6.0)


def test_session_boundary_trades():
    # Trades before the open or at/after the close never reach a bar; the
    # close itself is exclusive.
    ticks = [
        quote("2024-05-06 08:59:00", 99.99, 100.01),
        trade("2024-05-06 08:59:30", 100.01, 5.0),   # pre-open: dropped
        trade("2024-05-06 09:00:00", 100.01, 1.0),   # first in-session instant
        trade("2024-05-06 09:01:59", 100.01, 2.0),   # last in-session second
        trade("2024-05-06 09:02:00", 100.01, 4.0),   # at the close: dropped
    ]
    days = build_bars(tick_table(ticks), session_start="09:00", session_end="09:02", bar_seconds=60)
    bars = bars_oracle.by_day(days)["2024-05-06"]
    assert [b.order_flow for b in bars] == [1.0, 2.0]


def test_zero_trade_day_warns_and_yields_empty(caplog):
    ticks = [
        quote("2024-05-06 09:10:00", 99.99, 100.01),
        trade("2024-05-06 16:00:00", 100.01, 5.0),  # after close
    ]
    with caplog.at_level(logging.WARNING, logger="liqimpact.ingest"):
        days = build_bars(tick_table(ticks), session_start="09:00", session_end="10:00", bar_seconds=60)
    assert bars_oracle.by_day(days)["2024-05-06"] == []
    assert any("no in-session trades" in rec.message for rec in caplog.records)


def test_empty_day_is_listed_but_has_no_bars(tmp_path, capsys):
    # An empty day first, then a traded one with inexact sizes over 30 bars:
    # enough bars that a pairwise sum could differ from the left-to-right one.
    rng = np.random.default_rng(8)
    lines = [",".join(TICK_HEADER), "2024-05-06 09:01:00,Q,,,99.99,100.01,5.0,6.0",
             "2024-05-06 16:00:00,T,100.01,5.0,,,,"]
    for second in range(1, 300, 3):
        stamp = f"2024-05-07 09:{second // 60:02d}:{second % 60:02d}"
        if second % 4 == 1:
            lines.append(f"{stamp},Q,,,99.99,100.01,{rng.integers(1, 50)}.0,{rng.integers(1, 50)}.0")
        else:
            price = ("99.99", "100.01", "100.0")[rng.integers(0, 3)]
            lines.append(f"{stamp},T,{price},{0.1 * int(rng.integers(1, 30))!r},,,,")
    path = tmp_path / "es.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    session = ("09:00", "09:05", 10)

    assert main(["ingest", str(path), "--out-dir", str(tmp_path), "--session-start", session[0],
                 "--session-end", session[1], "--bar-seconds", str(session[2])]) == 0
    assert "es.bars.csv: 2 day(s), 30 bars, " in capsys.readouterr().out

    bars = build_bars(read_ticks(path), *session)
    assert bars.days == ("2024-05-06", "2024-05-07")
    assert len(bars) == 30 and set(bars.day.tolist()) == {1}
    desc = flow_descriptives(bars)
    # The per-bar sums of the loop, left to right, bit for bit.
    flows = [b.order_flow for day in loop_build_bars(read_ticks(path), *session).values() for b in day]
    mean = sum(flows) / len(flows)
    assert (desc.n_bars, desc.mean_flow) == (30, mean)
    assert desc.sd_flow == math.sqrt(sum((x - mean) ** 2 for x in flows) / 29)
    assert desc.daily_positive == {"2024-05-07": sum(max(x, 0.0) for x in flows)}
    assert desc.daily_negative == {"2024-05-07": sum(max(-x, 0.0) for x in flows)}


def test_multi_day_state_reset():
    # Day two starts with no quote state: its first trade is unsigned even
    # though day one ended with a live quote.
    ticks = [
        quote("2024-05-06 09:00:10", 99.99, 100.01),
        trade("2024-05-06 09:00:30", 100.01, 5.0),
        trade("2024-05-07 09:00:30", 100.01, 7.0),
    ]
    days = build_bars(tick_table(ticks), session_start="09:00", session_end="09:01", bar_seconds=60)
    assert bars_oracle.by_day(days)["2024-05-06"][0].order_flow == 5.0
    d2 = bars_oracle.by_day(days)["2024-05-07"][0]
    assert d2.order_flow == 0.0
    assert d2.unsigned_count == 1
    assert d2.open_bid_size is None and d2.open_ask_size is None


def test_out_of_order_ticks_rejected():
    ticks = tick_table([
        trade("2024-05-06 09:00:30", 100.01, 5.0),
        trade("2024-05-06 09:00:10", 100.01, 5.0),
    ])
    with pytest.raises(ParseError, match="record 1: timestamp 2024-05-06 09:00:10 precedes"):
        build_bars(ticks, session_start="09:00", session_end="09:01", bar_seconds=60)


def test_bar_width_must_divide_session():
    ticks = tick_table([trade("2024-05-06 09:00:30", 100.01, 5.0)])
    with pytest.raises(ValueError):
        build_bars(ticks, session_start="09:00", session_end="09:05", bar_seconds=90)
    with pytest.raises(ValueError):
        build_bars(ticks, session_start="10:00", session_end="09:00", bar_seconds=60)
    with pytest.raises(ValueError, match="naive"):
        build_bars(ticks, session_start="09:00+01:00", session_end="10:00", bar_seconds=60)
    with pytest.raises(ValueError, match="tick_size"):
        build_bars(ticks, session_start="09:00", session_end="09:05", tick_size=0.0)


@pytest.mark.parametrize("start, end, length", [
    ("09:00:00.5", "15:00", "21599.5s"),        # 360 bars would end at 15:00:00.5, after the close
    ("09:00:00.250", "09:01:00.750", "60.5s"),  # one 60 s bar would drop the last half second
])
def test_fractional_session_must_be_a_whole_number_of_bars(tmp_path, capsys, start, end, length):
    assert main(["ingest", str(DATA / "golden_ticks.csv"), "--out-dir", str(tmp_path),
                 "--session-start", start, "--session-end", end]) == 1
    assert f"error: bar width 60s does not divide the {length} session" in capsys.readouterr().err
    assert not (tmp_path / "golden_ticks.bars.csv").exists()
    with pytest.raises(ValueError, match="at least a microsecond"):
        build_bars(tick_table([]), session_start=start, session_end=end, bar_seconds=1e-7)


# ---------------------------------------------------------------------------
# tick file parsing


def _write_tick_file(tmp_path, rows, header=None):
    path = tmp_path / "ticks.csv"
    lines = [",".join(header or TICK_HEADER)] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_read_ticks_parses_both_kinds(tmp_path):
    path = _write_tick_file(tmp_path, [
        "2024-05-06 09:00:00,Q,,,99.99,100.01,10.0,12.0",
        "2024-05-06 09:00:05,T,100.01,3.0,,,,",
    ])
    ticks = tick_rows(read_ticks(path))
    assert ticks[0].kind == "Q" and ticks[0].bid == 99.99 and ticks[0].ask_size == 12.0
    assert ticks[1].kind == "T" and ticks[1].price == 100.01 and ticks[1].size == 3.0
    assert ticks[1].lineno == 3


def test_read_ticks_gzip(tmp_path):
    raw = (DATA / "golden_ticks.csv").read_bytes()
    gz = tmp_path / "ticks.csv.gz"
    gz.write_bytes(gzip.compress(raw))
    zipped, plain = read_ticks(gz), read_ticks(DATA / "golden_ticks.csv")
    assert len(zipped) == len(plain) == 20
    for a, b in zip(zipped.columns(), plain.columns()):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_read_ticks_error_carries_location(tmp_path):
    path = _write_tick_file(tmp_path, [
        "2024-05-06 09:00:00,Q,,,99.99,100.01,10.0,12.0",
        "2024-05-06 09:00:05,T,,3.0,,,,",  # trade without a price
    ])
    with pytest.raises(ParseError, match=r"ticks\.csv:3"):
        read_ticks(path)


def test_read_ticks_rejects_bad_header(tmp_path):
    path = _write_tick_file(tmp_path, ["2024-05-06 09:00:05,T,100.0,3.0,,,,"],
                            header=["time", "what", "px", "sz", "b", "a", "bs", "as"])
    with pytest.raises(ParseError, match="header"):
        read_ticks(path)


def test_read_ticks_rejects_bad_values(tmp_path):
    for row, hint in [
        ("2024-05-06 09:00:05,X,100.0,3.0,,,,", "kind"),
        ("2024-05-06 09:00:05,T,100.0,-3.0,,,,", "size"),
        ("2024-05-06 09:00:05,T,-1.0,3.0,,,,", "price"),
        ("2024-05-06 09:00:05,Q,,,100.01,99.99,1.0,1.0", "crossed"),
        ("not-a-time,T,100.0,3.0,,,,", "timestamp"),
    ]:
        path = _write_tick_file(tmp_path, [row])
        with pytest.raises(ParseError, match=hint):
            read_ticks(path)


# ---------------------------------------------------------------------------
# flow descriptives


def test_flow_descriptives_alternating_flows():
    bars = []
    n = 30
    for i in range(n):
        bars.append(MinuteBar(day="d1", bar_index=i, order_flow=1.0 if i % 2 == 0 else -1.0,
                              last_price=100.0, log_return=None))
    desc = flow_descriptives(bars_oracle.bar_table(bars))
    assert desc.n_bars == n
    assert desc.mean_flow == pytest.approx(0.0, abs=1e-15)
    assert desc.sd_flow == pytest.approx(math.sqrt(n / (n - 1)), rel=1e-12)
    # Daily aggregates are the (absolute) sums of each flow leg.
    assert desc.daily_positive == {"d1": 15.0}
    assert desc.daily_negative == {"d1": 15.0}
    assert desc.unsigned_pct == 0.0


def test_flow_descriptives_unsigned_share():
    bars = [
        MinuteBar(day="d1", bar_index=0, order_flow=2.0, last_price=100.0,
                  log_return=None, signed_count=3, unsigned_count=1),
        MinuteBar(day="d1", bar_index=1, order_flow=0.0, last_price=100.0,
                  log_return=0.0, signed_count=0, unsigned_count=4),
    ]
    desc = flow_descriptives(bars_oracle.bar_table(bars))
    assert desc.unsigned_pct == pytest.approx(100.0 * 5.0 / 8.0, rel=1e-12)


def test_flow_descriptives_of_built_bars():
    days = build_bars(read_ticks(DATA / "golden_ticks.csv"),
                      session_start="09:00", session_end="09:05", bar_seconds=60)
    desc = flow_descriptives(days)
    flows = [b.order_flow for b in bars_oracle.by_day(days)["2024-03-15"]]
    assert desc.mean_flow == pytest.approx(np.mean(flows), rel=1e-14)
    assert desc.sd_flow == pytest.approx(np.std(flows, ddof=1), rel=1e-14)
    assert desc.daily_positive == {"2024-03-15": 15.0}
    assert desc.daily_negative == {"2024-03-15": 1.0}


# ---------------------------------------------------------------------------
# columnar ingest against the per-row loops of ingest_oracle

DAY0 = datetime(2024, 5, 6)
OPEN_US = 9 * 3600 * 10**6
SESSION = ("09:00", "09:05")
# Bar opens (09:00 through the 09:05 close and past it), the last microsecond
# of the session and a pre-open second: the instants the conventions turn on.
EDGE_US = [OPEN_US + k * 60 * 10**6 for k in range(7)] + [OPEN_US + 300 * 10**6 - 1, OPEN_US - 10**6]
SPAN = (OPEN_US - 120 * 10**6, OPEN_US + 420 * 10**6)

offsets_us = st.one_of(
    st.sampled_from(EDGE_US),
    st.integers(*SPAN).map(lambda us: us - us % 10**6),  # whole seconds, so seconds repeat
    st.integers(*SPAN),                                  # fractional seconds
)
quote_sizes = st.one_of(st.none(), st.integers(0, 99).map(float))
quote_events = st.builds(
    lambda bid, spread, bid_size, ask_size: dict(kind="Q", bid=round(0.01 * bid, 2),
                                                 ask=round(0.01 * (bid + spread), 2),
                                                 bid_size=bid_size, ask_size=ask_size),
    st.integers(9990, 10010), st.integers(0, 3), quote_sizes, quote_sizes)
trade_events = st.builds(
    lambda price, size: dict(kind="T", price=price, size=size),
    st.one_of(st.integers(9988, 10012).map(lambda k: round(0.01 * k, 2)),
              st.integers(19976, 20024).map(lambda k: k * 0.005)),  # half ticks: midpoint trades
    st.one_of(st.integers(1, 30).map(float), st.sampled_from([0.5, 2.25])))


@st.composite
def tick_streams(draw):
    """TickRecords over one to three days, each day ordered, the days interleaved.

    Interleaving makes a day reappear later in the stream; a day may hold no
    in-session trade at all.
    """
    day_numbers = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
    days = []
    for n in day_numbers:
        events = draw(st.lists(st.tuples(offsets_us, st.one_of(quote_events, trade_events)), max_size=25))
        events.sort(key=lambda e: e[0])  # stable: equal stamps keep their drawn order
        days.append([TickRecord(DAY0 + timedelta(days=n, microseconds=us), **ev) for us, ev in events])
    order = draw(st.permutations([i for i, day in enumerate(days) for _ in day]))
    streams = [iter(day) for day in days]
    return [next(streams[i]) for i in order]


bar_widths = st.sampled_from([30, 60, 100, 300])


def _write_records(path, records, sep=" "):
    cell = lambda v: "" if v is None else repr(v)
    lines = [",".join(TICK_HEADER)]
    for r in records:
        lines.append(",".join([r.timestamp.isoformat(sep=sep), r.kind,
                               *(cell(getattr(r, name)) for name in TICK_HEADER[2:])]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=200, deadline=None)
@given(tick_streams(), bar_widths)
def test_columnar_bars_equal_the_loop(stream, bar_seconds):
    new = build_bars(tick_table(stream), *SESSION, bar_seconds)
    old = loop_build_bars(stream, *SESSION, bar_seconds)
    assert new.days == tuple(old)
    assert repr(bars_oracle.by_day(new)) == repr(old)  # field for field, float reprs (and signs of zero) included


@settings(max_examples=100, deadline=None)
@given(tick_streams())
def test_bar_flow_sums_to_signed_in_session_size(stream):
    quotes: dict = {}
    expected = 0.0
    for r in stream:
        if r.kind == "Q":
            quotes[r.timestamp.date()] = (r.bid, r.ask)
        elif time(9) <= r.timestamp.time() < time(9, 5):
            expected += sign_trade(r.price, *quotes.get(r.timestamp.date(), (None, None))) * r.size
    days = build_bars(tick_table(stream), *SESSION)
    # sizes are multiples of 1/4, so every partial sum is exact
    assert sum(b.order_flow for bars in days.values() for b in bars) == expected


@settings(max_examples=50, deadline=None)
@given(tick_streams(), st.sampled_from([" ", "T"]))
def test_records_and_their_csv_give_identical_bars(stream, sep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ticks.csv"
        _write_records(path, stream, sep)
        table = read_ticks(path)
    built = tick_table(stream)
    for a, b in zip(table.columns()[:-1], built.columns()[:-1]):  # all but the line numbers
        np.testing.assert_array_equal(a, b)
    assert table.lineno.tolist() == list(range(2, len(stream) + 2))
    assert (repr(bars_oracle.by_day(build_bars(table, *SESSION)))
            == repr(bars_oracle.by_day(build_bars(built, *SESSION))))


# Whole rows that break one rule each, and valid rows that take a slower path.
ROW_VARIANTS = [
    "2024-05-06 09:00:01,T,nan,1,,,,",
    "2024-05-06 09:00:01,T,100.0,inf,,,,",
    "2024-05-06 09:00:01,Q,,,NaN,100.0,1,1",
    "2024-05-06 09:00:01,Q,,,99.0,100.0,-inf,1",
    "2024-05-06 09:00:01,T,100.0,1,-Infinity,,,",
    "2024-05-06T09:00:01+00:00,T,100.0,1,,,,",
    "2024-05-06 09:00:01,X,100.0,1,,,,",
    "2024-05-06 09:00:01,T,abc,1,,,,",
    "2024-05-06 09:00:01,T,100.0,1,,,",
    "2024-05-06 09:00:01,T,100.0,1,,,,,",
    " ",
    "2024-05-06 09:00:01,T,,1,,,,",
    "2024-05-06 09:00:01,T,100.0,0,,,,",
    "2024-05-06 09:00:01,Q,,,100.02,100.0,1,1",
    "2024-05-06 09:00:01,Q,,,100.0,,1,1",
    "2024-05-06 09:00:01,Q,,,100.0,100.02,-1,1",
    "not-a-time,T,100.0,1,,,,",
    '"2024-05-06 09:00:01","T","99.98","3",,,,',
    '2024-05-06 09:00:01,Q,,,"99,98",100.02,1,1',
    "2024-05-06 09:00:01,T,100.0,1,99.0,,,",
    "2024-05-06 09:00:01,Q,,,99.98,100.02,,",
    "2024-05-06 09:00:01,Q,1.5,,99.98,100.02,1,1",
    "2024-05-06 09:00:01.250000,T,100.0,1,,,,",
    "",
    # the edges of the byte kernel's plain layout, on each side
    "2024-02-29 09:00:01,T,100.0,1,,,,",
    "2023-02-29 09:00:01,T,100.0,1,,,,",
    "0000-05-06 09:00:01,T,100.0,1,,,,",
    "2024-05-06 09:00:59.5,T,100.0,1,,,,",
    "2024-05-06 09:00:01.1234567,T,100.0,1,,,,",
    "2024-05-06X09:00:01,T,100.0,1,,,,",
    "2024-05-06 09:00:01,T,.5,1,,,,",
    "2024-05-06 09:00:01,T,5.,1,,,,",
    "2024-05-06 09:00:01,T,+5,1,,,,",
    "2024-05-06 09:00:01,T,1e2,1,,,,",
    "2024-05-06 09:00:01,T,1234567890.123456,1,,,,",
    "2024-05-06 09:00:01,Q,,,-0,100.0,1,-0",
    "2024-05-06 09:00:01,T,10\u0660.5,1,,,,",
]


@settings(max_examples=200, deadline=None)
@given(tick_streams(),
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from(ROW_VARIANTS)), max_size=4),
       st.sampled_from(["\n", "\r\n"]), st.booleans(), st.sampled_from([16, 100, ingest._CHUNK_CHARS]))
def test_read_ticks_matches_the_row_reader(stream, variants, eol, zipped, chunk_chars):
    """Same records, or the same first ParseError with the same file and line,
    whatever the chunk size, line endings or compression."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ticks.csv"
        _write_records(path, stream)
        lines = path.read_text(encoding="utf-8").splitlines()
        for at, row in variants:
            lines.insert(1 + at % len(lines), row)
        data = eol.join(lines).encode() + eol.encode()
        path.write_bytes(gzip.compress(data) if zipped else data)
        try:
            expected = loop_read_ticks(path)
        except ParseError as exc:
            expected = exc
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            if isinstance(expected, ParseError):
                with pytest.raises(ParseError) as got:
                    read_ticks(path)
                assert str(got.value) == str(expected)
            else:
                assert list(read_ticks(path)) == expected


# The byte kernel against float and datetime.fromisoformat.  A cell or a
# timestamp goes into one plain row; where the kernel takes the row, its value
# must equal the row reader's bit for bit.

EPOCH = datetime(1970, 1, 1)
PLAIN_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?")
PLAIN_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{1,6})?")

digit_runs = st.text("0123456789", min_size=1, max_size=9)
fractions = st.one_of(st.just(""), st.just("."), digit_runs.map(".".__add__))
number_cells = st.one_of(
    st.builds(lambda sign, whole, frac: sign + whole + frac, st.sampled_from(["", "-", "+"]), digit_runs, fractions),
    st.builds(str.__add__, st.sampled_from(["", "-"]), st.lists(digit_runs, min_size=2, max_size=3).map(".".join)),
    st.text("0123456789.-+eE_ naif\u0660\u00b2", min_size=1, max_size=12),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0.0", "-0.000", "999999999999999", "9999999999999999", "0.000000000000001",
                     "123456789012.345", "1.7976931348623157", "4.9406564584124654"]),
)


def _stamp(y, mo, d, sep, h, mi, sec, frac):
    return f"{y:04d}-{mo:02d}-{d:02d}{sep}{h:02d}:{mi:02d}:{sec:02d}{frac}"


iso_stamps = st.datetimes(min_value=datetime(1, 1, 1)).map(lambda t: t.isoformat(sep=" "))
stamp_cells = st.one_of(
    st.builds(_stamp, st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.sampled_from(["T", " ", "X"]),
              st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
              st.one_of(fractions, st.text("0123456789", min_size=7, max_size=8).map(".".__add__))),
    iso_stamps,
    st.builds(lambda t, at, ch: t[:at % len(t)] + ch + t[at % len(t) + 1:],  # one byte changed
              iso_stamps, st.integers(0, 25), st.sampled_from("0-: T.X/+")),
    st.text("0123456789-: T.+", min_size=15, max_size=27),
)


def _kernel_row(row):
    """The kernel's table of one row, or None where it leaves the row to the row reader."""
    return ingest._plain_table(row, 2, "ticks.csv")


@settings(max_examples=500, deadline=None)
@given(number_cells)
@example("-0")
@example("-12.50")
@example("1.2.34")
@example("95.74890682883607")  # 16 digits: the integer would round before the division
def test_kernel_numbers_equal_float_bitwise(cell):
    table = _kernel_row(f"2024-05-06 09:00:01,T,1,1,{cell},,,")
    if table is None:
        assert not (PLAIN_NUMBER.fullmatch(cell) and sum(map(str.isdigit, cell)) <= 15)
        return
    value = float(cell)  # raises where the kernel took a cell float rejects
    assert math.isfinite(value)
    assert table.bid.tobytes() == np.float64(value).tobytes()  # the sign of zero included


@settings(max_examples=500, deadline=None)
@given(stamp_cells)
@example("2000-02-29 00:00:00")
@example("1900-02-29 00:00:00")
@example("2023-12-31T23:59:59.999999")
@example("0001-01-01 00:00:00.000001")
@example("9999-12-31 23:59:59.5")
@example("2024-05-06 09:00:60")
@example("2024-05-06 09:60:00")
@example("2024-05-06 24:00:00")
@example("2024-04-31 09:00:00")
@example("2024-13-01 09:00:00")
@example("2024-05-06 09:00-01")
def test_kernel_timestamps_equal_fromisoformat(stamp):
    table = _kernel_row(f"{stamp},T,1,1,,,,")
    try:
        parsed = datetime.fromisoformat(stamp)
    except ValueError:
        parsed = None
    if table is None:
        assert not (PLAIN_STAMP.fullmatch(stamp) and parsed is not None)
        return
    assert parsed is not None and parsed.tzinfo is None
    assert table.ts_us.tolist() == [(parsed - EPOCH) // timedelta(microseconds=1)]


def _bench_style_lines(n_rows):
    """Rows laid out as the benchmark's tick generator writes them: ISO T
    timestamps in whole seconds, two-decimal prices, integer sizes, empty
    cells for the other kind's fields."""
    rng = np.random.default_rng(5)
    lines = []
    for i in range(n_rows):
        second = 8 * 3600 + 55 * 60 + i // 2
        stamp = _stamp(2024, 5, 6 + i * 5 // n_rows, "T", second // 3600, second // 60 % 60, second % 60, "")
        mid = int(rng.integers(49_900, 50_100))
        if rng.random() < 0.5:
            lines.append(f"{stamp},Q,,,{(mid - 1) / 100:.2f},{(mid + 1) / 100:.2f},"
                         f"{rng.integers(1, 200)},{rng.integers(1, 200)}")
        else:
            lines.append(f"{stamp},T,{(mid + int(rng.integers(-1, 2))) / 100:.2f},{rng.integers(1, 10)},,,,")
    return lines


@pytest.mark.parametrize("zipped", [False, True])
def test_bench_style_ticks_never_reach_the_string_parser(tmp_path, zipped):
    text = "\n".join([",".join(TICK_HEADER), *_bench_style_lines(12_000)]) + "\n"
    path = tmp_path / ("ticks.csv.gz" if zipped else "ticks.csv")
    path.write_bytes(gzip.compress(text.encode()) if zipped else text.encode())
    with mock.patch.object(ingest, "_parse_lines", side_effect=AssertionError("string parser reached")):
        table = read_ticks(path)
    assert len(table) == 12_000 and table.lineno[-1] == 12_001
    assert list(table) == loop_read_ticks(path)


# ---------------------------------------------------------------------------
# tick rules: non-finite values, time zones, and the cells the reader accepts


@pytest.mark.parametrize("row, hint", [
    ("2024-05-06 09:00:05,T,nan,3.0,,,,", "price must be finite"),
    ("2024-05-06 09:00:05,T,inf,3.0,,,,", "price must be finite"),
    ("2024-05-06 09:00:05,T,100.0,-inf,,,,", "size must be finite"),
    ("2024-05-06 09:00:05,Q,,,nan,100.01,1.0,1.0", "bid must be finite"),
    ("2024-05-06 09:00:05,Q,,,99.99,100.01,1.0,NaN", "ask_size must be finite"),
    ("2024-05-06 09:00:05+00:00,T,100.0,3.0,,,,", "UTC offset"),
    ("2024-05-06T09:00:05-05:00,T,100.0,3.0,,,,", "UTC offset"),
])
def test_read_ticks_rejects_non_finite_and_offsets(tmp_path, row, hint):
    path = _write_tick_file(tmp_path, ["2024-05-06 09:00:00,Q,,,99.99,100.01,10.0,12.0", row])
    with pytest.raises(ParseError, match=rf"ticks\.csv:3: .*{hint}"):
        read_ticks(path)


def test_read_ticks_rejects_a_file_all_in_one_offset(tmp_path):
    path = _write_tick_file(tmp_path, [
        "2024-05-06 09:00:00+02:00,Q,,,99.99,100.01,10.0,12.0",
        "2024-05-06 09:00:05+02:00,T,100.01,3.0,,,,",
    ])
    with pytest.raises(ParseError, match=r"ticks\.csv:2: .*UTC offset"):
        read_ticks(path)


def test_read_ticks_accepts_quoted_cells_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_bytes(b"ts,kind,price,size,bid,ask,bid_size,ask_size\r\n"
                     b"\r\n"
                     b'2024-05-06 09:00:00,Q,,,"99.98",100.02,10.0,12.0\r\n'
                     b"\r\n"
                     b"2024-05-06 09:00:05,T,100.02,3.0,,,,\r\n"
                     b"2024-05-06 09:00:06,T,100.02,x,,,,\r\n")
    with pytest.raises(ParseError, match=r"ticks\.csv:6: bad number 'x'"):
        read_ticks(path)
    path.write_bytes(path.read_bytes().rsplit(b"\r\n", 2)[0] + b"\r\n")
    ticks = tick_rows(read_ticks(path))
    assert [t.lineno for t in ticks] == [3, 5]
    assert ticks[0].bid == 99.98 and ticks[1].price == 100.02


def test_out_of_order_error_names_file_and_line(tmp_path):
    path = _write_tick_file(tmp_path, [
        "2024-05-06 09:00:30,T,100.01,5.0,,,,",
        "2024-05-07 09:00:10,T,100.01,5.0,,,,",
        "2024-05-06 09:00:10,T,100.01,5.0,,,,",
    ])
    with pytest.raises(ParseError, match=r"ticks\.csv:4: timestamp 2024-05-06 09:00:10 precedes"):
        build_bars(read_ticks(path))


def test_table_iterates_and_indexes_as_records():
    records = [quote("2024-05-06 09:00:00", 99.99, 100.01, None, 4.0),
               trade("2024-05-06 09:00:10", 100.01, 2.0)]
    table = tick_table(records)
    assert len(table) == 2
    assert list(table) == records
    assert tick_rows(table)[-1] == records[1]
    with pytest.raises(IndexError):
        tick_rows(table)[2]


def test_build_bars_takes_only_a_tick_table():
    records = [trade("2024-05-06 09:00:10", 100.01, 2.0)]
    with pytest.raises(TypeError, match="TickTable that read_ticks makes, got list"):
        build_bars(records)


def test_read_ticks_of_a_header_only_file_is_an_empty_table_from_that_file(tmp_path):
    path = _write_tick_file(tmp_path, [])
    table = read_ticks(path)
    assert len(table) == 0 and table.source == str(path)
    assert [c.dtype for c in table.columns()] == [np.int64, bool] + [np.float64] * 6 + [np.int64]
    assert len(build_bars(table)) == 0


@settings(max_examples=50, deadline=None)
@given(tick_streams())
def test_bar_table_round_trips_built_bars(stream):
    built = build_bars(tick_table(stream), *SESSION)
    days = bars_oracle.by_day(built)
    table = bars_oracle.bar_table(days)
    assert table.days == built.days == tuple(days)  # days without trades included
    assert len(table) == len(built) == sum(map(len, days.values()))
    assert repr(bars_oracle.by_day(table)) == repr(days)
    flat = bars_oracle.rows(built)
    assert repr(bars_oracle.rows(bars_oracle.bar_table(flat))) == repr(flat)


def test_bar_table_indexes_as_bars_and_groups_dicts_by_key():
    bars = [MinuteBar("b", 1, 2.0, 100.0, math.nan, 3, 1, None, 4.0),
            MinuteBar("a", 0, -1.0, None, None),
            MinuteBar("b", 0, 0.5, 99.0, 1e-3)]
    table = bars_oracle.bar_table(bars)
    assert table.days == ("b", "a")
    assert table.day.tolist() == [0, 1, 0]
    assert len(table) == 3
    assert repr(bars_oracle.rows(table)[0]) == repr(bars[0])  # a NaN return stays NaN, a missing one None
    assert bars_oracle.rows(table)[-2] == bars[1]
    with pytest.raises(IndexError):
        bars_oracle.rows(table)[3]
    assert repr(list(table.values())) == repr([[bars[0], bars[2]], [bars[1]]])
    assert table.get("a") == [bars[1]]
    assert table.get("c") is None and table.get("c", []) == []
    assert bars_oracle.by_day(bars_oracle.bar_table({"e": [], "x": bars[1:]})) == {
        "e": [], "x": [MinuteBar("x", 0, -1.0, None, None), MinuteBar("x", 0, 0.5, 99.0, 1e-3)]}
    assert len(bars_oracle.bar_table({})) == 0


def test_bar_table_get_and_values_equal_by_day():
    ticks = [quote("2024-05-06 09:00:00", 99.99, 100.01), trade("2024-05-06 09:01:10", 100.01, 2.0),
             quote("2024-05-07 09:00:00", 99.98, 100.02),  # a day with no trade: listed, no bars
             trade("2024-05-08 09:00:30", 99.98, 1.0), trade("2024-05-08 09:03:00", 100.02, 4.0)]
    bars = build_bars(tick_table(ticks), *SESSION)
    by_day = bars_oracle.by_day(bars)
    assert bars.days == ("2024-05-06", "2024-05-07", "2024-05-08")
    assert repr(list(bars.values())) == repr(list(by_day.values()))
    for day in bars.days:
        assert repr(bars.get(day)) == repr(by_day[day])
    assert len(bars.get("2024-05-08")) == 5 and bars.get("2024-05-07") == []
    assert bars.get("2024-05-09") is None and bars.get("2024-05-09", []) == []


def _optional(values):
    return st.one_of(st.none(), values)


minute_bars = st.builds(
    MinuteBar, day=st.sampled_from(("a", "b", "c")), bar_index=st.integers(-2, 400),
    order_flow=st.floats(allow_nan=False), last_price=_optional(st.floats()),
    log_return=_optional(st.floats()), signed_count=st.integers(0, 10**6),
    unsigned_count=st.integers(0, 10**6), open_bid_size=_optional(st.floats()),
    open_ask_size=_optional(st.floats()))


@settings(max_examples=200, deadline=None)
@given(st.lists(minute_bars, max_size=30), st.booleans(), st.data())
def test_bar_table_take_equals_table_of_the_selected_bars(bars, by_mask, data):
    table = bars_oracle.bar_table(bars)
    if by_mask:
        mask = data.draw(st.lists(st.booleans(), min_size=len(bars), max_size=len(bars)))
        rows = np.array(mask, dtype=bool)
        picked = [b for b, keep in zip(bars, mask) if keep]
    else:
        index = data.draw(st.lists(st.integers(0, len(bars) - 1), max_size=40)) if bars else []
        rows = np.array(index, dtype=np.int64)
        picked = [bars[i] for i in index]
    got = table.take(rows)
    assert got.days == table.days
    assert len(got) == len(picked)
    want = bars_oracle.rows(bars_oracle.bar_table(picked))
    assert [repr(b) for b in bars_oracle.rows(got)] == [repr(b) for b in want]


# ---------------------------------------------------------------------------
# bar and panel readers name the file and line of a bad cell


BAR_CASES = [
    ("2024-01-02,x,1.0,100.0,,,", "bad integer 'x'"),
    ("2024-01-02,0,abc,100.0,,,", "bad number 'abc'"),
    ("2024-01-02,0,,100.0,,,", "bad number ''"),
    ("2024-01-02,0,1.0,1o0,,,", "bad number '1o0'"),
    ("2024-01-02,9223372036854775808,1.0,100.0,,,", "integer out of range '9223372036854775808'"),
    ("2024-01-02,00,5.0,99.0,,,", "repeated bar 2024-01-02 0"),
]
PANEL_CASES = [
    ("0,0,abc,", "bad number 'abc'"),
    ("0,x,1.0,", "bad integer 'x'"),
    ("0,1,1.0,zz", "bad number 'zz'"),
    ("0,1,1.0", "expected 4 fields"),
    ("0,-9223372036854775809,1.0,", "integer out of range '-9223372036854775809'"),
    ("0,0,2.0,1e-3", "repeated bar 0 0"),
]
UNRECOGNIZED = (f"unrecognized header 'day,bar,flow,r'; expected {','.join(BAR_HEADER)} "
                f"or {','.join(PANEL_HEADER)}")


@pytest.mark.parametrize("header, good_row, row, line, hint", [
    *((BAR_HEADER, "2024-01-02,0,1.0,100.0,,,", row, 3, hint) for row, hint in BAR_CASES),
    *((PANEL_HEADER, "0,0,1.0,", row, 3, hint) for row, hint in PANEL_CASES),
    (["day", "bar", "flow", "r"], "0,0,1.0,", "0,1,1.0,", 1, UNRECOGNIZED),
], ids=[f"{row}-{hint}" for row, hint in BAR_CASES + PANEL_CASES] + ["unrecognized-header"])
def test_read_bars_csv_bad_cell_location(tmp_path, header, good_row, row, line, hint):
    path = tmp_path / "es.bars.csv"
    path.write_text(",".join(header) + "\n" + good_row + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: {hint}")):
        read_bars_csv(path)


def test_read_bars_csv_bare_carriage_return_in_header(tmp_path):
    # A lone \r ends a line for the csv module, so the header is read up to it.
    path = tmp_path / "es.bars.csv"
    path.write_bytes(b"day,bar,x\r,r\n0,0,1.0,\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: unrecognized header 'day,bar,x'")):
        read_bars_csv(path)


@pytest.mark.parametrize("header", [BAR_HEADER, PANEL_HEADER], ids=["bars", "panel"])
def test_read_bars_csv_header_only_is_empty(tmp_path, header):
    path = tmp_path / "es.bars.csv"
    path.write_text(",".join(header) + "\n", encoding="utf-8")
    table = read_bars_csv(path)
    assert table.days == () and len(table) == 0 and bars_oracle.rows(table) == []


# Cells the per-row readers parse alike: empty (missing), finite, signed
# infinities and nan.  An order flow cell may not be empty.
NUMBER_CELL = st.sampled_from(["", "1.5", "-2", "0", "1e-300", "inf", "-inf", "nan", "100.25"])
FLOW_CELL = st.sampled_from(["1.5", "-2", "0", "5.0", "inf", "nan"])
BAD_CELL = st.sampled_from(["abc", "1o0", " ", "1.0.0", ""])


@st.composite
def bar_file(draw):
    """The text of a bar or panel CSV: interleaved days, CRLF or LF line
    endings, blank lines, and in some files one or two bad cells or short rows."""
    header = draw(st.sampled_from([BAR_HEADER, PANEL_HEADER]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [[draw(st.sampled_from(["2024-01-02", "2024-01-03", "0", "d"])), str(draw(st.integers(0, 500))),
             draw(FLOW_CELL), *(draw(NUMBER_CELL) for _ in header[3:])]
            for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.pop()
        else:
            row[draw(st.integers(1, len(row) - 1))] = draw(BAD_CELL)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return header, eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=300, deadline=None)
@given(bar_file())
def test_read_bars_csv_matches_per_row_readers(spec):
    header, text = spec
    oracle = bars_oracle.read_bars_csv if header == BAR_HEADER else bars_oracle.read_panel_csv
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "es.bars.csv")
        path.write_bytes(text.encode("utf-8"))
        try:
            want = bars_oracle.bar_table(oracle(path))
        except ParseError as exc:
            with pytest.raises(ParseError) as got_exc:
                read_bars_csv(path)
            assert str(got_exc.value) == str(exc)
            return
        got = read_bars_csv(path)
    assert got.days == want.days
    assert repr(bars_oracle.by_day(got)) == repr(bars_oracle.by_day(want))
    # Rows keep file order; the bar oracle groups them by day, the panel one does not.
    labels = [line.split(",")[0] for line in text.splitlines()[1:] if line]
    assert [b.day for b in bars_oracle.rows(got)] == labels
    if header == PANEL_HEADER:
        assert [repr(b) for b in bars_oracle.rows(got)] == [repr(b) for b in bars_oracle.rows(want)]
