"""From raw ticks to signed order flow bars.

Writes a small trade-and-quote stream as tick CSV text to a temporary file,
reads it back with read_ticks (plain or gzip files alike), classifies each
trade against the prevailing quote midpoint, aggregates everything into
one-minute bars, and prints the flow descriptives.
"""

import tempfile
from datetime import datetime, timedelta
from pathlib import Path

from liqimpact import build_bars, flow_descriptives, read_ticks, sign_trade
from liqimpact.ingest import TICK_HEADER

base = datetime(2024, 5, 7, 9, 0, 0)


def stamp(sec):
    return (base + timedelta(seconds=sec)).isoformat(sep=" ")


def quote(sec, bid, ask, bid_size=50.0, ask_size=40.0):
    return f"{stamp(sec)},Q,,,{bid},{ask},{bid_size},{ask_size}"


def trade(sec, price, size):
    return f"{stamp(sec)},T,{price},{size},,,,"


rows = [
    quote(5, 99.98, 100.02),
    trade(20, 100.02, 5.0),    # at the ask: buyer-initiated
    trade(40, 99.98, 3.0),     # at the bid: seller-initiated
    quote(70, 99.99, 100.03),
    trade(80, 100.01, 4.0),    # exactly at the midpoint: unsigned
    trade(110, 100.03, 7.0),   # above the midpoint: buyer-initiated
    quote(130, 100.00, 100.04),
    trade(150, 100.00, 6.0),   # below the new midpoint: seller-initiated
    trade(170, 100.05, 2.0),
]

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ticks.csv"
    path.write_text("\n".join([",".join(TICK_HEADER), *rows]) + "\n", encoding="utf-8")
    ticks = read_ticks(path)

print("trade classification against the prevailing quote:")
bid = ask = None
for t in ticks:
    if t.kind == "Q":
        bid, ask = t.bid, t.ask
        print(f"  {t.timestamp:%H:%M:%S}  quote {bid:.2f} / {ask:.2f}")
    else:
        sign = sign_trade(t.price, bid, ask)
        label = {1: "buy ", -1: "sell", 0: "none"}[sign]
        print(f"  {t.timestamp:%H:%M:%S}  trade {t.price:.2f} x {t.size:.0f}  -> {label}"
              f"  (signed size {sign * t.size:+.0f})")
print()

bars = build_bars(ticks, session_start="09:00", session_end="09:05",
                  bar_seconds=60, tick_size=0.01)
for day in bars.days:
    print(f"bars for {day}:")
    print(f"{'bar':>4} {'flow':>6} {'last':>8} {'log ret':>10} {'bid sz':>7} {'ask sz':>7}")
    for b in bars.get(day):
        ret = "" if b.log_return is None else f"{b.log_return:.6f}"
        bs = "" if b.open_bid_size is None else f"{b.open_bid_size:.0f}"
        asz = "" if b.open_ask_size is None else f"{b.open_ask_size:.0f}"
        print(f"{b.bar_index:>4} {b.order_flow:>6.0f} {b.last_price:>8.2f} {ret:>10} "
              f"{bs:>7} {asz:>7}")
print()

desc = flow_descriptives(bars)
print("flow descriptives:")
print(f"  per-bar flow mean {desc.mean_flow:.2f}, sd {desc.sd_flow:.2f}")
print(f"  daily positive flow {desc.daily_positive}")
print(f"  daily negative flow {desc.daily_negative}")
print(f"  unsigned trade share {desc.unsigned_pct:.1f}%")
