"""Seeded tick files generated from the coupled price/flow model.

Each session bar k gets an integer order flow X_k from a rounded OU process
and a model price P_k = S_k * exp(f(X_k)), with S a driftless log-normal walk
and f the S-shape curve.  The bar is then expanded into quotes and trades that
are signed by construction: buys print at the ask, sells at the bid, and some
trades print exactly at the integer midpoint of a two-tick spread and stay
unsigned.  The generator therefore knows every bar's flow and its signed and
unsigned trade counts exactly, which is what the benchmark checks the ingest
output against.

Edge cases are placed on purpose:

* every bar opens with a quote at a new midpoint stamped in the same second
  as the bar's first trade and written just before it, so only the file-order
  tie rule signs that trade against the right quote;
* that quote may fall exactly on the bar-open second;
* quotes and trades arrive before the session opens and at or after it closes.

The curve is evaluated here in closed form rather than through liqimpact, so
the inputs do not change when the library's numerics do.
"""

from __future__ import annotations

import functools
import gzip
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
from scipy.special import ndtr

TICK_HEADER = "ts,kind,price,size,bid,ask,bid_size,ask_size"
SESSION_START_S = 9 * 3600
BAR_SECONDS = 60
BARS_PER_DAY = 360  # 09:00-15:00, the CLI's default session
FIRST_DAY = date(2024, 5, 6)

# Curve and flow dynamics: the S-shape of the acceptance suite, and a flow
# whose spread reaches well past the curve's inflection at -p/q ~ 42.
ELL, P, Q = 1.3e-5, -0.0034, 8.15e-5
FLOW_C, FLOW_M, FLOW_ETA = 0.1, 3.0, 30.0
PRICE0 = 500.0
BAR_VOL = 2e-4
TICKS_PER_UNIT = 100  # tick size 0.01, the CLI default


def f_sshape(x: np.ndarray) -> np.ndarray:
    """log(1 + ell * Phi(x)) through the normal-CDF form of Phi."""
    rq = math.sqrt(Q)
    b = P / rq
    scale = math.sqrt(2.0 * math.pi / Q) * math.exp(0.5 * b * b)
    return np.log1p(ELL * scale * (ndtr(rq * x + b) - ndtr(b)))


@dataclass
class DayTruth:
    day: str
    flow: np.ndarray      # (bars,) int64
    signed: np.ndarray    # (bars,) int64
    unsigned: np.ndarray  # (bars,) int64
    out_of_session_trades: int


@dataclass
class TickFile:
    data: bytes           # gzip bytes of the CSV
    rows: int             # data rows, header excluded
    days: list[DayTruth]

    @property
    def in_session_trades(self) -> int:
        return int(sum(int(d.signed.sum() + d.unsigned.sum()) for d in self.days))

    @property
    def out_of_session_trades(self) -> int:
        return sum(d.out_of_session_trades for d in self.days)


def generate(seed: int, n_days: int, trades_per_bar: float) -> TickFile:
    """A gzip tick file of ``n_days`` sessions and the truth behind every bar."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = [TICK_HEADER]
    days: list[DayTruth] = []
    log_s = math.log(PRICE0)
    for d in range(n_days):
        day = (FIRST_DAY + timedelta(days=d + 2 * (d // 5))).isoformat()
        truth, log_s = _day(rng, day, log_s, trades_per_bar, lines)
        days.append(truth)
    text = "\n".join(lines) + "\n"
    return TickFile(gzip.compress(text.encode("ascii"), compresslevel=6, mtime=0),
                    len(lines) - 1, days)


def _day(rng: np.random.Generator, day: str, log_s: float, trades_per_bar: float,
         lines: list[str]) -> tuple[DayTruth, float]:
    n = BARS_PER_DAY
    decay = math.exp(-FLOW_C)
    shock_sd = FLOW_ETA * math.sqrt((1.0 - decay * decay) / (2.0 * FLOW_C))
    dev = np.empty(n)
    dev[0] = FLOW_ETA / math.sqrt(2.0 * FLOW_C) * rng.standard_normal()
    shocks = shock_sd * rng.standard_normal(n - 1)
    for k in range(1, n):
        dev[k] = decay * dev[k - 1] + shocks[k - 1]
    flow = np.rint(FLOW_M + dev).astype(np.int64)
    log_s_path = log_s + np.cumsum(BAR_VOL * rng.standard_normal(n))
    mids = np.rint(np.exp(log_s_path + f_sshape(flow.astype(float))) * TICKS_PER_UNIT).astype(np.int64)

    # Trades: random buy/sell/mid kinds and sizes, then one balancing trade in
    # every bar whose net signed size misses the bar's flow.
    n_trades = 1 + rng.poisson(trades_per_bar, size=n)
    t_bar = np.repeat(np.arange(n), n_trades)
    t_kind = rng.choice(3, size=t_bar.size, p=[0.45, 0.45, 0.10])  # 0 buy, 1 sell, 2 mid
    t_size = 1 + rng.poisson(3.0, size=t_bar.size)
    net = np.bincount(t_bar, weights=np.where(t_kind == 0, t_size, np.where(t_kind == 1, -t_size, 0)),
                      minlength=n).astype(np.int64)
    gap = flow - net
    fix = np.flatnonzero(gap)
    t_bar = np.concatenate([t_bar, fix])
    t_kind = np.concatenate([t_kind, np.where(gap[fix] > 0, 0, 1)])
    t_size = np.concatenate([t_size, np.abs(gap[fix])])
    signed = np.bincount(t_bar, weights=t_kind < 2, minlength=n).astype(np.int64)
    unsigned = np.bincount(t_bar, weights=t_kind == 2, minlength=n).astype(np.int64)

    # Shuffle kinds within each bar, then give the trades sorted seconds in
    # [first, 60) with the first one exactly at the bar's opening-quote second.
    order = np.lexsort((rng.random(t_bar.size), t_bar))
    t_bar, t_kind, t_size = t_bar[order], t_kind[order], t_size[order]
    first = rng.integers(0, 10, size=n)
    t_sec = first[t_bar] + np.floor(rng.random(t_bar.size) * (BAR_SECONDS - first[t_bar])).astype(np.int64)
    t_sec = t_sec[np.lexsort((t_sec, t_bar))]
    t_sec[np.searchsorted(t_bar, np.arange(n))] = first
    t_price = mids[t_bar] + np.array([1, -1, 0])[t_kind]

    # Quotes: the opening quote at the new midpoint, then size-only updates.
    n_upd = rng.poisson(trades_per_bar, size=n)
    q_bar = np.concatenate([np.arange(n), np.repeat(np.arange(n), n_upd)])
    upd_first = first[q_bar[n:]]
    q_sec = np.concatenate([first, upd_first + np.floor(rng.random(upd_first.size)
                                                        * (BAR_SECONDS - upd_first)).astype(np.int64)])
    q_type = np.concatenate([np.zeros(n, dtype=np.int64), np.full(q_bar.size - n, 2)])
    q_sizes = rng.integers(1, 200, size=(q_bar.size, 2))

    # One stream, ordered by (second, opening quote < trade < size update); the
    # sort is stable, so trades keep their shuffled order within a second.
    open_s = SESSION_START_S
    stamp = np.concatenate([open_s + q_bar * BAR_SECONDS + q_sec, open_s + t_bar * BAR_SECONDS + t_sec])
    etype = np.concatenate([q_type, np.ones(t_bar.size, dtype=np.int64)])
    ev = np.lexsort((etype, stamp))
    nq = q_bar.size
    q_mid = mids[q_bar]

    clock = {}

    def ts(second: int) -> str:
        s = clock.get(second)
        if s is None:
            s = clock[second] = f"{day}T{second // 3600:02d}:{second // 60 % 60:02d}:{second % 60:02d}"
        return s

    def quote(second: int, mid: int, bs: int, as_: int) -> str:
        return f"{ts(second)},Q,,,{_price(mid - 1)},{_price(mid + 1)},{bs},{as_}"

    def trade(second: int, price: int, size: int) -> str:
        return f"{ts(second)},T,{_price(price)},{size},,,,"

    # Pre-open quotes set the state the first bar opens on; trades there are dropped.
    n_out = 0
    for second in np.sort(rng.integers(open_s - 300, open_s, size=6)).tolist():
        bs, as_ = rng.integers(1, 200, size=2).tolist()
        lines.append(quote(second, int(mids[0]), bs, as_))
        lines.append(trade(second, int(mids[0]) + 1, int(rng.integers(1, 10))))
        n_out += 1

    stamp_l, q_mid_l, q_sz = stamp.tolist(), q_mid.tolist(), q_sizes.tolist()
    tp, tsz = t_price.tolist(), t_size.tolist()
    for i in ev.tolist():
        if i < nq:
            lines.append(quote(stamp_l[i], q_mid_l[i], *q_sz[i]))
        else:
            lines.append(trade(stamp_l[i], tp[i - nq], tsz[i - nq]))

    # A trade exactly at the close is out of session, like the later ones.
    close_s = open_s + n * BAR_SECONDS
    last = int(mids[-1])
    for second in [close_s] + np.sort(rng.integers(close_s + 1, close_s + 300, size=5)).tolist():
        bs, as_ = rng.integers(1, 200, size=2).tolist()
        lines.append(quote(second, last, bs, as_))
        lines.append(trade(second, last - 1, int(rng.integers(1, 10))))
        n_out += 1
    return DayTruth(day, flow, signed, unsigned, n_out), float(log_s_path[-1])


@functools.lru_cache(maxsize=None)
def _price(ticks: int) -> str:
    return f"{ticks // TICKS_PER_UNIT}.{ticks % TICKS_PER_UNIT:02d}"
