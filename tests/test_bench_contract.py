"""What the trace hooks of ``bench/liqbench/workloads.py:install`` read from the library.

``install`` wraps library functions by name, and its hooks read their
arguments and results.  A refactor that reshapes one of these breaks traced
benchmark runs without failing any other test, so the shapes are pinned here.
"""

from datetime import datetime

from liqimpact.estimation import RegressionPanel
from liqimpact.impact import SShapeParams
from liqimpact.ingest import TickRecord, build_bars
from liqimpact.sde import OUParams, synth_regression_panel


def _panel():
    return synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                  flow=OUParams(c=0.1, m=5.0, eta=100.0), n_days=3,
                                  bars_per_day=20, noise_sd=5e-4, seed=2)


def test_synthetic_panel_length_is_its_bar_count():
    # _panel_made: {"bars": len(result.bars)}
    assert len(_panel().bars) == 3 * 20


def test_from_synthetic_dispatches_through_from_bars(monkeypatch):
    # estimation.from_bars is a span every traced recovery run must show.
    original = RegressionPanel.from_bars.__func__
    seen = []

    def spy(cls, bars):
        seen.append(bars)
        return original(cls, bars)

    monkeypatch.setattr(RegressionPanel, "from_bars", classmethod(spy))
    panel = _panel()
    reg = RegressionPanel.from_synthetic(panel)
    assert len(seen) == 1 and seen[0] is panel.bars
    assert reg.n == 3 * 19


def test_build_bars_values_carry_signed_counts():
    # _bars_built: [b for day in result.values() for b in day], summing signed_count and unsigned_count.
    def at(s):
        return datetime.fromisoformat(f"2024-05-06 {s}")

    ticks = [TickRecord(at("09:00:01"), "Q", bid=99.99, ask=100.01, bid_size=5.0, ask_size=7.0),
             TickRecord(at("09:00:02"), "T", price=100.01, size=3.0),
             TickRecord(at("09:00:03"), "T", price=100.00, size=1.0),
             TickRecord(at("09:01:04"), "T", price=99.99, size=2.0)]
    result = build_bars(ticks, "09:00", "09:05")
    bars = [b for day in result.values() for b in day]
    assert len(bars) == 5
    assert sum(b.signed_count for b in bars) == 2
    assert sum(b.unsigned_count for b in bars) == 1
