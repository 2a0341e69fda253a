"""What the trace hooks of ``bench/liqbench/workloads.py:install`` read from the library.

``install`` wraps library functions by name, and its hooks read their
arguments and results; the tick pipeline's checks read ``build_bars``' result
too.  A refactor that reshapes one of these breaks benchmark runs without
failing any other test, so the shapes are pinned here.
"""

import dataclasses
import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from ingest_oracle import tick_table
from liqimpact import cli, estimation, sde
from liqimpact.estimation import RegressionPanel
from liqimpact.impact import SShapeParams, StructuralParams
from liqimpact.ingest import TickRecord, build_bars, write_bars_csv
from liqimpact.sde import OUParams, SimConfig, synth_regression_panel

DATA = Path(__file__).parent / "data"


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
    # _bars_built: [b for day in result.values() for b in day], summing signed_count and unsigned_count;
    # _check_bars: days.get(d.day, []) per generated day, then days.values() again.
    def at(day, s):
        return datetime.fromisoformat(f"2024-05-{day} {s}")

    ticks = [TickRecord(at("06", "09:00:01"), "Q", bid=99.99, ask=100.01, bid_size=5.0, ask_size=7.0),
             TickRecord(at("06", "09:00:02"), "T", price=100.01, size=3.0),
             TickRecord(at("06", "09:00:03"), "T", price=100.00, size=1.0),
             TickRecord(at("06", "09:01:04"), "T", price=99.99, size=2.0),
             TickRecord(at("07", "16:00:00"), "T", price=100.01, size=4.0)]  # after the close: an empty day
    result = build_bars(tick_table(ticks), "09:00", "09:05")
    bars = [b for day in result.values() for b in day]
    assert len(bars) == 5
    assert sum(b.signed_count for b in bars) == 2
    assert sum(b.unsigned_count for b in bars) == 1
    assert [b.signed_count for b in result.get("2024-05-06", [])] == [1, 1, 0, 0, 0]
    assert [b.unsigned_count for b in result.get("2024-05-06", [])] == [1, 0, 0, 0, 0]
    assert result.get("2024-05-07", []) == []
    assert result.get("2024-05-08", []) == []


def _spy(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records (args, kwargs, result) per call."""
    original = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_ingest_reads_ticks_through_cli_into_a_sized_iterable_of_kinds(monkeypatch, tmp_path, capsys):
    # _ticks_read: len(result) and sum(1 for r in result if r.kind == "T").
    calls = _spy(monkeypatch, cli, "read_ticks")
    assert cli.main(["ingest", str(DATA / "golden_ticks.csv"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    (_, _, result), = calls
    kinds = [r.kind for r in result]
    assert len(result) == len(kinds) > 0
    assert 0 < kinds.count("T") < len(kinds)


def _grid_config(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"grid": [[-3e-3, 8e-5]]}), encoding="utf-8")
    return path


@pytest.fixture
def sized_bars_csv(tmp_path):
    """The synthetic panel's bars with open quote sizes, as a bar CSV."""
    bars = _panel().bars
    bars = dataclasses.replace(bars, open_bid_size=10.0 + bars.bar_index, open_ask_size=np.full(len(bars), 20.0))
    path = tmp_path / "es.bars.csv"
    write_bars_csv(bars, path)
    return path


def test_fit_passes_panels_first_to_fit_sshape_and_builds_them_with_from_bars(
        monkeypatch, tmp_path, capsys, sized_bars_csv):
    # _fitted: args[0].n, result.starts_tried, result.converged and result.ses.values().
    # estimation.from_bars is a required span of the traced tick pipeline.
    fitted = _spy(monkeypatch, cli, "fit_sshape")
    original = RegressionPanel.from_bars.__func__
    built = []

    def from_bars(cls, bars):
        built.append(original(cls, bars))
        return built[-1]

    monkeypatch.setattr(RegressionPanel, "from_bars", classmethod(from_bars))
    assert cli.main(["fit", str(sized_bars_csv), "--pooled", "--model", "sshape",
                     "--out-dir", str(tmp_path / "fits"), "--config", str(_grid_config(tmp_path))]) == 0
    capsys.readouterr()
    assert [panel.n for panel in built] == [19, 19, 19, 57]
    assert [args[0].n for args, _, _ in fitted] == [19, 19, 19, 57]
    for _, _, result in fitted:
        assert isinstance(result.starts_tried, int) and isinstance(result.converged, bool)
        assert all(isinstance(v, float) for v in result.ses.values())


def test_compare_reads_bars_through_cli_and_reports_quote_sizes(monkeypatch, tmp_path, capsys, sized_bars_csv):
    # ingest.read_bars_csv is a required span, wrapped at cli's name, and both
    # fit and compare read their bar files through it;
    # _depth: result.bid_size is None or result.ask_size is None.
    read = _spy(monkeypatch, cli, "read_bars_csv")
    assert cli.main(["fit", str(sized_bars_csv), "--model", "sshape", "--out-dir", str(tmp_path / "fits"),
                     "--config", str(_grid_config(tmp_path))]) == 0
    depth = _spy(monkeypatch, cli, "depth_report")
    assert cli.main(["compare", "--fits", str(tmp_path / "fits" / "es.bars.fits.csv"),
                     "--bars", str(sized_bars_csv), "--out-dir", str(tmp_path / "reports")]) == 0
    capsys.readouterr()
    assert [args for args, _, _ in read] == [(sized_bars_csv,), (sized_bars_csv,)]
    (_, _, result), = depth
    assert result.bid_size.n == result.ask_size.n == 60
    assert result.bid_size.mean == 10.0 + 9.5 and result.ask_size.mean == 20.0


def test_simulate_passes_the_config_first_with_its_step_count(monkeypatch, tmp_path, capsys):
    # _steps: args[0].n_steps, so simulate_path takes its SimConfig first.
    calls = _spy(monkeypatch, cli, "simulate_path")
    config = {"structural": {"mu_s": 0.05, "sigma_s": 0.2, "rho": 0.3, "c": 0.2, "m": 3.0, "eta": 80.0,
                             "delta": 0.0, "tau": 0.0, "r": 0.03, "kappa0": 0.0},
              "impact": {"family": "sshape", "ell": 1.3e-5, "p": -0.0034, "q": 8.15e-5},
              "n_steps": 7, "seed": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    (args, _, _), = calls
    assert args[0].n_steps == 7


def test_fit_sshape_looks_up_big_phi_phi_and_feasibility_margin_through_estimation(monkeypatch):
    # impact.big_phi and impact.phi (_points: np.size(args[0])) and impact.feasibility_margin are
    # required spans of every traced fit, wrapped at estimation's names.
    panel = RegressionPanel.from_synthetic(_panel())
    calls = {name: _spy(monkeypatch, estimation, name) for name in ("big_phi", "phi", "feasibility_margin")}
    for grid in ([(-3e-3, 8e-5)], None):
        before = {name: len(seen) for name, seen in calls.items()}
        estimation.fit_sshape(panel, grid)
        assert all(len(seen) > before[name] for name, seen in calls.items()), before
    assert all(np.size(args[0]) > 0 for name in ("big_phi", "phi") for args, _, _ in calls[name])


def test_simulation_looks_up_f_g_and_feasibility_margin_through_sde(monkeypatch):
    # impact.f_sshape, impact.g_sshape (risk-neutral paths) and impact.feasibility_margin are
    # required spans of traced simulation runs, wrapped at sde's names: synth_regression_panel
    # checks the curve and evaluates f, a SimConfig checks the curve, and a path evaluates f and g.
    calls = {name: _spy(monkeypatch, sde, name) for name in ("f_sshape", "g_sshape", "feasibility_margin")}
    _panel()
    assert len(calls["f_sshape"]) > 0 and len(calls["feasibility_margin"]) > 0
    structural = StructuralParams(mu_s=0.05, sigma_s=0.2, rho=0.3, c=0.2, m=3.0, eta=80.0,
                                  delta=0.0, tau=0.0, r=0.03, kappa0=0.0)
    for n_steps in (1, 7):
        before = {name: len(seen) for name, seen in calls.items()}
        config = SimConfig(structural=structural, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5), n_steps=n_steps,
                           dt=1.0 / 252.0, x0=5.0, s0=100.0, seed=1, measure="risk-neutral")
        sde.simulate_path(config)
        assert all(len(seen) > before[name] for name, seen in calls.items()), (n_steps, before)
