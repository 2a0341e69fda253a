"""Tests for panel assembly, curve fitting, and the flow-process estimator."""

import dataclasses
import importlib.util
import inspect
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.signal import lfilter

import bars_oracle
import estimation_oracle
from heavy_tail import heavy_tail_panel
from liqimpact import estimation
from liqimpact.cli import main
from liqimpact.estimation import (
    EstimationError,
    FitResult,
    RegressionPanel,
    default_start_grid,
    estimate_ou,
    fit_ols,
    fit_result_to_dict,
    fit_sshape,
    read_daily_fits_csv,
    write_daily_fits_csv,
)
from liqimpact.impact import (
    LinearParams,
    SShapeParams,
    curve_from_dict,
    f_linear,
    f_sqrt,
    f_sshape,
    feasibility_margin,
)
from liqimpact.ingest import (
    MinuteBar, ParseError, build_bars, read_bars_csv, read_ticks, write_bars_csv, write_panel_csv,
)
from liqimpact.sde import OUParams, synth_regression_panel

ROOT = Path(__file__).resolve().parent.parent
TRUTH = dict(a=1e-6, ell=1e-5, p=-3e-3, q=8e-5)
FLOW = OUParams(c=0.1, m=5.0, eta=100.0)


def make_panel(n_days=5, bars_per_day=100, noise_sd=0.0, seed=0, impact=None, a=None):
    imp = impact if impact is not None else SShapeParams(TRUTH["ell"], TRUTH["p"], TRUTH["q"])
    return RegressionPanel.from_synthetic(
        synth_regression_panel(a=TRUTH["a"] if a is None else a, impact=imp, flow=FLOW,
                               n_days=n_days, bars_per_day=bars_per_day,
                               noise_sd=noise_sd, seed=seed)
    )


def scale_grid(panel):
    """Nine-point start grid from the flow scale, much cheaper than the default."""
    s = float(np.std(panel.x, ddof=1))
    return [(-1e-2 / s * k, 1e-2 / s ** 2 * 10.0 ** j)
            for k in (-2, 0, 2) for j in (-1, 0, 1)]


# ---------------------------------------------------------------------------
# panel assembly


def _bars(day, pairs):
    out = []
    for idx, r in pairs:
        out.append(MinuteBar(day=day, bar_index=idx, order_flow=float(idx * 2 + 1),
                             last_price=100.0, log_return=r))
    return out


def test_from_bars_pairs_consecutive_indices_only():
    rows = _bars("d", [(i, None if i == 0 else 1e-4 * i) for i in range(10)])
    rows += _bars("d", [(14, 9e-4), (15, 7e-4), (16, 6e-4)])  # gap at 10..13
    panel = RegressionPanel.from_bars(bars_oracle.bar_table({"d": rows}))
    # 9 pairs inside 0..9 plus 2 pairs inside 14..16; the gap pair (9, 14)
    # and the day-open bar contribute nothing.
    assert panel.n == 11
    assert panel.x[0] == 3.0 and panel.x_prev[0] == 1.0
    assert panel.r[-1] == 6e-4


def test_from_bars_does_not_pair_across_days():
    d1 = _bars("d1", [(i, None if i == 0 else 1e-4) for i in range(7)])
    d2 = _bars("d2", [(i, None if i == 0 else 2e-4) for i in range(7)])
    panel = RegressionPanel.from_bars(bars_oracle.bar_table({"d1": d1, "d2": d2}))
    assert panel.n == 12
    assert set(panel.r.tolist()) == {1e-4, 2e-4}


DAYS = ("d0", "d1", "d2")


@st.composite
def bar_inputs(draw):
    """Bars in runs of consecutive indices, shuffled, with duplicates, gaps and
    missing or non-finite returns and flows; as a flat list or a dict by key."""
    value = st.floats(-1e3, 1e3)
    if draw(st.integers(0, 3)) == 0:
        value = st.one_of(*[value] * 20, st.sampled_from((math.nan, math.inf, -math.inf)))
    ret = st.one_of(st.none(), value, value, value)
    bars = []
    for _ in range(draw(st.integers(0, 4))):
        day = draw(st.sampled_from(DAYS))
        start = draw(st.integers(-3, 10))
        for k in range(start, start + draw(st.integers(1, 25))):
            bars.append(MinuteBar(day=day, bar_index=k, order_flow=draw(value), last_price=None,
                                  log_return=draw(ret)))
    bars.extend(draw(st.lists(st.builds(
        MinuteBar, day=st.sampled_from(DAYS), bar_index=st.integers(-3, 12), order_flow=value,
        last_price=st.none(), log_return=ret), max_size=6)))
    bars = draw(st.permutations(bars)) if draw(st.booleans()) else bars
    if not draw(st.booleans()):
        return bars
    # Dicts group by key, which need not match b.day, and may hold empty days.
    keys = draw(st.lists(st.sampled_from(DAYS + ("e",)), min_size=1, max_size=4, unique=True))
    out = {key: [] for key in keys}
    for b in bars:
        out[draw(st.sampled_from(keys))].append(b)
    return out


@settings(max_examples=300, deadline=None)
@given(bar_inputs())
def test_from_bars_matches_pair_loop_oracle(bars):
    try:
        want = bars_oracle.from_bars(bars)
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=re.escape(str(exc))):
            RegressionPanel.from_bars(bars_oracle.bar_table(bars))
        return
    got = RegressionPanel.from_bars(bars_oracle.bar_table(bars))
    for name in ("r", "x", "x_prev"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_from_bars_nan_return_is_non_finite_not_missing():
    rows = _bars("d", [(i, None if i == 0 else 1e-4) for i in range(12)])
    rows[5] = MinuteBar(day="d", bar_index=5, order_flow=1.0, last_price=100.0, log_return=math.nan)
    for bars in (rows, {"d": rows}):
        with pytest.raises(EstimationError, match="non-finite"):
            RegressionPanel.from_bars(bars_oracle.bar_table(bars))
    rows[5] = dataclasses.replace(rows[5], log_return=None)
    assert RegressionPanel.from_bars(bars_oracle.bar_table(rows)).n == 10


def test_from_csv_sniffs_bar_and_panel_layouts(tmp_path, capsys):
    synth = synth_regression_panel(a=1e-6, impact=SShapeParams(1e-5, -3e-3, 8e-5),
                                   flow=FLOW, n_days=2, bars_per_day=30, seed=5)
    p_bar = tmp_path / "bars.csv"
    write_bars_csv(synth.bars, p_bar)
    p_panel = tmp_path / "panel.csv"
    write_panel_csv(synth.bars, p_panel)
    a = RegressionPanel.from_bars(read_bars_csv(p_bar))
    b = RegressionPanel.from_bars(read_bars_csv(p_panel))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.r, b.r)
    assert a.n == 2 * 29

    # The fit command reads both layouts through the same reader and fits them alike.
    for src in (p_bar, p_panel):
        assert main(["fit", str(src), "--model", "linear", "--out-dir", str(tmp_path / src.stem)]) == 0
    assert (tmp_path / "bars" / "bars.fits.csv").read_bytes() == \
        (tmp_path / "panel" / "panel.fits.csv").read_bytes()
    capsys.readouterr()

    bad = tmp_path / "bad.csv"
    bad.write_text("day,bar,flow,r\n0,0,1.0,\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{bad}:1: unrecognized header")):
        read_bars_csv(bad)
    assert main(["fit", str(bad), "--out-dir", str(tmp_path / "bad")]) == 1
    assert f"error: {bad}:1: unrecognized header" in capsys.readouterr().err


def test_panel_validation():
    ok = np.linspace(0.0, 1.0, 12)
    RegressionPanel(r=ok * 1e-4, x=ok, x_prev=ok - 0.1)
    with pytest.raises(EstimationError):
        RegressionPanel(r=ok[:5] * 1e-4, x=ok[:5], x_prev=ok[:5])  # too short
    with pytest.raises(EstimationError):
        RegressionPanel(r=ok * 1e-4, x=ok, x_prev=ok[:-1])  # length mismatch
    bad = ok.copy()
    bad[3] = np.nan
    with pytest.raises(EstimationError):
        RegressionPanel(r=bad * 1e-4, x=ok, x_prev=ok)


# ---------------------------------------------------------------------------
# closed-form fits


def test_fit_ols_linear_exact_recovery():
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 150.0, 300)
    x_prev = rng.normal(0.0, 150.0, 300)
    alpha, a = 3e-6, 2e-6
    r = a + alpha * (x - x_prev)
    fit = fit_ols(RegressionPanel(r=r, x=x, x_prev=x_prev), "linear")
    assert fit.model == "linear"
    assert fit.converged
    assert fit.a_hat == pytest.approx(a, rel=1e-10)
    assert fit.param_hats["alpha"] == pytest.approx(alpha, rel=1e-12)
    assert fit.rss == pytest.approx(0.0, abs=1e-24)
    assert fit.adj_r2 == pytest.approx(1.0, abs=1e-10)
    # rss collapses to rounding dust, so the BIC dives (to -inf when exactly zero)
    assert fit.bic < -2e4
    assert fit.k == 2 and fit.n == 300


def test_fit_ols_sqrt_exact_recovery():
    rng = np.random.default_rng(32)
    x = rng.normal(0.0, 150.0, 200)
    x_prev = rng.normal(0.0, 150.0, 200)
    alpha = 4e-5
    r = 1e-6 + alpha * (np.sign(x) * np.sqrt(np.abs(x)) - np.sign(x_prev) * np.sqrt(np.abs(x_prev)))
    fit = fit_ols(RegressionPanel(r=r, x=x, x_prev=x_prev), "sqrt")
    assert fit.param_hats["alpha"] == pytest.approx(alpha, rel=1e-12)
    assert fit.adj_r2 == pytest.approx(1.0, abs=1e-10)


def test_fit_ols_matches_brute_force_stats():
    # One centred closed form, summed in chunks, at every size (one chunk at 150
    # rows, three at 20,000).  It holds no column scale: flows in large or small units fit alike.
    for n, flow_sd in ((150, 100.0), (150, 1e8), (150, 1e-8), (20_000, 100.0), (20_000, 1e8), (20_000, 1e-8)):
        rng = np.random.default_rng(33)
        x = rng.normal(0.0, flow_sd, n)
        x_prev = np.concatenate(([0.0], x[:-1]))
        r = 1e-6 + 2e-4 / flow_sd * (x - x_prev) + rng.normal(0.0, 1e-4, n)
        panel = RegressionPanel(r=r, x=x, x_prev=x_prev)
        fit = fit_ols(panel, "linear")

        design = np.column_stack([np.ones(n), x - x_prev])
        beta, *_ = np.linalg.lstsq(design, r, rcond=None)
        resid = r - design @ beta
        rss = float(resid @ resid)
        assert fit.a_hat == pytest.approx(beta[0], rel=1e-10)
        assert fit.param_hats["alpha"] == pytest.approx(beta[1], rel=1e-10)
        assert fit.rss == pytest.approx(rss, rel=1e-12)
        tss = float(np.sum((r - r.mean()) ** 2))
        r2 = 1.0 - rss / tss
        want_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - 2 - 1)
        assert fit.adj_r2 == pytest.approx(want_adj, rel=1e-12)
        assert fit.bic == pytest.approx(n * math.log(rss / n) + 2 * math.log(n), rel=1e-12)
        # Classical standard errors from the unscaled covariance.
        s2 = rss / (n - 2)
        cov = s2 * np.linalg.inv(design.T @ design)
        assert fit.ses["a"] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-10)
        assert fit.ses["alpha"] == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-10)
        assert fit.t_stats["alpha"] == pytest.approx(fit.param_hats["alpha"] / fit.ses["alpha"], rel=1e-10)


def test_fit_ols_se_coverage():
    rng = np.random.default_rng(34)
    alpha = 2e-6
    hits = 0
    reps = 100
    for _ in range(reps):
        x = rng.normal(0.0, 120.0, 400)
        x_prev = np.concatenate(([0.0], x[:-1]))
        r = alpha * (x - x_prev) + rng.normal(0.0, 2e-4, 400)
        fit = fit_ols(RegressionPanel(r=r, x=x, x_prev=x_prev), "linear")
        z = (fit.param_hats["alpha"] - alpha) / fit.ses["alpha"]
        hits += abs(z) < 3.0
    assert hits >= 96


def test_fit_ols_rank_deficient_raises():
    n = 20
    x = np.full(n, 7.0)
    with pytest.raises(EstimationError, match="constant"):
        fit_ols(RegressionPanel(r=np.random.default_rng(0).normal(0, 1e-4, n),
                                x=x, x_prev=x), "linear")
    with pytest.raises(ValueError, match="cubic"):
        fit_ols(make_panel(n_days=1, bars_per_day=12), "cubic")


# ---------------------------------------------------------------------------
# S-shape fit


def test_fit_sshape_zero_noise_recovery():
    panel = make_panel(n_days=5, bars_per_day=100, noise_sd=0.0, seed=1)
    fit = fit_sshape(panel)
    assert fit.converged
    assert fit.starts_tried == len(default_start_grid(float(np.std(panel.x, ddof=1))))
    assert fit.a_hat == pytest.approx(TRUTH["a"], rel=1e-5)
    assert fit.param_hats["ell"] == pytest.approx(TRUTH["ell"], rel=1e-6)
    assert fit.param_hats["p"] == pytest.approx(TRUTH["p"], rel=1e-6)
    assert fit.param_hats["q"] == pytest.approx(TRUTH["q"], rel=1e-6)
    assert fit.rss < 1e-20
    assert fit.k == 4


def test_fit_sshape_noisy_recovery_within_three_se():
    panel = make_panel(n_days=40, bars_per_day=360, noise_sd=5e-4, seed=8)
    fit = fit_sshape(panel, scale_grid(panel))
    assert fit.converged
    for name, true in (("ell", TRUTH["ell"]), ("p", TRUTH["p"]), ("q", TRUTH["q"])):
        z = (fit.param_hats[name] - true) / fit.ses[name]
        assert abs(z) < 3.0, (name, z)
    z_a = (fit.a_hat - TRUTH["a"]) / fit.ses["a"]
    assert abs(z_a) < 3.0
    assert fit.t_stats["ell"] == pytest.approx(fit.param_hats["ell"] / fit.ses["ell"], rel=1e-12)


def test_fit_sshape_result_is_local_minimum():
    panel = make_panel(n_days=5, bars_per_day=100, noise_sd=2e-4, seed=11)
    fit = fit_sshape(panel, scale_grid(panel))
    assert fit.converged

    def rss_at(a, ell, p, q):
        f = f_sshape(panel.x, SShapeParams(ell, p, q)) - f_sshape(panel.x_prev, SShapeParams(ell, p, q))
        e = panel.r - a - f
        return float(e @ e)

    base = rss_at(fit.a_hat, fit.param_hats["ell"], fit.param_hats["p"], fit.param_hats["q"])
    assert base == pytest.approx(fit.rss, rel=1e-10)
    for bump in (1.01, 0.99):
        assert rss_at(fit.a_hat, fit.param_hats["ell"] * bump,
                      fit.param_hats["p"], fit.param_hats["q"]) > base
        assert rss_at(fit.a_hat, fit.param_hats["ell"],
                      fit.param_hats["p"] * bump, fit.param_hats["q"]) > base
        assert rss_at(fit.a_hat, fit.param_hats["ell"],
                      fit.param_hats["p"], fit.param_hats["q"] * bump) > base
        assert rss_at(fit.a_hat + (bump - 1.0) * 1e-5, fit.param_hats["ell"],
                      fit.param_hats["p"], fit.param_hats["q"]) > base


def test_fit_sshape_fitted_curve_is_feasible():
    panel = make_panel(n_days=5, bars_per_day=100, noise_sd=2e-4, seed=13)
    fit = fit_sshape(panel, scale_grid(panel))
    assert feasibility_margin(curve_from_dict({"family": fit.model, **fit.param_hats})) > 0.0


def test_fit_sshape_degenerate_flow_raises():
    n = 40
    x = np.full(n, 3.0)
    panel = RegressionPanel(r=np.random.default_rng(2).normal(0, 1e-4, n), x=x, x_prev=x)
    with pytest.raises(EstimationError):
        fit_sshape(panel)


def test_fit_sshape_more_noise_more_rss():
    lo = fit_sshape(make_panel(n_days=4, bars_per_day=90, noise_sd=1e-4, seed=17),
                    grid=[(-3e-3, 8e-5)])
    hi = fit_sshape(make_panel(n_days=4, bars_per_day=90, noise_sd=1e-3, seed=17),
                    grid=[(-3e-3, 8e-5)])
    assert hi.rss > 10.0 * lo.rss


def test_fit_sshape_max_iter_one_reports_unconverged(caplog):
    panel = make_panel(n_days=3, bars_per_day=60, noise_sd=2e-4, seed=71)
    with caplog.at_level(logging.WARNING, logger="liqimpact.estimation"), \
            mock.patch.object(estimation, "_ITER_LIMIT", 1):
        fit = fit_sshape(panel, scale_grid(panel))
    assert not fit.converged
    assert fit.message == "no start converged within max_iter; best endpoint returned"
    assert fit.starts_tried == 9
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert fit.message in warnings[0].getMessage()


def test_fit_sshape_unconverged_note_names_the_damping_limit(monkeypatch):
    panel = make_panel(n_days=3, bars_per_day=60, noise_sd=2e-4, seed=71)
    lm_starts = estimation._lm_starts

    def damped_out(*args, **kwargs):
        starts = lm_starts(*args, **kwargs)
        starts.stop[starts.stop == estimation._MAX_ITER] = estimation._LAMBDA_LIMIT
        return starts

    monkeypatch.setattr(estimation, "_lm_starts", damped_out)
    monkeypatch.setattr(estimation, "_ITER_LIMIT", 1)
    fit = fit_sshape(panel, scale_grid(panel))
    assert not fit.converged
    assert fit.message == "no start converged before the damping limit; best endpoint returned"


def test_fit_sshape_overflowing_covariance_gives_nan_ses_without_warnings():
    # On pure noise this start ends at q near 1e-107, where d/dq = (1/q) d/dv overflows J'J.
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 30.0, 17)
    panel = RegressionPanel(r=rng.normal(0.0, 1e-4, 16), x=x[1:], x_prev=x[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_sshape(panel, [(-5e-4, 1e-6)])
    assert fit.param_hats["q"] < 1e-100
    assert all(math.isnan(v) for v in (*fit.ses.values(), *fit.t_stats.values()))
    assert "J'J overflows" in fit.message
    assert math.isfinite(fit.rss) and fit.converged


def test_fit_sshape_singular_covariance_names_its_nan_ses(caplog):
    # On pure noise this start ends at q near 7e-16, where J'J has no positive variance for ell, p or q.
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 50.0, 21)
    panel = RegressionPanel(r=rng.normal(0.0, 1e-4, 20), x=x[1:], x_prev=x[:-1])
    s = float(np.std(panel.x, ddof=1))
    with caplog.at_level(logging.WARNING, logger="liqimpact.estimation"):
        fit = fit_sshape(panel, [(-3e-2 / s, 1e-1 / s ** 2)])
    assert fit.converged and fit.param_hats["q"] < 1e-12
    assert fit.message == ("J'J is singular at the optimum in ell, p, q: "
                           "their standard errors and t statistics are NaN")
    assert [r.getMessage() for r in caplog.records] == [f"fit_sshape: {fit.message}"]
    for name in ("ell", "p", "q"):
        assert math.isnan(fit.ses[name]) and math.isnan(fit.t_stats[name])
    assert fit.ses["a"] > 0.0
    assert fit.t_stats["a"] == fit.a_hat / fit.ses["a"]


def test_fit_sshape_bad_grids_raise():
    panel = make_panel(n_days=2, bars_per_day=40, noise_sd=2e-4, seed=73)
    # No start can clear a margin floor above the largest possible margin, 1.
    with pytest.raises(EstimationError, match="no feasible start point"), \
            mock.patch.object(estimation, "_MARGIN_FLOOR", 2.0):
        fit_sshape(panel, scale_grid(panel))
    with pytest.raises(EstimationError, match="empty start grid"):
        fit_sshape(panel, [])
    for q0 in (0.0, -1e-5):
        with pytest.raises(EstimationError, match="grid q must be positive"):
            fit_sshape(panel, [(-3e-3, 8e-5), (-3e-3, q0)])
    # Non-finite grid values are named, not left to fail every start.
    for point, hint in (((-3e-3, math.nan), "grid q must be positive and finite, got nan"),
                        ((-3e-3, math.inf), "grid q must be positive and finite, got inf"),
                        ((math.nan, 8e-5), "grid p must be finite, got nan"),
                        ((-math.inf, 8e-5), "grid p must be finite, got -inf")):
        with pytest.raises(EstimationError, match=f"^{re.escape(hint)}$"):
            fit_sshape(panel, [(-3e-3, 8e-5), point])
    # Past the float range flow_sd ** 2 underflows, overflows or leaves q = inf: still an EstimationError.
    for flow_sd in (0.0, -1.0, math.nan, math.inf, 1e-200, 1e-160, 5e-324, 1e160, 1e200):
        with pytest.raises(EstimationError, match=f"start grid with every q > 0, got {re.escape(str(flow_sd))}$"):
            default_start_grid(flow_sd)



def test_near_linear_curve_matches_linear_slope():
    # With the bend pushed far outside the data range the S-shape is a
    # straight line of slope ell, and the plain linear fit should find it.
    imp = SShapeParams(ell=5e-6, p=-1e-6, q=1e-10)
    flow = OUParams(c=0.1, m=0.0, eta=50.0)
    synth = synth_regression_panel(a=0.0, impact=imp, flow=flow, n_days=10,
                                   bars_per_day=360, noise_sd=2e-4, seed=23)
    fit = fit_ols(RegressionPanel.from_synthetic(synth), "linear")
    assert abs(fit.param_hats["alpha"] - imp.ell) < 2.0 * fit.ses["alpha"]


# ---------------------------------------------------------------------------
# S-shape fit against the sequential reference and SciPy's MINPACK


def _run_starts(panel, grid):
    """The start points, and the columns of every start's outcome from the library's round loop."""
    theta0s = estimation._start_thetas(panel, grid)
    residuals = estimation._SShapeResiduals(panel, len(theta0s))
    return theta0s, estimation._lm_starts(theta0s, residuals, panel.n)


def _lockstep_oracle(panel, theta0s, margin_floor=1e-6, **kw):
    """Every start's outcome from the one-evaluation-at-a-time lockstep oracle."""
    return estimation_oracle.lockstep_starts(
        theta0s, partial(estimation_oracle.resid_jac, panel=panel, margin_floor=margin_floor), panel.n, **kw)


def _outcomes(starts):
    """The library's columns as one record per start, as the oracle's; None where the start is infeasible."""
    return [None if stop == estimation._INFEASIBLE else SimpleNamespace(
        index=i, stop=estimation._STOPS[stop], iterations=int(starts.iterations[i]),
        evaluations=int(starts.evaluations[i]), rss=float(starts.rss[i]), theta=starts.theta[i],
        merged_into=None if starts.merged_into[i] < 0 else int(starts.merged_into[i]),
        converged=stop in (estimation._FTOL, estimation._GTOL)) for i, stop in enumerate(starts.stop.tolist())]


def _assert_same_outcomes(starts, want):
    got = _outcomes(starts)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is None:
            continue
        assert (g.index, g.stop, g.iterations, g.evaluations, g.rss, g.merged_into) == \
            (w.index, w.stop, w.iterations, w.evaluations, w.rss, w.merged_into)
        assert np.array_equal(g.theta, w.theta)


@st.composite
def noisy_panels_and_grids(draw):
    """One to four noisy days of 12 to 360 bars, and a grid of one to eight starts.

    The short panels are the hard case for merging: their Gauss-Newton metric
    is nearly singular, the RSS surface has several optima within one standard
    error, and the searches stop at scattered points, so only the full
    sequential search finds the lowest.
    """
    panel = make_panel(n_days=draw(st.integers(1, 4)), bars_per_day=draw(st.integers(12, 360)),
                       noise_sd=draw(st.sampled_from([5e-5, 2e-4, 1e-3])),
                       seed=draw(st.integers(0, 2 ** 20)))
    s = float(np.std(panel.x, ddof=1))
    points = st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
    grid = [(-1e-2 / s * k, 1e-2 / s ** 2 * 10.0 ** j)
            for k, j in draw(st.lists(points, min_size=1, max_size=8))]
    return panel, grid


def test_oracle_defaults_are_the_library_constants():
    # The oracles take the solver's settings as arguments; their defaults are the settings of every fit.
    fixed = {"max_iter": estimation._ITER_LIMIT, "rss_rtol": estimation._RSS_RTOL,
             "grad_atol": estimation._GRAD_ATOL, "margin_floor": estimation._MARGIN_FLOOR}
    for oracle, names in ((estimation_oracle.fit_starts, ("max_iter", "rss_rtol", "grad_atol", "margin_floor")),
                          (estimation_oracle.lockstep_starts, ("max_iter", "rss_rtol", "grad_atol"))):
        defaults = {name: p.default for name, p in inspect.signature(oracle).parameters.items()
                    if p.default is not p.empty}
        assert defaults == {name: fixed[name] for name in names}
    assert estimation_oracle.MERGE_RADIUS == estimation._MERGE_RADIUS
    assert estimation_oracle.CHUNK == estimation._CHUNK


@settings(max_examples=40, deadline=None)
@given(noisy_panels_and_grids())
def test_fit_sshape_rss_never_above_sequential_oracle(case):
    panel, grid = case
    try:
        _, want = estimation_oracle.fit_starts(estimation._start_thetas(panel, grid), panel)
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=re.escape(str(exc))):
            fit_sshape(panel, grid)
        return
    fit = fit_sshape(panel, grid)
    assert fit.rss - want.rss <= 1e-10 * want.rss
    assert fit.starts_tried == len(grid)


@settings(max_examples=40, deadline=None)
@given(noisy_panels_and_grids())
def test_lockstep_starts_without_merging_equal_sequential_oracle_bitwise(case):
    panel, grid = case
    with mock.patch.object(estimation, "_MERGE_RADIUS", 0.0):
        theta0s, starts = _run_starts(panel, grid)
    want = [estimation_oracle.run_lm(t0, panel, 1e-6, 500, 1e-12, 1e-10) for t0 in theta0s]
    for g, w in zip(_outcomes(starts), want):
        assert (g is None) == (w is None)
        if g is None:
            continue
        if g.stop == "merged":
            # At radius 0 a start is retired only onto the very same iterate:
            # a repeated grid point, whose sequential search is its absorber's.
            w_into = want[g.merged_into]
            assert np.array_equal(w.theta, w_into.theta) and w.rss == w_into.rss
            assert w.iterations == w_into.iterations
            continue
        assert np.array_equal(g.theta, w.theta)
        assert g.rss == w.rss
        assert g.iterations == w.iterations
        assert g.converged == w.converged


@settings(max_examples=40, deadline=None)
@given(noisy_panels_and_grids())
def test_round_loop_equals_lockstep_oracle_bitwise(case):
    panel, grid = case
    theta0s, got = _run_starts(panel, grid)
    _assert_same_outcomes(got, _lockstep_oracle(panel, theta0s))


def test_round_loop_equals_lockstep_oracle_on_rows_that_big_phi_routes():
    panel = make_panel(n_days=2, bars_per_day=60, noise_sd=2e-4, seed=5)
    s = float(np.std(panel.x, ddof=1))
    x_min = float(np.min(np.abs(panel.x)))
    grid = [(-3e-2 / s, 1e-5 / s ** 2),  # |p| / sqrt(q) = 9.5: outside the direct band
            (-5e-13, 1e-26),  # in the band, with the flows below 50 in the small-q limit
            (-1e-2 / s, 1e-2 / s ** 2)]
    assert abs(grid[0][0]) / math.sqrt(grid[0][1]) > 6.0
    assert x_min < 1e-12 * abs(grid[1][0]) / grid[1][1] < float(np.max(np.abs(panel.x)))
    theta0s = estimation._start_thetas(panel, grid)
    with mock.patch.object(estimation, "big_phi", wraps=estimation.big_phi) as routed:
        _, got = _run_starts(panel, grid)
    assert routed.call_count > 0
    _assert_same_outcomes(got, _lockstep_oracle(panel, theta0s))


def test_round_loop_equals_lockstep_oracle_when_trials_turn_infeasible():
    # The true curve's margin is 0.13, below the floor of 0.2, so the searches
    # run into the floor and trial steps cross it mid-round.
    panel = make_panel(n_days=2, bars_per_day=120, noise_sd=2e-4, seed=31,
                       impact=SShapeParams(ell=8e-3, p=-3e-3, q=8e-5))
    grid = scale_grid(panel)
    theta0s = estimation._start_thetas(panel, grid)
    margins = []

    def recorded_margin(params):
        margins.append(feasibility_margin(params))
        return margins[-1]

    with mock.patch.object(estimation, "feasibility_margin", recorded_margin), \
            mock.patch.object(estimation, "_MARGIN_FLOOR", 0.2):
        _, got = _run_starts(panel, grid)
    # The first len(grid) margins open the starts; the rest are trial steps.
    assert min(margins[:len(grid)]) >= 0.2 and min(margins[len(grid):]) < 0.2
    _assert_same_outcomes(got, _lockstep_oracle(panel, theta0s, margin_floor=0.2))


def test_round_loop_equals_lockstep_oracle_over_many_blocks():
    panel = make_panel(n_days=2, bars_per_day=200, noise_sd=5e-4, seed=43)
    with mock.patch.object(estimation, "_BLOCK_POINTS", 3 * panel.n + 1):
        theta0s = estimation._start_thetas(panel, None)
        assert estimation._SShapeResiduals(panel, len(theta0s)).block == 3
        _, got = _run_starts(panel, None)
    _assert_same_outcomes(got, _lockstep_oracle(panel, theta0s))


def test_round_loop_solves_one_by_one_when_the_stacked_solve_fails():
    # Start 2's first damped system is made singular, in the library and the
    # oracle alike: the stacked solve raises, the others are solved one by one,
    # and start 2 raises its damping as a singular system does.
    panel = make_panel(n_days=2, bars_per_day=100, noise_sd=5e-4, seed=29)
    grid = scale_grid(panel)
    theta0s = estimation._start_thetas(panel, grid)
    opened = estimation_oracle._open_start(2, theta0s[2], partial(estimation_oracle.resid_jac, panel=panel,
                                                                   margin_floor=1e-6), 500, 1e-10)
    singular = opened.JtJ + opened.lam * np.diag(np.maximum(np.diag(opened.JtJ), 1e-300))
    solve = np.linalg.solve
    raised = []

    def failing_solve(A, b):
        if any(np.array_equal(a, singular) for a in np.reshape(A, (-1, 4, 4))):
            raised.append(np.ndim(A))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    with mock.patch.object(np.linalg, "solve", failing_solve):
        _, got = _run_starts(panel, grid)
        assert raised == [3, 2]
        want = _lockstep_oracle(panel, theta0s)
    assert raised == [3, 2, 2]
    _assert_same_outcomes(got, want)


def test_merged_starts_point_to_lower_rss_and_every_start_says_why_it_stopped():
    panel = make_panel(n_days=10, bars_per_day=360, noise_sd=1e-3, seed=79)
    theta0s, columns = _run_starts(panel, None)
    starts = _outcomes(columns)
    assert len(starts) == len(default_start_grid(float(np.std(panel.x, ddof=1)))) and all(s is not None for s in starts)
    merged = [s for s in starts if s.stop == "merged"]
    assert merged, "the default grid's starts should share an optimum"
    for s in merged:
        into = starts[s.merged_into]
        assert (into.rss, into.index) < (s.rss, s.index)
        assert not s.converged
        # Each start takes one iteration per round, so iterations count the
        # rounds: a target retired later was kept in the round it absorbed s.
        assert into.stop != "merged" or into.iterations > s.iterations
    for s in starts:
        assert s.stop in ("ftol", "gtol", "max_iter", "lambda_limit", "merged")
        assert (s.merged_into is not None) == (s.stop == "merged")
        assert 1 <= s.evaluations <= s.iterations + 1
    # Retiring the duplicates is the saving: the sequential search evaluates
    # each start once to open it and once per iteration (474 here, against 208).
    sequential = [estimation_oracle.run_lm(t0, panel, 1e-6, 500, 1e-12, 1e-10) for t0 in theta0s]
    assert sum(s.evaluations for s in starts) < 0.5 * sum(o.iterations + 1 for o in sequential)
    # The merged start never wins: the fit reports a kept start's endpoint.
    best = starts[estimation._best_start(columns)]
    assert best.stop in ("ftol", "gtol")
    assert fit_sshape(panel).rss == best.rss
    # Evaluating the starts together changes no start's search.
    _assert_same_outcomes(columns, _lockstep_oracle(panel, theta0s))

    grid = scale_grid(panel)
    with mock.patch.object(estimation, "_ITER_LIMIT", 1):
        _, capped = _run_starts(panel, grid)
    assert {s.stop for s in _outcomes(capped)} <= {"max_iter", "merged"}
    assert all(s.iterations == 1 for s in _outcomes(capped) if s.stop == "max_iter")
    _assert_same_outcomes(capped, _lockstep_oracle(panel, estimation._start_thetas(panel, grid), max_iter=1))


def test_a_start_held_at_the_damping_limit_with_no_predicted_drop_has_converged():
    # On this recovery panel no damped step from the optimum lowers the RSS, so
    # the one start left there stops at the damping limit, where the
    # Gauss-Newton model predicts a relative drop of 3e-17.  Counted as
    # unconverged, it gave the fit to a start stuck on the no-impact plateau
    # at 2.3 times its RSS, or with the plateau starts gone to no converged start.
    panel = make_panel(n_days=100, bars_per_day=360, noise_sd=5e-4, seed=101021)
    theta0s, starts = _run_starts(panel, None)
    best = estimation._best_start(starts)
    assert starts.stop[best] == estimation._FTOL and starts.lam[best] > 1e15
    kept = starts.stop < estimation._MERGED
    assert starts.rss[best] == starts.rss[kept].min()
    with mock.patch.object(estimation, "_SCREEN_ROWS", panel.n):
        fit = fit_sshape(panel)
    assert fit.converged and fit.rss == starts.rss[best]
    for name in ("ell", "p", "q"):
        assert abs(fit.param_hats[name] - TRUTH[name]) < 3.0 * fit.ses[name]
    # Screened on every 64th row, the fit runs its surviving grid point to the same optimum.
    screened = fit_sshape(panel)
    assert screened.converged and screened.rss <= (1.0 + 1e-12) * starts.rss[best]
    want = estimation_oracle.run_lm(theta0s[best], panel, 1e-6, 500, 1e-12, 1e-10)
    assert want.converged and want.rss == starts.rss[best] and np.array_equal(want.theta, starts.theta[best])
    # A row whose J'J is singular predicts nothing.
    assert not estimation._predicts_no_drop(np.zeros((1, 4, 4)), np.zeros((1, 4)), np.ones(1)).any()


def _grid_with_plateau_starts(flow_sd):
    """The 35-point grid that default_start_grid made before it left out the two plateau starts."""
    ps = [-1e-2 / flow_sd * k for k in range(-3, 4)]
    qs = [1e-2 / flow_sd ** 2 * 10.0 ** j for j in range(-2, 3)]
    return [(p0, q0) for p0 in ps for q0 in qs]


def test_default_grid_leaves_out_the_plateau_starts_and_the_fit_is_bitwise_the_same():
    panel = make_panel(n_days=10, bars_per_day=360, noise_sd=1e-3, seed=79)
    s = float(np.std(panel.x, ddof=1))
    old, grid = _grid_with_plateau_starts(s), default_start_grid(s)
    assert grid == [point for i, point in enumerate(old) if i not in (0, 5)]
    assert [p0 / math.sqrt(q0) for p0, q0 in (old[0], old[5])] == pytest.approx([3.0, 2.0])
    assert max(p0 / math.sqrt(q0) for p0, q0 in grid) == pytest.approx(1.0)
    got, want = fit_sshape(panel), fit_sshape(panel, old)
    assert (got.starts_tried, want.starts_tried) == (33, 35)
    assert repr(dataclasses.replace(got, starts_tried=35)) == repr(want)
    assert _run_starts(panel, None)[1].evaluations.sum() < _run_starts(panel, old)[1].evaluations.sum()


def _starts(rss, a=None):
    """Live starts with these RSS at theta (a_i, 0, 0, 0), each with J'J the identity."""
    k = len(rss)
    theta = np.zeros((k, 4))
    theta[:, 0] = 0.0 if a is None else a
    return estimation._Starts(theta, np.array(rss, dtype=float), np.tile(np.eye(4), (k, 1, 1)), np.ones((k, 4)))


def _retire(starts, n=104):
    """Each start's stop and merge target after one pass of the library's merge rule.

    n = 104 makes rss / (n - 4) the squared standard error, so RSS 100 reaches 1."""
    estimation._retire_merged(starts, n)
    return [estimation._STOPS[code] for code in starts.stop], starts.merged_into.tolist()


def test_retire_merged_rule():
    # Within reach (1 for start 1, 2 for start 0) of a lower-RSS start: retired into it; beyond: kept.
    assert _retire(_starts([200.0, 100.0, 300.0], a=[0.5, 0.0, 3.0])) == (["merged", "live", "live"], [1, -1, -1])
    # Exactly at the reach is within it; just beyond is not.
    assert _retire(_starts([100.0, 200.0], a=[0.0, 1.0])) == (["live", "merged"], [-1, 0])
    assert _retire(_starts([100.0, 200.0], a=[0.0, 1.0 + 1e-12])) == (["live", "live"], [-1, -1])
    # Equal RSS: the higher index goes; zero RSS absorbs nothing.
    assert _retire(_starts([100.0, 100.0])) == (["live", "merged"], [-1, 0])
    assert _retire(_starts([0.0, 0.0, 5.0])) == (["live"] * 3, [-1] * 3)
    # Within reach of two kept starts: retired into the one with lower RSS, not the lower index.
    two = _starts([150.0, 100.0, 300.0], a=[0.0, 0.0, 0.5])
    two.stop[[0, 1]] = estimation._FTOL
    assert _retire(two) == (["ftol", "ftol", "merged"], [-1, -1, 1])
    # A stopped start absorbs live ones but is never retired itself; an infeasible one takes no part.
    done = _starts([100.0, 200.0, 300.0, 50.0])
    done.stop[[0, 2, 3]] = estimation._FTOL, estimation._MAX_ITER, estimation._INFEASIBLE
    assert _retire(done) == (["ftol", "merged", "max_iter", "infeasible"], [-1, 0, -1, -1])


def test_retire_merged_only_into_kept_starts():
    # Start 1 lies within reach of start 0 and is retired into it; start 2 lies
    # within start 1's reach (1.5) but not start 0's (1), so it stays live.
    chain = _starts([100.0, 150.0, 200.0], a=[0.0, 0.9, 1.9])
    assert _retire(chain) == (["live", "merged", "live"], [-1, 0, -1])


def test_retire_merged_skips_starts_whose_metric_is_too_soft():
    # With lambda_min(J'J) = 1e-12 a point that passes the gradient test can lie
    # 4e-20 / 1e-12 = 4e-8 above the optimum, beyond 1e-12 of an RSS of 100.
    for smallest, stops in ((1e-12, ["live", "live"]), (1e-9, ["live", "merged"])):
        soft = _starts([100.0, 200.0])
        soft.JtJ[0] = np.diag([1.0, 1.0, 1.0, smallest])
        assert _retire(soft)[0] == stops


@st.composite
def merge_rounds(draw):
    """One round's starts on a small lattice, so equal RSS, d2 exactly at the
    reach and several absorbers within reach all come up: (rss, a, J'J scale, stop) each."""
    k = draw(st.integers(1, 7))
    return [(100.0 * draw(st.integers(0, 4)), float(draw(st.integers(0, 3))),
             draw(st.sampled_from([1e-12, 1.0, 4.0])),
             draw(st.sampled_from(["live", "live", "ftol", "max_iter", "merged", "infeasible"])))
            for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(merge_rounds())
def test_retire_merged_matches_the_oracle_rule(round_):
    rss, a, scale, stops = map(list, zip(*round_))
    starts = _starts(rss, a=a)
    starts.JtJ[:] = np.array(scale)[:, None, None] * np.eye(4)
    starts.stop[:] = [estimation._STOPS.index(stop) for stop in stops]
    kept = [estimation_oracle._Start(index=i, theta=starts.theta[i].copy(), rss=rss[i], JtJ=starts.JtJ[i].copy(),
                                     g=np.zeros(4), lam=1e-3, stop=None if stop == "live" else stop)
            for i, stop in enumerate(stops) if stop not in ("merged", "infeasible")]
    estimation_oracle._retire_merged(kept, 104, rss_rtol=1e-12, grad_atol=1e-10)
    want_stops, want_into = list(stops), [-1] * len(stops)
    for s in kept:
        want_stops[s.index] = s.stop or "live"
        want_into[s.index] = -1 if s.merged_into is None else s.merged_into
    assert _retire(starts) == (want_stops, want_into)


def test_short_panel_runs_every_start_to_the_sequential_optimum():
    # Merging by one standard error lost 0.8 % of RSS on this 15-observation
    # panel: a start retired at the first round would have found the lowest optimum.
    panel = make_panel(n_days=1, bars_per_day=16, noise_sd=2e-4, seed=7)
    theta0s, starts = _run_starts(panel, None)
    assert not (starts.stop == estimation._MERGED).any()
    _, want = estimation_oracle.fit_starts(theta0s, panel)
    assert fit_sshape(panel).rss == want.rss


def _peak_bytes(evaluate) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_evaluation_reuses_its_work_arrays_and_matches_the_oracle_bitwise():
    # With fresh panel-sized temporaries in every evaluation, the allocator
    # returned them to the OS and faulted them in again, or not, depending on
    # its state, and a pooled fit's time jumped between two levels from one
    # process to the next.
    panel = make_panel(n_days=4, bars_per_day=360, noise_sd=5e-4, seed=3)
    thetas = estimation._start_thetas(panel, None)
    residuals = estimation._SShapeResiduals(panel, len(thetas))
    assert 1 < residuals.block < len(thetas)
    for theta in (thetas[17], thetas[3], thetas[17]):
        e, J = residuals.one(theta, 1e-6)
        want_e, want_J = estimation_oracle.resid_jac(theta, panel, 1e-6)
        assert np.array_equal(e, want_e) and np.array_equal(J, want_J)
    # A block's stacked products are bitwise each row's own e'e, J'J and J'e.
    block = np.array(thetas[-residuals.block:])
    unbeaten = np.full(len(block), np.inf)
    rss, JtJ, g = residuals.normal_equations(block, 1e-6, unbeaten)
    assert not np.isnan(rss).any()
    for theta, rss_i, JtJ_i, g_i in zip(block, rss, JtJ, g):
        e, J = estimation_oracle.resid_jac(theta, panel, 1e-6)
        assert rss_i == float(e @ e) and np.array_equal(JtJ_i, J.T @ J) and np.array_equal(g_i, J.T @ e)
    # Only the rows at most their RSS to beat get J'J and J'e, the same bits; e'e comes for all.
    beat = np.where(np.arange(len(block)) % 2 == 0, np.inf, 0.0)
    beat[1], beat[3] = rss[1], np.nextafter(rss[3], -np.inf)  # at, and just below, the row's own e'e
    rss_b, JtJ_b, g_b = residuals.normal_equations(block, 1e-6, beat)
    assert np.array_equal(rss_b, rss)
    formed = rss <= beat
    assert formed[1] and not formed[3]
    assert formed.sum() > 1 and not formed.all()
    assert np.array_equal(JtJ_b[formed], JtJ[formed]) and np.array_equal(g_b[formed], g[formed])
    assert np.isnan(JtJ_b[~formed]).all() and np.isnan(g_b[~formed]).all()
    # big_phi's and phi's own arrays; the old evaluation peaked near 27.
    assert _peak_bytes(lambda: residuals.one(thetas[17], 1e-6)) < 6 * panel.r.nbytes
    assert _peak_bytes(lambda: residuals.normal_equations(block[:1], 1e-6, unbeaten[:1])) < 6 * panel.r.nbytes
    # A full block allocates nothing panel-sized either.
    assert _peak_bytes(lambda: residuals.normal_equations(block, 1e-6, unbeaten)) < 6 * panel.r.nbytes


def _assert_evaluation_matches_oracle(panel, thetas):
    """one()'s e and J and a block's e'e, J'J and J'e are bitwise the oracle's; returns the evaluator."""
    residuals = estimation._SShapeResiduals(panel, len(thetas))
    wants = [estimation_oracle.resid_jac(theta, panel, 1e-6) for theta in thetas]
    for theta, want in zip(thetas, wants):
        got = residuals.one(theta, 1e-6)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    rss, JtJ, g = residuals.normal_equations(np.array(thetas), 1e-6, np.full(len(thetas), np.inf))
    for want, rss_i, JtJ_i, g_i in zip(wants, rss, JtJ, g):
        if want is None:
            assert np.isnan(rss_i) and np.isnan(JtJ_i).all() and np.isnan(g_i).all()
            continue
        e, J = want
        assert rss_i == estimation_oracle.sse(e)
        assert np.array_equal(JtJ_i, estimation_oracle.gram(J)) and np.array_equal(g_i, estimation_oracle.grad(J, e))
    return residuals


def test_flows_are_evaluated_in_panel_order_and_match_the_oracle_bitwise():
    # Three days of 40 bars, with day 1's bar 20 missing its return: the pair
    # (19, 20) is skipped, so the next row's x_prev is no row's x.
    synth = synth_regression_panel(a=TRUTH["a"], impact=SShapeParams(TRUTH["ell"], TRUTH["p"], TRUTH["q"]),
                                   flow=FLOW, n_days=3, bars_per_day=40, noise_sd=2e-4, seed=17)
    has_return = synth.bars.has_return.copy()
    has_return[40 + 20] = False
    panel = RegressionPanel.from_bars(dataclasses.replace(synth.bars, has_return=has_return))
    assert panel.n == 3 * 39 - 1
    # A start with a NaN component is infeasible: no e or J, and NaN products.
    thetas = np.vstack([estimation._start_thetas(panel, None), [0.0, math.nan, -3e-3, math.log(8e-5)]])
    residuals = _assert_evaluation_matches_oracle(panel, thetas)
    # Seams: the first row, the row after the skipped return and the two later day starts.
    assert residuals.seams.tolist() == [0, 39, 58, 77]
    assert np.array_equal(residuals.flows, np.concatenate([panel.x, panel.x_prev[[0, 39, 58, 77]]]))

    # Integer flows repeat; they are laid out the same way, each repeat evaluated again.
    rounded = RegressionPanel(panel.r, np.rint(panel.x / 10.0), np.rint(panel.x_prev / 10.0))
    residuals = _assert_evaluation_matches_oracle(rounded, estimation._start_thetas(rounded, None))
    assert np.unique(residuals.flows).size < rounded.n
    assert np.array_equal(residuals.flows, np.concatenate([rounded.x, rounded.x_prev[residuals.seams]]))


@st.composite
def mixed_flow_panels(draw):
    """Panels of 10 to 60 rows whose flows mix repeated integers and distinct
    floats, where x_prev is the previous x except at drawn seams."""
    n = draw(st.integers(10, 60))
    flow = st.one_of(st.integers(-20, 20).map(float), st.floats(-500.0, 500.0))
    x = draw(st.lists(flow, min_size=n, max_size=n))
    seams = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x_prev = [draw(flow) if i == 0 or seam else x[i - 1] for i, seam in enumerate(seams)]
    r = np.random.default_rng(draw(st.integers(0, 2 ** 20))).normal(0.0, 1e-3, n)
    return RegressionPanel(r, x, x_prev)


@settings(max_examples=60, deadline=None)
@given(mixed_flow_panels())
def test_panel_order_matches_the_oracle_bitwise_with_repeated_and_distinct_flows(panel):
    s = max(float(np.std(panel.x)), 1.0)
    grid = [(-1e-2 / s * k, 1e-2 / s ** 2 * 10.0 ** j) for k in (-1, 0, 2) for j in (-1, 1)]
    residuals = _assert_evaluation_matches_oracle(panel, estimation._start_thetas(panel, grid))
    seam = np.concatenate([[True], panel.x_prev[1:] != panel.x[:-1]])
    # Where more than half the rows are seams, every row is taken as one.
    if 2 * seam.sum() > panel.n:
        seam[:] = True
    assert np.array_equal(residuals.seams, np.flatnonzero(seam))
    assert np.array_equal(residuals.flows, np.concatenate([panel.x, panel.x_prev[seam]]))


def _strided(panel, stride):
    return RegressionPanel(*(column[::stride] for column in (panel.r, panel.x, panel.x_prev)))


def _assert_pair_layout(panel):
    residuals = _assert_evaluation_matches_oracle(panel, estimation._start_thetas(panel, None))
    assert np.array_equal(residuals.seams, np.arange(panel.n))
    assert np.array_equal(residuals.flows, np.concatenate([panel.x, panel.x_prev]))


def test_screen_rows_are_laid_out_as_x_then_x_prev_and_match_the_oracle_bitwise():
    # The screen's strided rows of a recovery panel: no x_prev is the previous row's x.
    panel = make_panel(n_days=100, bars_per_day=360, noise_sd=5e-4, seed=4009)
    sub = _strided(panel, estimation._SCREEN_STRIDE)
    assert estimation._BLOCK_POINTS // sub.n > 1  # blocks of several rows
    assert not (sub.x_prev[1:] == sub.x[:-1]).any()
    _assert_pair_layout(sub)


def test_strided_integer_flows_with_coincident_rows_take_the_pair_layout():
    # Rounded flows sometimes coincide across the stride, so some rows are not
    # seams; more than half still are, and every row is taken as one.
    panel = make_panel(n_days=20, bars_per_day=360, noise_sd=5e-4, seed=4011)
    sub = _strided(RegressionPanel(panel.r, np.rint(panel.x / 10.0), np.rint(panel.x_prev / 10.0)), 8)
    joined = int((sub.x_prev[1:] == sub.x[:-1]).sum())
    assert 0 < joined < sub.n / 2
    _assert_pair_layout(sub)


@pytest.mark.parametrize("seed", [83, 89, 97])
def test_fit_sshape_matches_scipy_minpack_lm(seed):
    panel = make_panel(n_days=10, bars_per_day=360, noise_sd=1e-3, seed=seed)
    grid = scale_grid(panel)
    theta0s, starts = _run_starts(panel, grid)
    best = estimation._best_start(starts)
    fit = fit_sshape(panel, grid)
    assert fit.rss == starts.rss[best]

    def resid(theta):
        return estimation_oracle.resid_jac(theta, panel, 0.0)[0]

    def jac(theta):
        return estimation_oracle.resid_jac(theta, panel, 0.0)[1]

    sol = least_squares(resid, theta0s[best], jac=jac, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    a, u, p, v = sol.x
    want = {"a": a, "ell": math.exp(u), "p": p, "q": math.exp(v)}
    got = {"a": fit.a_hat, **fit.param_hats}
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-6), name
    assert fit.rss == pytest.approx(2.0 * sol.cost, rel=1e-10)


def _bench_ticks():
    """The benchmark's tick generator, read from bench/ as it is."""
    spec = importlib.util.spec_from_file_location("bench_ticks", ROOT / "bench" / "liqbench" / "ticks.py")
    ticks = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ticks  # dataclasses look their module up there
    try:
        spec.loader.exec_module(ticks)
    finally:
        del sys.modules[spec.name]
    return ticks


@pytest.fixture(scope="module")
def screened_panels(tmp_path_factory):
    """Panels above the screen's threshold: a recovery panel (100 days x 360
    bars, continuous flows) and the pooled panels of a 60-day and a 25-day
    tick file from the benchmark's generator (integer flows)."""
    ticks, panels = _bench_ticks(), {"recovery": make_panel(n_days=100, bars_per_day=360, noise_sd=5e-4, seed=4001)}
    for kind, seed, days in (("ticks", 15, 60), ("ticks25", 11, 25)):
        source = tmp_path_factory.mktemp("ticks") / f"s{seed}.csv.gz"
        source.write_bytes(ticks.generate(seed, days, 35.0).data)
        panels[kind] = RegressionPanel.from_bars(build_bars(read_ticks(source)))
    return panels


# Each screened panel's rows in the screen (every 64th row) and in full, and
# the grid points the screen keeps; the 25-day tick panel has the smallest
# screen of the three, where two optima stay apart.
SCREEN_LEVELS = {"recovery": ([561, 35_900], [1]), "ticks": ([337, 21_540], [1]), "ticks25": ([141, 8_975], [2])}


@pytest.mark.parametrize("kind", list(SCREEN_LEVELS))
def test_screened_fit_reaches_the_best_minpack_optimum_from_the_same_starts(screened_panels, kind):
    panel = screened_panels[kind]
    rows, survivors = SCREEN_LEVELS[kind]
    assert panel.n > estimation._SCREEN_ROWS
    carried = []
    collapse = estimation._distinct_survivors
    with mock.patch.object(estimation, "_distinct_survivors", lambda *a: carried.append(collapse(*a)) or carried[-1]), \
            mock.patch.object(estimation, "_lm_starts", wraps=estimation._lm_starts) as lm_starts:
        fit = fit_sshape(panel)
    # Every 64th row, then the full panel from the grid points of the
    # screen's distinct optima.
    assert [call.args[2] for call in lm_starts.call_args_list] == rows
    assert [len(kept) for kept in carried] == survivors
    grid = estimation._start_thetas(panel, None)
    assert all((grid == theta).all(axis=1).any() for theta in lm_starts.call_args_list[-1].args[0])
    assert fit.converged and fit.starts_tried == 33
    evaluations = {}

    def evaluate(theta):
        # MINPACK asks for J at the point whose e it has just taken; a point
        # that is infeasible gets residuals far above any feasible RSS.
        key = theta.tobytes()
        if key not in evaluations:
            evaluations.clear()
            evaluations[key] = estimation_oracle.resid_jac(theta, panel, 0.0) or (np.ones(panel.n), None)
        return evaluations[key]

    best = min(2.0 * least_squares(lambda th: evaluate(th)[0], theta0, jac=lambda th: evaluate(th)[1],
                                   method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15).cost
               for theta0 in grid)
    assert fit.rss <= (1.0 + 1e-12) * best


@pytest.mark.parametrize("seed, design", [(1, (0.002, 400, 11)), (2, (0.005, 500, 3))])
def test_screened_fit_keeps_the_best_basin_when_few_rows_show_the_bend(seed, design):
    # Only one or two of the rare large-flow rows that show the bend land on
    # every 64th row.  Starts resumed from their screened endpoints stayed in a
    # wrong basin and were reported converged, 4.8e-2 and 1.6e-2 above the
    # unscreened RSS; run from their grid points, they end where they do unscreened.
    panel = heavy_tail_panel(seed, *design)
    assert panel.n > estimation._SCREEN_ROWS
    fit = fit_sshape(panel)
    with mock.patch.object(estimation, "_SCREEN_ROWS", panel.n):
        full = fit_sshape(panel)
    assert fit.converged and full.converged
    assert fit.rss <= (1.0 + 1e-12) * full.rss


def test_panels_up_to_the_threshold_are_fit_from_the_full_grid_unscreened():
    # 32 days of 257 bars make 8,192 rows: one row more takes the screen.
    panel = make_panel(n_days=33, bars_per_day=257, noise_sd=5e-4, seed=4003)
    cut = estimation._SCREEN_ROWS
    at = RegressionPanel(panel.r[:cut], panel.x[:cut], panel.x_prev[:cut])
    with mock.patch.object(estimation, "_lm_starts", wraps=estimation._lm_starts) as lm_starts:
        fit = fit_sshape(at)
    assert lm_starts.call_count == 1
    theta0s, starts = _run_starts(at, None)
    best = estimation._best_start(starts)
    a, u, p, v = starts.theta[best].tolist()
    assert (fit.a_hat, fit.param_hats, fit.rss, fit.converged) == \
        (a, {"ell": math.exp(u), "p": p, "q": math.exp(v)}, starts.rss[best], True)
    above = RegressionPanel(panel.r[:cut + 1], panel.x[:cut + 1], panel.x_prev[:cut + 1])
    with mock.patch.object(estimation, "_lm_starts", wraps=estimation._lm_starts) as lm_starts:
        fit_sshape(above)
    # Every 64th row, then the full panel.
    assert [call.args[2] for call in lm_starts.call_args_list] == [129, cut + 1]


def _survivors(starts, r=np.ones(104)):
    """The rows whose grid points the screen keeps on returns r; 104 rows as in _retire."""
    return estimation._distinct_survivors(starts, r).tolist()


def test_screen_carries_one_start_per_optimum():
    # The metric rule: start 0 lies within start 1's reach of 1, start 2 beyond
    # both start 1's and start 0's (reach 2); a retired or infeasible start
    # with the lowest RSS takes no part.
    stopped = _starts([200.0, 100.0, 300.0, 50.0, 40.0], a=[0.5, 0.0, 3.0, 0.0, 0.0])
    stopped.stop[:] = (estimation._FTOL, estimation._GTOL, estimation._MAX_ITER, estimation._MERGED,
                       estimation._INFEASIBLE)
    assert _survivors(stopped) == [1, 2]
    # The RSS tie: with a metric too soft to absorb, a start whose RSS is
    # within 1e-12 of a lower one is a duplicate however far away it lies, but
    # only of a start carried itself.
    tied = _starts([100.0, 100.0 + 5e-11, 100.0 + 1.4e-10, 100.0 + 1.9e-10], a=[0.0, 10.0, 20.0, 30.0])
    tied.JtJ[:] = 1e-12 * np.eye(4)
    tied.stop[:] = estimation._FTOL
    assert _survivors(tied) == [0, 2]
    # Zero RSS absorbs nothing by the metric, but every start with an RSS of
    # at most 1e-12 r'r (here 104) is at one exact fit, whose lowest RSS stays;
    # a start above that floor stays with it, and with r = 0 there is no floor.
    for r, kept in ((np.ones(104), [1, 3]), (np.zeros(104), [0, 1, 2, 3])):
        exact = _starts([1e-30, 0.0, 1e-10, 1.1e-10], a=[0.0, 10.0, 20.0, 30.0])
        exact.JtJ[:] = 1e-12 * np.eye(4)
        exact.stop[:] = estimation._FTOL
        assert _survivors(exact, r) == kept


CHILD_FITS = """
from liqimpact.estimation import RegressionPanel, estimate_ou, fit_ols, fit_sshape
from liqimpact.impact import SShapeParams
from liqimpact.sde import OUParams, synth_regression_panel
panel = RegressionPanel.from_synthetic(synth_regression_panel(
    1e-6, SShapeParams(1e-5, -3e-3, 8e-5), OUParams(0.1, 5.0, 100.0), 100, 360, 5e-4, 1001))
for fit in (fit_sshape(panel), fit_ols(panel, "linear"), fit_ols(panel, "sqrt"), estimate_ou(panel.x)):
    print(repr(fit))
"""


def test_fits_of_a_large_panel_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 elements across its
    # threads; summed whole, this panel's S-shape and linear RSS changed in the
    # last bits between one thread and two.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-c", CHILD_FITS], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    # repr prints each float's shortest round-trip digits: equal text is equal bits.
    assert outputs[0].count("FitResult(") == 3
    assert outputs[0] == outputs[1]


def test_long_panels_sum_their_products_in_chunks_as_the_oracle_does():
    panel = make_panel(n_days=50, bars_per_day=360, noise_sd=5e-4, seed=4007)
    assert panel.n > 2 * estimation._CHUNK
    grid = scale_grid(panel)
    theta0s = estimation._start_thetas(panel, grid)
    _assert_evaluation_matches_oracle(panel, theta0s)
    _, got = _run_starts(panel, grid)
    _assert_same_outcomes(got, _lockstep_oracle(panel, theta0s))


# ---------------------------------------------------------------------------
# flow-process estimation


def _exact_ou(c, m, eta, n, seed, dt=1.0):
    rng = np.random.default_rng(seed)
    decay = math.exp(-c * dt)
    sd = eta * math.sqrt((1.0 - decay ** 2) / (2.0 * c))
    shocks = sd * rng.standard_normal(n - 1)
    x0 = m + eta / math.sqrt(2.0 * c) * rng.standard_normal()
    dev, _ = lfilter([1.0], [1.0, -decay], shocks, zi=np.array([decay * (x0 - m)]))
    return np.concatenate(([x0], m + dev))


def test_estimate_ou_recovers_truth():
    c, m, eta = 0.1, 5.0, 100.0
    flows = _exact_ou(c, m, eta, 200_000, seed=41)
    est = estimate_ou(flows)
    assert not est.non_mean_reverting
    assert abs((est.c_hat - c) / est.se_c) < 3.0
    assert abs((est.m_hat - m) / est.se_m) < 3.0
    assert abs((est.eta_diffusion_hat - eta) / est.se_eta_diffusion) < 3.0
    stationary = eta / math.sqrt(2.0 * c)
    assert est.eta_hat == pytest.approx(stationary, rel=0.02)
    assert est.n == 200_000


def test_estimate_ou_matches_brute_force_ar1():
    flows = _exact_ou(0.3, -2.0, 40.0, 5_000, seed=43)
    est = estimate_ou(flows)
    design = np.column_stack([np.ones(len(flows) - 1), flows[:-1]])
    beta, *_ = np.linalg.lstsq(design, flows[1:], rcond=None)
    assert est.beta0 == pytest.approx(beta[0], rel=1e-10)
    assert est.beta1 == pytest.approx(beta[1], rel=1e-10)
    assert est.c_hat == pytest.approx(-math.log(beta[1]), rel=1e-10)
    assert est.m_hat == pytest.approx(beta[0] / (1.0 - beta[1]), rel=1e-10)
    assert est.eta_hat == pytest.approx(float(np.std(flows, ddof=1)), rel=1e-12)
    resid = flows[1:] - design @ beta
    sigma_u = math.sqrt(float(resid @ resid) / (len(flows) - 1 - 2))
    want_eta_diff = sigma_u * math.sqrt(2.0 * est.c_hat / (1.0 - est.beta1 ** 2))
    assert est.eta_diffusion_hat == pytest.approx(want_eta_diff, rel=1e-10)


def test_estimate_ou_day_segments_do_not_pair_across_days():
    arr = _exact_ou(0.2, 0.0, 50.0, 4_000, seed=47).reshape(8, 500)
    by_rows = estimate_ou(arr)
    by_list = estimate_ou([row for row in arr])
    assert by_rows.beta1 == by_list.beta1
    assert by_rows.n == 4_000
    # Flattening pairs across the seven boundaries and shifts the estimate.
    flat = estimate_ou(arr.ravel())
    assert flat.n == 4_000
    assert flat.beta1 != by_rows.beta1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=31, max_size=120).map(np.array)
       | st.builds(lambda eta, seed: _exact_ou(0.2, 1e8, eta, 200, seed=seed),
                   st.sampled_from([1e-6, 1e-5, 1.0]), st.integers(0, 2 ** 32 - 1)))
def test_estimate_ou_regression_is_fit_ols_linear_bitwise(flows):
    # One line fit serves both: X_t on X_{t-1} is fit_ols's linear model with x_prev = 0.
    panel = RegressionPanel(flows[1:], flows[:-1], np.zeros(len(flows) - 1))
    try:
        fit = fit_ols(panel, "linear")
    except EstimationError:
        with pytest.raises(EstimationError):
            estimate_ou(flows)
        return
    est = estimate_ou(flows)
    assert (est.beta0, est.beta1) == (fit.a_hat, fit.param_hats["alpha"])


def test_estimate_ou_negative_autocorrelation_flagged():
    flows = np.tile([1.5, -1.5], 100) + np.random.default_rng(53).normal(0, 0.01, 200)
    est = estimate_ou(flows)
    assert est.non_mean_reverting
    assert est.c_hat is None and est.m_hat is None and est.eta_diffusion_hat is None
    assert est.beta1 < 0.0
    assert math.isfinite(est.eta_hat)


def test_estimate_ou_dt_scaling():
    flows = _exact_ou(0.2, 1.0, 30.0, 3_000, seed=59)
    unit = estimate_ou(flows, dt=1.0)
    half = estimate_ou(flows, dt=0.5)
    assert half.c_hat == pytest.approx(2.0 * unit.c_hat, rel=1e-12)
    assert half.m_hat == pytest.approx(unit.m_hat, rel=1e-12)
    assert half.eta_diffusion_hat == pytest.approx(math.sqrt(2.0) * unit.eta_diffusion_hat, rel=1e-12)


def test_estimate_ou_validation():
    with pytest.raises(EstimationError):
        estimate_ou(np.zeros(29) + np.arange(29))  # too few observations
    with pytest.raises(EstimationError):
        estimate_ou(np.full(100, 3.0))  # no variance
    # Flows that vary only in their last bits: the fit of that rounding noise is refused
    # by the line fit's rank test, as fit_ols refuses a design collinear with the intercept.
    near_constant = 1e8 + 1e-8 * np.random.default_rng(61).standard_normal(400)
    assert np.ptp(near_constant) > 0.0
    with pytest.raises(EstimationError, match="no variance beyond rounding"):
        estimate_ou(near_constant)
    for flows, message in ((np.zeros((2, 2, 40)), "flows must be 1-d, 2-d, or a sequence of 1-d arrays"),
                           ([[1.0]] * 40, "need at least one segment with two observations"),
                           (np.where(np.arange(300) == 7, math.nan, np.arange(300.0)), "flows contain non-finite")):
        with pytest.raises(EstimationError, match=f"^{message}"):
            estimate_ou(flows)
    # A list of scalars is one series, as its array is.
    flows = _exact_ou(0.2, 1.0, 30.0, 300, seed=59)
    assert repr(estimate_ou(flows.tolist())) == repr(estimate_ou(flows))
    for dt in (0.0, math.nan, math.inf):  # nan gave NaN estimates and inf a c_hat of 0.0
        with pytest.raises(EstimationError, match=f"^dt must be positive and finite, got {dt}$"):
            estimate_ou(_exact_ou(0.2, 1.0, 30.0, 300, seed=59), dt=dt)



# ---------------------------------------------------------------------------
# serialization


def test_daily_fits_round_trip(tmp_path):
    panel = make_panel(n_days=2, bars_per_day=40, noise_sd=2e-4, seed=61)
    fs = fit_sshape(panel, scale_grid(panel))
    fl = fit_ols(panel, "linear")
    dest = tmp_path / "fits.csv"
    write_daily_fits_csv([("2024-01-02", fs), ("2024-01-02", fl)], dest)
    rows = read_daily_fits_csv(dest)
    assert len(rows) == 2
    srow = next(r for r in rows if r["model"] == "sshape")
    assert srow["date"] == "2024-01-02"
    assert srow["ell"] == fs.param_hats["ell"]
    assert srow["q"] == fs.param_hats["q"]
    assert srow["alpha"] is None
    assert srow["converged"] is True
    lrow = next(r for r in rows if r["model"] == "linear")
    assert lrow["alpha"] == fl.param_hats["alpha"]
    assert lrow["ell"] is None
    assert lrow["bic"] == fl.bic


def test_fit_result_to_dict_keys():
    panel = make_panel(n_days=2, bars_per_day=40, seed=67)
    fit = fit_ols(panel, "sqrt")
    d = fit_result_to_dict(fit)
    assert d["model"] == "sqrt"
    assert set(d) >= {"model", "a_hat", "param_hats", "ses", "t_stats",
                      "rss", "adj_r2", "bic", "n", "k", "converged"}
    assert d["param_hats"]["alpha"] == fit.param_hats["alpha"]
