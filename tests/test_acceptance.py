"""Acceptance suite: one test per shipped guarantee, with runtime budgets.

Each test wraps its body in the ``criterion`` recorder, which appends a
PASS/FAIL line with the elapsed time to the list that conftest prints in a
dedicated section at the end of the run, and enforces the stated runtime
budget as part of the criterion itself.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtr

import conftest
from ingest_oracle import tick_table
from ode_oracle import OdeSpec, solve_ode_numeric
from liqimpact.compare import DailyMetricSeries, PERCENTILE_LEVELS, descriptives, paired_t_test
from liqimpact.estimation import RegressionPanel, estimate_ou, fit_ols, fit_sshape
from liqimpact.impact import (
    SShapeParams,
    StructuralParams,
    f_sshape,
    feasibility_margin,
    g_sshape,
    inflection_point,
    linear_alpha_from_ps,
    sigma_p_squared,
)
from liqimpact.ingest import TickRecord, build_bars, read_ticks, sign_trade, write_bars_csv
from liqimpact.sde import OUParams, SimConfig, simulate_path, synth_regression_panel

DATA = Path(__file__).parent / "data"

NK = SShapeParams(ell=1.3e-5, p=-0.0034, q=8.15e-5)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < limit_s, f"runtime {elapsed:.3f}s exceeds the {limit_s}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name} ({elapsed:.3f}s)")


def scale_grid(reg: RegressionPanel) -> list[tuple[float, float]]:
    """Starting (p, q) pairs scaled to the panel's flow dispersion."""
    s = float(np.std(reg.x, ddof=1))
    return [(-1e-2 / s * k, 1e-2 / s**2 * 10.0**j) for k in (-2, 0, 2) for j in (-1, 0, 1)]


def test_01_inflection_reproduction():
    inflection_point(NK)  # warm the call path before the timed run
    with criterion(1, "inflection point at -p/q reproduces the fitted market depth", 1e-3):
        value = inflection_point(NK)
        assert value == pytest.approx(41.7, abs=0.05)
        assert abs(value - 42.0) <= 0.5


def test_02_closed_form_matches_ode_oracle():
    rng = np.random.default_rng(123)
    with criterion(2, "closed-form gradient matches an RK4 integration of its ODE", 10.0):
        qs = []
        while len(qs) < 50:
            ell = 10.0 ** rng.uniform(-6, -3)
            q = 10.0 ** rng.uniform(-8, -2)
            b = rng.uniform(-3.0, 3.0)
            params = SShapeParams(ell=ell, p=b * math.sqrt(q), q=q)
            if not feasibility_margin(params) > 0.05:
                continue
            half = 5.0 / math.sqrt(q)
            sol = solve_ode_numeric(OdeSpec.from_sshape(params), (-half, half),
                                    step=2.0 * half / 2000.0)
            err = float(np.max(np.abs(sol.g - g_sshape(sol.x, params))))
            assert err < 1e-8, f"sup error {err:.3e} for {params}"
            qs.append(q)
        assert min(qs) < 1e-7 and max(qs) > 1e-3  # draws span the stated q range


def test_03_curvature_splits_at_inflection():
    rng = np.random.default_rng(7)
    with criterion(3, "second derivative is positive below and negative above -p/q", 5.0):
        for _ in range(50):
            q = 10.0 ** rng.uniform(-8, -2)
            b = rng.uniform(-3.0, 3.0)
            # Keep ell small enough that the finite difference stays
            # well-conditioned over the whole probe range.
            cap = 1e-4 * math.sqrt(q) * math.exp(-0.5 * b * b)
            ell = cap * 10.0 ** rng.uniform(-2, 0)
            params = SShapeParams(ell=ell, p=b * math.sqrt(q), q=q)
            assert feasibility_margin(params) > 0
            scale = 1.0 / math.sqrt(q)
            xstar = inflection_point(params)
            for dist in np.geomspace(1e-3, 3.0, 8):
                h = min(0.01, dist / 4.0) * scale
                for sign in (-1.0, 1.0):
                    x = xstar + sign * dist * scale
                    f2 = (f_sshape(x + h, params) - 2.0 * f_sshape(x, params)
                          + f_sshape(x - h, params)) / (h * h)
                    if sign < 0:
                        assert f2 > 0, f"not convex at {x} for {params}"
                    else:
                        assert f2 < 0, f"not concave at {x} for {params}"


def _struct(**over) -> StructuralParams:
    base = dict(mu_s=0.08, sigma_s=0.25, rho=0.0, c=0.2, m=3.0, eta=80.0,
                delta=0.0, tau=0.0, r=0.05, kappa0=0.0)
    base.update(over)
    return StructuralParams(**base)


def test_04_one_step_moments_match_ito():
    n = 100_000
    dt = 1e-3
    cases = [
        (_struct(rho=-0.5), 10.0, "physical"),
        (_struct(rho=0.0), 0.0, "physical"),
        (_struct(rho=0.5), -20.0, "physical"),
        (_struct(rho=0.3, tau=0.3, delta=1e-3), 40.0, "risk-neutral"),
        (_struct(rho=-0.8, sigma_s=0.4, eta=120.0, c=0.5), 5.0, "physical"),
    ]
    with criterion(4, "one-step return variance and flow covariance match the model", 60.0):
        for idx, (sp, x0, measure) in enumerate(cases):
            cfg = SimConfig(structural=sp, impact=NK, n_steps=1, dt=dt,
                            x0=x0, s0=100.0, seed=0, measure=measure)
            r = np.empty(n)
            dx = np.empty(n)
            for s in range(n):
                path = simulate_path(replace(cfg, seed=idx * n + s))
                r[s] = math.log(path.p[1] / path.p[0])
                dx[s] = path.x[1] - path.x[0]
            g0 = float(g_sshape(x0, NK))
            var_want = sigma_p_squared(x0, g0, sp) * dt
            var_hat = float(r.var(ddof=1))
            se_var = var_hat * math.sqrt(2.0 / (n - 1))
            assert abs(var_hat - var_want) < 3.0 * se_var, f"variance off in case {idx}"
            cov_want = (sp.rho * sp.eta * sp.sigma_s + sp.eta**2 * g0) * dt
            cov_hat = float(np.cov(r, dx, ddof=1)[0, 1])
            se_cov = math.sqrt((var_hat * dx.var(ddof=1) + cov_hat**2) / (n - 1))
            assert abs(cov_hat - cov_want) < 3.0 * se_cov, f"covariance off in case {idx}"


def test_05_panel_recovery_within_reported_errors():
    truth = {"a": 1e-6, "ell": 1e-5, "p": -3e-3, "q": 8e-5}
    impact = SShapeParams(truth["ell"], truth["p"], truth["q"])
    flow = OUParams(c=0.1, m=5.0, eta=100.0)
    with criterion(5, "synthetic panels recover the generating parameters", 300.0):
        hits = 0
        for rep in range(50):
            panel = synth_regression_panel(a=truth["a"], impact=impact, flow=flow,
                                           n_days=100, bars_per_day=360,
                                           noise_sd=5e-4, seed=1000 + rep)
            reg = RegressionPanel.from_synthetic(panel)
            fit = fit_sshape(reg, scale_grid(reg))
            if not fit.converged:
                continue
            hats = {"a": fit.a_hat, **fit.param_hats}
            if all(abs(hats[k] - truth[k]) <= 3.0 * fit.ses[k] for k in truth):
                hits += 1
        assert hits >= 45, f"truth covered in only {hits}/50 replications"

        clean = synth_regression_panel(a=truth["a"], impact=impact, flow=flow,
                                       n_days=100, bars_per_day=360,
                                       noise_sd=0.0, seed=4242)
        reg = RegressionPanel.from_synthetic(clean)
        fit = fit_sshape(reg, scale_grid(reg))
        assert fit.converged
        hats = {"a": fit.a_hat, **fit.param_hats}
        for k, want in truth.items():
            assert abs(hats[k] - want) / abs(want) < 1e-4, f"{k} off on the clean panel"


def test_06_flow_estimator_recovers_exact_simulation():
    c, m, eta, n = 0.1, 5.0, 100.0, 1_000_000
    with criterion(6, "mean-reversion estimates cover an exactly simulated flow", 30.0):
        rng = np.random.default_rng(2718)
        decay = math.exp(-c)
        trans_sd = eta * math.sqrt((1.0 - decay * decay) / (2.0 * c))
        stat_sd = eta / math.sqrt(2.0 * c)
        x = np.empty(n)
        x[0] = m + stat_sd * rng.standard_normal()
        shocks = m * (1.0 - decay) + trans_sd * rng.standard_normal(n - 1)
        x[1:] = lfilter([1.0], [1.0, -decay], shocks, zi=np.array([decay * x[0]]))[0]

        est = estimate_ou(x, dt=1.0)
        assert not est.non_mean_reverting
        assert abs(est.c_hat - c) <= 3.0 * est.se_c
        assert abs(est.m_hat - m) <= 3.0 * est.se_m
        assert abs(est.eta_diffusion_hat - eta) <= 3.0 * est.se_eta_diffusion
        assert abs(est.eta_hat - stat_sd) / stat_sd < 0.01


def test_07_linear_special_case():
    with criterion(7, "constant-gradient root is exact and matches the linear fit", 30.0):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            p = float(rng.uniform(-1.5, 1.5))
            s = 10.0 ** rng.uniform(math.log10(0.5), math.log10(5.0))
            alpha, beta = linear_alpha_from_ps(p, s)
            assert alpha > 0
            assert abs(p * alpha + alpha * alpha - s) <= 1e-14 * s
            assert beta == pytest.approx(p + 2.0 * alpha, rel=1e-15)

        # A panel generated from an exactly linear curve: the S-shape fit's
        # depth slope and the linear OLS slope must agree within sampling error.
        rng = np.random.default_rng(640)
        alpha_true = 5e-6
        c_f, eta_f = 0.1, 50.0
        decay = math.exp(-c_f)
        t_sd = eta_f * math.sqrt((1.0 - decay * decay) / (2.0 * c_f))
        s_sd = eta_f / math.sqrt(2.0 * c_f)
        xs, xps, rs = [], [], []
        for _ in range(10):
            x = np.empty(360)
            x[0] = s_sd * rng.standard_normal()
            shocks = t_sd * rng.standard_normal(359)
            x[1:] = lfilter([1.0], [1.0, -decay], shocks, zi=np.array([decay * x[0]]))[0]
            rs.append(1e-6 + alpha_true * np.diff(x) + 2e-4 * rng.standard_normal(359))
            xs.append(x[1:])
            xps.append(x[:-1])
        reg = RegressionPanel(r=np.concatenate(rs), x=np.concatenate(xs),
                              x_prev=np.concatenate(xps))
        sfit = fit_sshape(reg, scale_grid(reg))
        lfit = fit_ols(reg, "linear")
        gap = abs(sfit.param_hats["ell"] - lfit.param_hats["alpha"])
        band = 2.0 * math.hypot(sfit.ses["ell"], lfit.ses["alpha"])
        assert gap <= band, f"ell {sfit.param_hats['ell']:.3e} vs alpha {lfit.param_hats['alpha']:.3e}"


def _random_stream(rng) -> tuple[list[TickRecord], float]:
    """An ordered quote/trade stream inside one session hour, plus the signed
    trade-size total computed by an independent replay of the quote state."""
    n = int(rng.integers(5, 41))
    base = datetime(2024, 5, 7, 9, 0, 0)
    offsets = np.sort(rng.choice(3599, size=n, replace=False))
    ticks: list[TickRecord] = []
    expected = 0.0
    bid = ask = None
    for off in offsets:
        ts = base + timedelta(seconds=int(off))
        if rng.random() < 0.45:
            b = round(100.0 + 0.01 * int(rng.integers(-20, 20)), 2)
            a = round(b + 0.01 * int(rng.integers(1, 5)), 2)
            ticks.append(TickRecord(timestamp=ts, kind="Q", bid=b, ask=a,
                                    bid_size=float(rng.integers(1, 99)),
                                    ask_size=float(rng.integers(1, 99))))
            bid, ask = b, a
        else:
            price = round(100.0 + 0.01 * int(rng.integers(-22, 22)), 2)
            size = float(rng.integers(1, 20))
            ticks.append(TickRecord(timestamp=ts, kind="T", price=price, size=size))
            expected += sign_trade(price, bid, ask, 0.01) * size
    return ticks, expected


def test_08_ingestion_golden_and_flow_conservation(tmp_path):
    with criterion(8, "golden tick fixture reproduces byte-identical bars; flow is conserved", 5.0):
        ticks = read_ticks(DATA / "golden_ticks.csv")
        days = build_bars(ticks, "09:00", "09:05", 60, 0.01)
        dest = tmp_path / "bars.csv"
        write_bars_csv(days, dest)
        assert dest.read_bytes() == (DATA / "golden_bars.csv").read_bytes()

        rng = np.random.default_rng(55)
        for _ in range(1000):
            stream, expected = _random_stream(rng)
            bars = build_bars(tick_table(stream), "09:00", "10:00", 60, 0.01)
            total = sum(b.order_flow for day in bars.values() for b in day)
            assert total == expected


def test_09_statistics_match_brute_force():
    with criterion(9, "paired t and descriptives match brute-force recomputation", 5.0):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            dates = tuple(f"d{i:03d}" for i in range(n))
            va = rng.normal(size=n)
            vb = rng.normal(size=n)
            a = DailyMetricSeries("c", "m1", dates, va, va, va)
            b = DailyMetricSeries("c", "m2", dates, vb, vb, vb)

            res = paired_t_test(a, b, "rss")
            d = [float(x - y) for x, y in zip(va, vb)]
            mean = sum(d) / n
            var = sum((v - mean) ** 2 for v in d) / (n - 1)
            t = mean / math.sqrt(var / n)
            assert res.n == n and not res.degenerate
            assert res.mean_difference == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert res.t_statistic == pytest.approx(t, rel=1e-12, abs=1e-12)
            rev = paired_t_test(b, a, "rss")
            assert rev.mean_difference == -res.mean_difference
            assert rev.t_statistic == -res.t_statistic

            desc = descriptives(va)
            mu = sum(va) / n
            sd = math.sqrt(sum((v - mu) ** 2 for v in va) / (n - 1))
            assert desc.mean == pytest.approx(mu, rel=1e-12, abs=1e-12)
            assert desc.sd == pytest.approx(sd, rel=1e-12, abs=1e-12)
            s = np.sort(va)
            prev = -math.inf
            for lvl in PERCENTILE_LEVELS:
                rank = (n - 1) * lvl / 100.0
                lo = int(math.floor(rank))
                frac = rank - lo
                want = s[lo] if lo == n - 1 else s[lo] + frac * (s[lo + 1] - s[lo])
                assert desc.percentiles[lvl] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert desc.percentiles[lvl] >= prev  # monotone in the level
                prev = desc.percentiles[lvl]


def test_10_feasibility_margin_stable():
    with criterion(10, "feasibility margin stays stable out to extreme curvature loads", 1.0):
        q = 1e-4
        for load in np.geomspace(1.0, 1e4, 60):
            b = math.sqrt(2.0 * load)
            neg = feasibility_margin(SShapeParams(ell=1e-5, p=-b * math.sqrt(q), q=q))
            assert 0.9 < neg <= 1.0  # the deep negative-p tail stays feasible
            pos = feasibility_margin(SShapeParams(ell=1e-5, p=b * math.sqrt(q), q=q))
            assert not math.isnan(pos)
            if load >= 720.0:
                assert pos == -math.inf  # the load term exceeds the double range
            elif load >= 10.0:
                assert pos < 0.0

        rng = np.random.default_rng(8)
        compared = 0
        for _ in range(400):
            qq = 10.0 ** rng.uniform(-6, -2)
            bb = float(rng.uniform(-2.5, 2.5))
            ell = 10.0 ** rng.uniform(-8, -4)
            term = ell * math.sqrt(2.0 * math.pi / qq) * math.exp(0.5 * bb * bb) * float(ndtr(bb))
            if term > 0.5:
                continue  # cancellation regime: relative agreement is meaningless there
            naive = 1.0 - term
            got = feasibility_margin(SShapeParams(ell=ell, p=bb * math.sqrt(qq), q=qq))
            assert abs(got - naive) <= 1e-12 * abs(naive)
            compared += 1
        assert compared >= 200
