"""Tests for the coupled price/flow simulator and synthetic regression panels."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import bars_oracle
import sim_oracle
from liqimpact import sde
from liqimpact.cli import main
from liqimpact.impact import (
    _SMALLQ_REL,
    LinearParams,
    ParameterError,
    SqrtParams,
    SShapeParams,
    StructuralParams,
    curve_to_dict,
    f_sqrt,
    f_sshape,
    g_sshape,
    sigma_p_squared,
    structural_to_pq,
)
from liqimpact.ingest import PANEL_HEADER, read_bars_csv, write_panel_csv
from liqimpact.sde import (
    OUParams,
    PATH_HEADER,
    SimConfig,
    SimulationError,
    correlated_increments,
    simulate_path,
    synth_regression_panel,
)

NK = SShapeParams(ell=1.3e-5, p=-0.0034, q=8.15e-5)

SP = StructuralParams(mu_s=0.08, sigma_s=0.25, rho=0.4, c=0.2, m=3.0,
                      eta=80.0, delta=0.0, tau=0.0, r=0.05, kappa0=0.0)


def make_config(**overrides):
    base = dict(structural=SP, impact=NK, n_steps=100, dt=0.01,
                x0=10.0, s0=100.0, seed=2024, measure="physical")
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# correlated increments


def test_correlated_increments_rho_one_bitwise():
    rng = np.random.Generator(np.random.PCG64(5))
    dz, dw = correlated_increments(1.0, 0.01, rng, size=1000)
    assert np.array_equal(dz, dw)


def test_correlated_increments_moments():
    rng = np.random.Generator(np.random.PCG64(6))
    n = 200_000
    dt = 0.25
    rho = 0.5
    dz, dw = correlated_increments(rho, dt, rng, size=n)
    se = dt * math.sqrt(2.0 / n)
    assert np.var(dw) == pytest.approx(dt, abs=4 * se)
    assert np.var(dz) == pytest.approx(dt, abs=4 * se)
    corr = np.corrcoef(dz, dw)[0, 1]
    assert corr == pytest.approx(rho, abs=4.0 / math.sqrt(n))


def test_correlated_increments_zero_rho_uncorrelated():
    rng = np.random.Generator(np.random.PCG64(7))
    n = 200_000
    dz, dw = correlated_increments(0.0, 1.0, rng, size=n)
    assert abs(np.corrcoef(dz, dw)[0, 1]) < 4.0 / math.sqrt(n)


def test_correlated_increments_single_pair():
    rng = np.random.Generator(np.random.PCG64(8))
    dz, dw = correlated_increments(0.3, 0.5, rng)
    assert np.isscalar(dz) or dz.shape == ()
    assert math.isfinite(float(dz)) and math.isfinite(float(dw))


def test_correlated_increments_validation():
    rng = np.random.Generator(np.random.PCG64(9))
    with pytest.raises(ParameterError):
        correlated_increments(1.2, 0.01, rng)
    with pytest.raises(ParameterError):
        correlated_increments(0.0, 0.0, rng)
    with pytest.raises(ParameterError):
        correlated_increments(0.0, math.nan, rng)
    with pytest.raises(ParameterError, match="positive and finite, got inf"):
        correlated_increments(0.0, math.inf, rng, size=3)


# ---------------------------------------------------------------------------
# path simulation


def test_same_seed_same_path_different_seed_differs():
    a = simulate_path(make_config())
    b = simulate_path(make_config())
    assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)
    c = simulate_path(make_config(seed=2025))
    assert not np.array_equal(a.x, c.x)


def test_seed_none_is_drawn_and_recorded():
    cfg = make_config(seed=None)
    path = simulate_path(cfg)
    assert isinstance(path.seed_used, int)
    again = simulate_path(make_config(seed=path.seed_used))
    assert np.array_equal(path.x, again.x)
    assert path.metadata()["rng"]["seed"] == path.seed_used


def test_path_matches_direct_recursion():
    """Replay the generator draws and the Euler/log-normal recursions by hand."""
    cfg = make_config()
    path = simulate_path(cfg)
    sp = cfg.structural
    n, dt = cfg.n_steps, cfg.dt
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    z = rng.standard_normal((n, 2))
    dw = math.sqrt(dt) * z[:, 0]
    dz = math.sqrt(dt) * (sp.rho * z[:, 0] + math.sqrt(1 - sp.rho ** 2) * z[:, 1])

    coef = 1.0 - sp.c * dt
    shocks = sp.c * sp.m * dt + sp.eta * dw
    x = [cfg.x0]
    s = [cfg.s0]
    for k in range(n):
        x.append(shocks[k] + coef * x[-1])
        s.append(s[-1] * math.exp((sp.mu_s - 0.5 * sp.sigma_s ** 2) * dt + sp.sigma_s * dz[k]))
    x = np.array(x)
    s = np.array(s)
    p = s * np.exp(f_sshape(x, cfg.impact))

    assert np.array_equal(path.x, x)
    np.testing.assert_allclose(path.s, s, rtol=1e-13)
    np.testing.assert_allclose(path.p, p, rtol=1e-13)
    np.testing.assert_allclose(path.t, np.arange(n + 1) * dt, rtol=0, atol=0)


def _replay(cfg):
    """x, s and p of cfg's path, from the generator's draws and scalar recursions.

    The flow drift is c(m - x) under the physical measure and
    c(m - x) - (delta - tau x) under the risk-neutral one, each written as
    a constant plus a multiple of x so the Euler step matches the
    simulator's arithmetic. S takes mu_s, or the state-dependent drift
    r - [{c(m - x) - (delta - tau x) + rho eta sigma_s} g(x)
    + (eta^2 / 2)(g'(x) + g(x)^2)] from the module docstring.
    """
    sp, impact = cfg.structural, cfg.impact
    n, dt = cfg.n_steps, cfg.dt
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    z = rng.standard_normal((n, 2))
    dw = math.sqrt(dt) * z[:, 0]
    dz = math.sqrt(dt) * (sp.rho * z[:, 0] + math.sqrt(1 - sp.rho ** 2) * z[:, 1])
    if cfg.measure == "physical":
        const, coef = sp.c * sp.m * dt, 1.0 - sp.c * dt
    else:
        const, coef = (sp.c * sp.m - sp.delta) * dt, 1.0 + (sp.tau - sp.c) * dt
    x = [cfg.x0]
    s = [cfg.s0]
    for k in range(n):
        xk = x[-1]
        if cfg.measure == "physical":
            mu = sp.mu_s
        else:
            g = g_sshape(xk, impact)
            gp = -(impact.p + impact.q * xk) * g - g * g
            flow_drift = sp.c * (sp.m - xk) - (sp.delta - sp.tau * xk)
            mu = sp.r - ((flow_drift + sp.rho * sp.eta * sp.sigma_s) * g
                         + 0.5 * sp.eta ** 2 * (gp + g * g))
        x.append((const + sp.eta * dw[k]) + coef * xk)
        s.append(s[-1] * math.exp((mu - 0.5 * sp.sigma_s ** 2) * dt + sp.sigma_s * dz[k]))
    x = np.array(x)
    s = np.array(s)
    return x, s, s * np.exp(f_sshape(x, impact))


RN_SP = dataclasses.replace(SP, tau=0.3, delta=1e-3)


@pytest.mark.parametrize("measure, n_steps", [
    ("risk-neutral", 100),
    ("risk-neutral", 1),
    ("physical", 1),
])
def test_path_matches_replayed_recursion(measure, n_steps):
    """Both measures, long and one-step, against the scalar recursions."""
    sp = RN_SP if measure == "risk-neutral" else SP
    cfg = make_config(structural=sp, measure=measure, n_steps=n_steps)
    path = simulate_path(cfg)
    x, s, p = _replay(cfg)
    assert np.array_equal(path.x, x)
    np.testing.assert_allclose(path.s, s, rtol=1e-13)
    np.testing.assert_allclose(path.p, p, rtol=1e-13)
    np.testing.assert_allclose(path.t, np.arange(n_steps + 1) * cfg.dt, rtol=0, atol=0)


NO_DIRECT = SShapeParams(ell=1e-3, p=-0.5, q=1e-3)  # b = p / sqrt(q) = -15.8, off the direct form's band


@pytest.mark.parametrize("measure", ["physical", "risk-neutral"])
@pytest.mark.parametrize("impact", [NK, NO_DIRECT, LinearParams(alpha=2e-5)],
                         ids=["sshape", "sshape-no-direct-form", "linear"])
def test_one_step_path_is_bitwise_the_first_step_of_the_array_recursion(measure, impact):
    """The float one-step path against the array path's first step, seed by seed;
    x0 = 1e-12 is in NK's small-q band, where f and g take the array route."""
    assert NO_DIRECT._direct_form is None and 0.0 < 1e-12 < _SMALLQ_REL * abs(NK.p) / NK.q
    for rho, x0 in ((-1.0, -20.0), (-0.5, 10.0), (0.0, 0.0), (0.4, 40.0), (1.0, 5.0), (0.3, 1e-12)):
        sp = dataclasses.replace(RN_SP, rho=rho)
        cfg = make_config(structural=sp, impact=impact, measure=measure, x0=x0, dt=1e-3)
        for seed in range(200):
            one = simulate_path(dataclasses.replace(cfg, seed=seed, n_steps=1))
            two = simulate_path(dataclasses.replace(cfg, seed=seed, n_steps=2))
            for name in ("x", "s", "p"):
                assert getattr(one, name).tobytes() == getattr(two, name)[:2].tobytes(), (rho, x0, seed, name)


def _assert_same_as_oracle(cfg):
    """simulate_path gives the oracle's x, s and p byte for byte, or its
    SimulationError message and step; returns that error, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = sim_oracle.simulate(cfg)
        except SimulationError as exc:
            with pytest.raises(SimulationError) as got:
                simulate_path(cfg)
            assert (str(got.value), got.value.step) == (str(exc), exc.step)
            return exc
        path = simulate_path(cfg)
    for name, arr in zip(("x", "s", "p"), want):
        assert getattr(path, name).tobytes() == arr.tobytes(), name
    return None


@pytest.mark.parametrize("block", [7, None], ids=["block7", "default"])
@pytest.mark.parametrize("measure", ["physical", "risk-neutral"])
@pytest.mark.parametrize("impact", [NK, LinearParams(alpha=2e-5)], ids=["sshape", "linear"])
def test_blocked_path_is_bitwise_the_whole_path_oracle(monkeypatch, block, measure, impact):
    """Paths one step short of, at, just past and well past a block seam."""
    if block is not None:
        monkeypatch.setattr(sde, "_BLOCK_STEPS", block)
    b = sde._BLOCK_STEPS
    sp = RN_SP if measure == "risk-neutral" else SP
    for n_steps in (b - 1, b, b + 1, 3 * b + 5):
        cfg = make_config(structural=sp, impact=impact, measure=measure, n_steps=n_steps, dt=1e-3,
                          seed=n_steps)
        assert _assert_same_as_oracle(cfg) is None, n_steps


def test_blocked_path_routes_big_phi_in_its_first_block_only(monkeypatch):
    """x0 in big_phi's small-q limit: f (and g) of the first block take the
    routed branch, those of the later blocks the direct one."""
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 7)
    cfg = make_config(structural=RN_SP, measure="risk-neutral", x0=1e-12, n_steps=3 * 7 + 5, dt=1e-3)
    small_q = _SMALLQ_REL * abs(NK.p) / NK.q
    assert 0.0 < cfg.x0 < small_q
    assert _assert_same_as_oracle(cfg) is None
    assert np.abs(simulate_path(cfg).x[1:]).min() > small_q


def test_simulation_error_across_block_seams(monkeypatch):
    """test_simulation_error_carries_step's two overflows at three steps a block,
    then first bad steps in later blocks: s at step 4, x from step 1 to 18."""
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 3)
    s_over, x_over = dataclasses.replace(SP, mu_s=1e306), dataclasses.replace(SP, eta=1e308)
    assert _assert_same_as_oracle(make_config(structural=s_over, n_steps=5)).step == 1
    assert _assert_same_as_oracle(make_config(structural=x_over, dt=1.0, n_steps=20)).step == 2
    late = _assert_same_as_oracle(make_config(structural=dataclasses.replace(SP, mu_s=2e4), n_steps=10))
    assert str(late) == "non-finite s at step 4"
    steps = set()
    for seed in range(2020, 2040):
        err = _assert_same_as_oracle(make_config(structural=x_over, dt=1.0, n_steps=20, seed=seed))
        if err is not None:
            steps.add(err.step)
    assert max(steps) > 3 * 5


def test_supply_identity_holds_pointwise():
    path = simulate_path(make_config())
    np.testing.assert_array_equal(path.p, path.s * np.exp(f_sshape(path.x, NK)))
    assert path.s[0] == 100.0
    assert path.p[0] == 100.0 * math.exp(f_sshape(10.0, NK))


def test_noise_free_limits():
    # Vanishing eta and sigma_s collapse the dynamics onto the deterministic
    # skeleton: geometric flow decay toward m and exponential growth of s.
    sp = dataclasses.replace(SP, sigma_s=0.0, eta=1e-300)
    cfg = make_config(structural=sp, n_steps=50)
    path = simulate_path(cfg)
    k = np.arange(51)
    want_x = sp.m + (cfg.x0 - sp.m) * (1.0 - sp.c * cfg.dt) ** k
    np.testing.assert_allclose(path.x, want_x, rtol=0, atol=1e-9)
    want_s = cfg.s0 * np.exp(sp.mu_s * path.t)
    np.testing.assert_allclose(path.s, want_s, rtol=1e-12)


def test_one_step_moments():
    """Variance of the one-step log price and its covariance with the flow step."""
    cfg = make_config(n_steps=1)
    n = 10_000
    d_logp = np.empty(n)
    d_x = np.empty(n)
    for i in range(n):
        path = simulate_path(dataclasses.replace(cfg, seed=i))
        d_logp[i] = math.log(path.p[1] / path.p[0])
        d_x[i] = path.x[1] - path.x[0]
    g0 = g_sshape(cfg.x0, NK)
    want_var = sigma_p_squared(cfg.x0, g0, SP) * cfg.dt
    got_var = float(np.var(d_logp, ddof=1))
    se_var = want_var * math.sqrt(2.0 / (n - 1))
    assert abs(got_var - want_var) < 3.0 * se_var

    want_cov = (SP.rho * SP.eta * SP.sigma_s + SP.eta ** 2 * g0) * cfg.dt
    got_cov = float(np.cov(d_logp, d_x, ddof=1)[0, 1])
    var_x = float(np.var(d_x, ddof=1))
    se_cov = math.sqrt((got_var * var_x + want_cov ** 2) / (n - 1))
    assert abs(got_cov - want_cov) < 3.0 * se_cov


def test_discounted_price_is_martingale_risk_neutral():
    # Without flow risk compensation (tau = delta = 0) the risk-neutral
    # measure only recenters the exogenous leg; the discounted price must
    # be a martingale for any feasible curve, here over one year.
    cfg = make_config(measure="risk-neutral", n_steps=100, dt=0.01, seed=0)
    n = 20_000
    ratios = np.empty(n)
    for i in range(n):
        path = simulate_path(dataclasses.replace(cfg, seed=i))
        ratios[i] = math.exp(-SP.r * path.t[-1]) * path.p[-1] / path.p[0]
    z = (np.mean(ratios) - 1.0) / (np.std(ratios, ddof=1) / math.sqrt(n))
    assert abs(z) < 3.0


def test_discounted_price_is_martingale_with_flow_compensation():
    # Now with a flow risk premium (tau, delta nonzero) and the impact
    # curve whose (p, q) come from the structural mapping, so the premium
    # is exactly the one the curve absorbs.
    sp = dataclasses.replace(SP, delta=0.001, tau=0.5)
    dec = structural_to_pq(sp)
    imp = SShapeParams(ell=2e-5, p=dec.p, q=dec.q)
    cfg = make_config(structural=sp, impact=imp, x0=5.0,
                      measure="risk-neutral", n_steps=100, dt=0.01)
    n = 20_000
    ratios = np.empty(n)
    for i in range(n):
        path = simulate_path(dataclasses.replace(cfg, seed=777_000 + i))
        ratios[i] = math.exp(-sp.r * path.t[-1]) * path.p[-1] / path.p[0]
    z = (np.mean(ratios) - 1.0) / (np.std(ratios, ddof=1) / math.sqrt(n))
    assert abs(z) < 3.0


def test_path_too_long_for_memory_is_a_parameter_error(monkeypatch):
    # numpy's own shape limits, which it checks before allocating.
    for n_steps, reason in ((10 ** 30, "Maximum allowed dimension exceeded"), (2 ** 62, "array is too big")):
        with pytest.raises(ParameterError, match=rf"^n_steps: {n_steps} steps do not fit in memory \({reason}"):
            simulate_path(make_config(n_steps=n_steps))
    # A refused allocation is simulated, not attempted: where the OS overcommits
    # memory, a real array of 10**12 steps can be handed out and its fill then
    # exhausts the machine.
    empty = np.empty

    def refused(shape, *args, **kwargs):
        if math.prod(shape) > 10 ** 9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refused)
    with pytest.raises(ParameterError, match=r"^n_steps: 1000000000000 steps do not fit in memory \(Unable"):
        simulate_path(make_config(n_steps=10 ** 12))


def test_simulation_error_carries_step():
    sp = dataclasses.replace(SP, mu_s=1e306)
    for n_steps in (5, 1):  # the array path and the one-step float path
        with pytest.raises(SimulationError, match="non-finite s at step 1$") as exc_info, \
                np.errstate(over="ignore"):
            simulate_path(make_config(structural=sp, n_steps=n_steps))
        assert exc_info.value.step == 1

    # A flow shock of eta * dw beyond the float range makes x the first bad array.
    cfg = make_config(structural=dataclasses.replace(SP, eta=1e308), dt=1.0, n_steps=20)
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, _ = _replay(cfg)
    first = int(np.flatnonzero(~np.isfinite(x))[0])
    assert 1 <= first < cfg.n_steps
    with pytest.raises(SimulationError, match=f"non-finite x at step {first}$") as exc_info, \
            np.errstate(over="ignore", invalid="ignore"):
        simulate_path(cfg)
    assert exc_info.value.step == first



def test_sim_config_validation():
    with pytest.raises(ParameterError):
        make_config(dt=0.0)
    with pytest.raises(ParameterError):
        make_config(n_steps=0)
    with pytest.raises(ParameterError):
        make_config(s0=0.0)
    for nan in ({"dt": math.nan}, {"s0": math.nan}):  # NaN fails every comparison, so none may pass a check
        with pytest.raises(ParameterError):
            make_config(**nan)
    # An infinite step passed `dt > 0`, and simulate_path warned and then failed at step 1.
    with pytest.raises(ParameterError, match="^dt must be positive and finite, got inf$"):
        make_config(dt=math.inf)
    # A float or negative seed reached numpy's SeedSequence, a bare TypeError or ValueError.
    for value in (2.5, math.nan, 3.0):
        with pytest.raises(ParameterError, match=f"^seed must be an integer, got {value!r}$"):
            make_config(seed=value)
    with pytest.raises(ParameterError, match="^seed must be non-negative, got -1$"):
        make_config(seed=-1)
    assert make_config(seed=np.int64(3)).seed == 3 and make_config(seed=None).seed is None
    for value in (2.5, math.nan, 3.0):  # a float count used to fail in simulate_path with a bare TypeError
        with pytest.raises(ParameterError, match=f"^n_steps must be an integer, got {value!r}$"):
            make_config(n_steps=value)
    assert make_config(n_steps=np.int64(3)).n_steps == 3
    with pytest.raises(ParameterError):
        make_config(measure="pricing")
    with pytest.raises(ParameterError):
        make_config(impact=SShapeParams(ell=1.0, p=0.0, q=1e-8))  # infeasible

    # sigma_s is squared on every path and eta in the risk-neutral drift: the largest floats
    # whose squares are finite pass, larger ones are a ParameterError, not a bare OverflowError.
    root_max = math.sqrt(np.finfo(float).max)
    above = math.nextafter(root_max, math.inf)
    big = dataclasses.replace(SP, sigma_s=root_max, eta=root_max)
    make_config(structural=big, measure="risk-neutral")
    make_config(structural=dataclasses.replace(SP, eta=1e308))  # physical paths never square eta
    for over, measure in (({"sigma_s": above}, "physical"), ({"sigma_s": 10 ** 400}, "physical"),
                          ({"sigma_s": math.inf}, "risk-neutral"), ({"eta": above}, "risk-neutral"),
                          ({"eta": 1e308}, "risk-neutral")):
        with pytest.raises(ParameterError, match="squared is not a finite float"):
            make_config(structural=dataclasses.replace(SP, **over), measure=measure)


def test_counts_and_seeds_are_not_bools():
    # True is an int to Python: as n_steps it ran a one-step path, as a seed it was
    # recorded as true, and as n_days it reached numpy's shapes, a bare TypeError.
    for key in ("n_steps", "seed"):
        with pytest.raises(ParameterError, match=f"^{key} must be an integer, got True$"):
            make_config(**{key: True})
    flow = OUParams(c=0.1, m=5.0, eta=100.0)
    for key in ("n_days", "bars_per_day", "seed"):
        with pytest.raises(ParameterError, match=f"^{key} must be an integer, got True$"):
            synth_regression_panel(a=0.0, impact=NK, flow=flow, **{"n_days": 2, "bars_per_day": 10, key: True})


def test_path_sampling_interface():
    path = simulate_path(make_config(n_steps=4))
    assert len(path) == len(path.t) == 5
    assert path.t[2] == 2 * path.config.dt


def test_path_metadata_and_csv(tmp_path):
    path = simulate_path(make_config(n_steps=3))
    meta = path.metadata()
    assert meta["kind"] == "path"
    assert meta["rng"] == {"algorithm": "PCG64", "seed": 2024}
    assert meta["config"]["n_steps"] == 3
    assert meta["config"]["structural"]["eta"] == 80.0
    assert meta["config"]["impact"]["family"] == "sshape"
    dest = tmp_path / "path.csv"
    path.write_csv(dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == ",".join(PATH_HEADER)
    assert len(lines) == 1 + len(path)
    cells = lines[1].split(",")
    assert float(cells[1]) == path.s[0]


def test_linear_impact_path():
    cfg = make_config(impact=LinearParams(alpha=2e-6))
    path = simulate_path(cfg)
    np.testing.assert_allclose(path.p, path.s * np.exp(2e-6 * path.x), rtol=1e-14)


# ---------------------------------------------------------------------------
# synthetic regression panels


def test_panel_replay_matches_direct_recursion():
    flow = OUParams(c=0.1, m=5.0, eta=100.0)
    panel = synth_regression_panel(a=1e-6, impact=NK, flow=flow, n_days=3,
                                   bars_per_day=50, noise_sd=5e-4, seed=99)
    rng = np.random.Generator(np.random.PCG64(99))
    decay = math.exp(-flow.c)
    trans_sd = flow.eta * math.sqrt((1.0 - decay ** 2) / (2.0 * flow.c))
    stat_sd = flow.eta / math.sqrt(2.0 * flow.c)
    x0 = flow.m + stat_sd * rng.standard_normal(3)
    shocks = trans_sd * rng.standard_normal((3, 49))
    eps = 5e-4 * rng.standard_normal((3, 49))

    by_day = bars_oracle.by_day(panel.bars)
    for d in range(3):
        dev = x0[d] - flow.m
        xs = [x0[d]]
        for j in range(49):
            dev = shocks[d, j] + decay * dev
            xs.append(flow.m + dev)
        xs = np.array(xs)
        bars = by_day[str(d)]
        assert np.array_equal(np.array([b.order_flow for b in bars]), xs)
        fx = f_sshape(xs, NK)
        want_r = 1e-6 + fx[1:] - fx[:-1] + eps[d]
        got_r = np.array([b.log_return for b in bars[1:]])
        assert np.array_equal(got_r, want_r)
        assert bars[0].log_return is None


def test_panel_shape_days_and_truth():
    flow = OUParams(c=0.2, m=0.0, eta=50.0)
    panel = synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=4,
                                   bars_per_day=30, seed=3)
    assert panel.days == ["0", "1", "2", "3"]
    assert len(panel.bars) == 120
    assert all(len(v) == 30 for v in bars_oracle.by_day(panel.bars).values())
    truth = panel.truth
    assert truth["impact"]["family"] == "sshape"
    assert truth["flow"] == {"c": 0.2, "m": 0.0, "eta": 50.0}
    assert truth["rng"] == {"algorithm": "PCG64", "seed": 3}
    assert panel.metadata()["kind"] == "panel"
    # Prices compound the returns from a base of 100.
    bars = bars_oracle.by_day(panel.bars)["1"]
    assert bars[0].last_price == pytest.approx(100.0, rel=1e-12)
    ratio = bars[5].last_price / bars[4].last_price
    assert math.log(ratio) == pytest.approx(bars[5].log_return, rel=1e-9)


def test_panel_with_square_root_impact():
    imp = SqrtParams(alpha=1e-4)
    panel = synth_regression_panel(a=1e-6, impact=imp, flow=OUParams(c=0.2, m=0.0, eta=50.0),
                                   n_days=3, bars_per_day=20, noise_sd=0.0, seed=6)
    assert panel.truth["impact"] == {"family": "sqrt", "alpha": 1e-4}
    for bars in bars_oracle.by_day(panel.bars).values():
        x = np.array([b.order_flow for b in bars])
        r = np.array([b.log_return for b in bars[1:]])
        assert np.array_equal(r, 1e-6 + f_sqrt(x[1:], imp) - f_sqrt(x[:-1], imp))


def test_panel_day_open_draws_are_stationary():
    flow = OUParams(c=0.3, m=-2.0, eta=40.0)
    panel = synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=3000,
                                   bars_per_day=2, seed=12)
    opens = np.array([bars[0].order_flow for bars in bars_oracle.by_day(panel.bars).values()])
    sd = flow.eta / math.sqrt(2.0 * flow.c)
    assert np.mean(opens) == pytest.approx(flow.m, abs=3.5 * sd / math.sqrt(3000))
    assert np.std(opens, ddof=1) == pytest.approx(sd, rel=0.1)


def test_panel_vanishing_depth_returns_equal_intercept():
    imp = SShapeParams(ell=1e-300, p=0.0, q=1e-6)
    panel = synth_regression_panel(a=2.5e-6, impact=imp, flow=OUParams(c=0.1, m=0.0, eta=10.0),
                                   n_days=2, bars_per_day=20, seed=4)
    rs = [b.log_return for b in bars_oracle.rows(panel.bars) if b.log_return is not None]
    np.testing.assert_allclose(rs, 2.5e-6, rtol=0, atol=1e-280)


def test_panel_csv_round_trip(tmp_path):
    flow = OUParams(c=0.1, m=5.0, eta=100.0)
    panel = synth_regression_panel(a=1e-6, impact=NK, flow=flow, n_days=2,
                                   bars_per_day=15, noise_sd=1e-4, seed=8)
    dest = tmp_path / "panel.csv"
    panel.write_csv(dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == ",".join(PANEL_HEADER)
    back = read_bars_csv(dest)
    assert back.days == panel.bars.days
    assert len(back) == len(panel.bars)
    for a, b in zip(bars_oracle.rows(panel.bars), bars_oracle.rows(back)):
        assert (a.day, a.bar_index) == (b.day, b.bar_index)
        assert b.order_flow == a.order_flow
        assert b.log_return == a.log_return


PANEL_CASES = [  # (seed, impact, n_days, bars_per_day, noise_sd)
    (0, NK, 3, 40, 5e-4),
    (17, NK, 1, 2, 0.0),
    (1000, NK, 5, 120, 5e-4),
    (6, SqrtParams(alpha=1e-4), 3, 20, 1e-4),
    (9, LinearParams(alpha=2e-5), 4, 25, 0.0),
]


@pytest.mark.parametrize("seed, impact, n_days, bars_per_day, noise_sd", PANEL_CASES)
def test_panel_table_matches_per_bar_oracle(tmp_path, seed, impact, n_days, bars_per_day, noise_sd):
    flow = OUParams(c=0.1, m=5.0, eta=100.0)
    panel = synth_regression_panel(a=1e-6, impact=impact, flow=flow, n_days=n_days,
                                   bars_per_day=bars_per_day, noise_sd=noise_sd, seed=seed)
    want = bars_oracle.synth_regression_panel(1e-6, impact, flow, n_days, bars_per_day, noise_sd, seed)
    assert len(panel.bars) == len(want)
    assert repr(bars_oracle.rows(panel.bars)) == repr(want)
    assert repr(bars_oracle.rows(panel.bars)[-1]) == repr(want[-1])
    assert panel.days == [str(d) for d in range(n_days)]
    by_day: dict = {}
    for b in want:
        by_day.setdefault(b.day, []).append(b)
    assert repr(bars_oracle.by_day(panel.bars)) == repr(by_day)

    bars_oracle.write_panel_csv(want, tmp_path / "want.csv")
    panel.write_csv(tmp_path / "panel.csv")
    write_panel_csv(bars_oracle.bar_table(want), tmp_path / "from_list.csv")
    expected = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "panel.csv").read_bytes() == expected
    assert (tmp_path / "from_list.csv").read_bytes() == expected

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mode": "panel", "seed": seed, "impact": curve_to_dict(impact),
        "panel": {"a": 1e-6, "flow": dataclasses.asdict(flow), "n_days": n_days,
                  "bars_per_day": bars_per_day, "noise_sd": noise_sd},
    }), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "panel.csv").read_bytes() == expected
    meta = json.loads((tmp_path / "cli" / "panel.meta.json").read_text(encoding="utf-8"))
    assert meta == json.loads(json.dumps(panel.metadata()))


def test_panel_validation():
    flow = OUParams(c=0.1, m=0.0, eta=10.0)
    with pytest.raises(ParameterError):
        synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=0, bars_per_day=10)
    with pytest.raises(ParameterError):
        synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=1)
    with pytest.raises(ParameterError):
        synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=10,
                               noise_sd=-1e-4)
    with pytest.raises(ParameterError, match="noise_sd must be non-negative, got nan"):
        synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=10, noise_sd=math.nan)
    for key in ("n_days", "bars_per_day"):  # a float count used to reach numpy's shapes, a bare TypeError
        for value in (2.5, math.nan, 10.0):
            with pytest.raises(ParameterError, match=f"^{key} must be an integer, got {value!r}$"):
                synth_regression_panel(a=0.0, impact=NK, flow=flow, **{"n_days": 2, "bars_per_day": 10, key: value})
    for value, message in ((2.5, "seed must be an integer, got 2.5"), (-1, "seed must be non-negative, got -1")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=10, seed=value)
    drawn = synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=10, seed=None)
    assert drawn.truth["rng"]["seed"] is None
    # 10**15 bars (7 PiB) lie past a 47-bit address space, so the allocation fails at once.
    with pytest.raises(ParameterError, match=r"^n_days x bars_per_day: 1 x 1000000000000000 bars do not fit \(Unable"):
        synth_regression_panel(a=0.0, impact=NK, flow=flow, n_days=1, bars_per_day=10 ** 15)
    with pytest.raises(ParameterError):
        synth_regression_panel(a=0.0, impact=SShapeParams(ell=1.0, p=0.0, q=1e-8),
                               flow=flow, n_days=1, bars_per_day=10)



def test_ou_params_helpers():
    flow = OUParams(c=0.5, m=1.0, eta=10.0)
    assert flow.stationary_sd == pytest.approx(10.0 / math.sqrt(1.0), rel=1e-15)
    decay, sd = flow.transition(2.0)
    assert decay == pytest.approx(math.exp(-1.0), rel=1e-15)
    want_sd = 10.0 * math.sqrt((1.0 - math.exp(-2.0)) / 1.0)
    assert sd == pytest.approx(want_sd, rel=1e-15)
    assert OUParams.from_structural(SP) == OUParams(c=SP.c, m=SP.m, eta=SP.eta)
    with pytest.raises(ParameterError):
        OUParams(c=0.0, m=0.0, eta=1.0)
    with pytest.raises(ParameterError):
        OUParams(c=0.1, m=0.0, eta=0.0)
    for nan in ({"c": math.nan}, {"eta": math.nan}):
        with pytest.raises(ParameterError):
            OUParams(**{"c": 0.1, "m": 0.0, "eta": 1.0, **nan})
