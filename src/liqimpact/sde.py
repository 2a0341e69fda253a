"""Coupled simulation of order flow, the latent price, and the traded price.

The flow X follows a mean-reverting diffusion and the latent price S a
geometric Brownian motion driven by a correlated Brownian pair.  The traded
price is never integrated on its own: every sample applies the supply-curve
identity P = S * exp(f(X)), so the curve relation holds exactly at each step
rather than up to discretization error.

Two measures are supported.  Under ``physical`` S drifts at mu_s and X at
c(m - X).  Under ``risk-neutral`` the flow drift gains the liquidity-risk
adjustment (eta*lambda^w(x) = -tau*x + delta) and S receives the state
dependent drift that prices P at exactly r:

    mu_s_rn(x) = r - [ {c(m-x) - (delta - tau*x) + rho*eta*sigma_s} g(x)
                       + (eta^2/2)(g'(x) + g(x)^2) ]

which is the market-price-of-risk choice implied by the no-arbitrage drift
identity, and collapses to the constant r - kappa0 form exactly when the
impact curve solves the consistency equation for the same structural
parameters.  Discounted-price martingale checks therefore hold for any
feasible impact curve, up to Euler weak error.

Simulation is Euler-Maruyama in X with an exact log-normal update for S per
step; paths are deterministic given the seed (counter-based generator, the
algorithm name is recorded in output metadata).  A long path is filled one
block of steps at a time, so its work arrays stay in cache; the blocks give
the same numbers, bit for bit, as one pass over the whole path.  A one-step
path, which the one-step moment checks call hundreds of thousands of times,
is taken in Python floats instead, f and g included (their float route), with
numpy called for the two normals, one exp and the final array; it is bit for
bit the first step of a longer path.  A path is held as arrays: ``SimPath``
has the columns t, s, x and p and a length.

synth_regression_panel builds day-structured regression panels instead: flow
sampled from the exact OU transition (stationary start each day), returns
assembled from the impact curve plus iid Gaussian noise.

Of scipy, importing this module loads only scipy.special (through impact).
scipy.signal, which takes about a second to import and pulls in scipy.stats,
loads on the first call that filters a flow: a path of more than one step,
or a panel.  So the CLI's ingest, fit and compare never load it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ._common import SCHEMA_VERSION, write_table
from .impact import (
    LinearParams,
    ParameterError,
    SqrtParams,
    SShapeParams,
    StructuralParams,
    curve_to_dict,
    f_linear,
    f_sqrt,
    f_sshape,
    feasibility_margin,
    g_sshape,
)
from .ingest import BarTable, write_panel_csv

__all__ = [
    "RNG_ALGORITHM",
    "SimulationError",
    "OUParams",
    "SimConfig",
    "SimPath",
    "SyntheticPanel",
    "correlated_increments",
    "simulate_path",
    "synth_regression_panel",
]

RNG_ALGORITHM = "PCG64"

PATH_HEADER = ["t", "s", "x", "p"]

# Steps per block of a long path.  A block's dozen work arrays of this length
# (128 KiB each) fit in a 2 MiB L2 cache; on 10**6-step paths, blocks of 2**13
# to 2**16 steps timed alike and 2**12 was slower.
_BLOCK_STEPS = 2 ** 14
_ROOT_MAX = math.sqrt(np.finfo(float).max)  # the largest float whose square is finite


class SimulationError(RuntimeError):
    """A simulated quantity left the finite range; ``step`` is the first bad index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OUParams:
    """Mean-reverting flow dynamics dX = c(m - X)dt + eta dW."""

    c: float
    m: float
    eta: float

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ParameterError(f"c must be positive, got {self.c}")
        if not self.eta > 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")

    @classmethod
    def from_structural(cls, sp: StructuralParams) -> "OUParams":
        return cls(c=sp.c, m=sp.m, eta=sp.eta)

    @property
    def stationary_sd(self) -> float:
        return self.eta / math.sqrt(2.0 * self.c)

    def transition(self, dt: float) -> tuple[float, float]:
        """Exact discrete transition: (decay, shock sd) for X' = m + decay*(X-m) + sd*N(0,1)."""
        decay = math.exp(-self.c * dt)
        sd = self.eta * math.sqrt((1.0 - decay * decay) / (2.0 * self.c))
        return decay, sd


def _integer(name: str, value) -> None:
    """ParameterError naming ``name`` unless ``value`` is a non-bool integer: a float count fails later, bare."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def _seed(value) -> None:
    """ParameterError unless ``value`` is None or a non-negative integer, what numpy's seeding takes."""
    if value is not None:
        _integer("seed", value)
        if value < 0:
            raise ParameterError(f"seed must be non-negative, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one path simulation; everything needed to reproduce it."""

    structural: StructuralParams
    impact: SShapeParams | LinearParams
    n_steps: int
    dt: float = 1.0
    x0: float = 0.0
    s0: float = 100.0
    seed: int | None = None
    measure: str = "physical"

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        _integer("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ParameterError(f"n_steps must be at least 1, got {self.n_steps}")
        if not self.s0 > 0:
            raise ParameterError(f"s0 must be positive, got {self.s0}")
        _seed(self.seed)
        if self.measure not in ("physical", "risk-neutral"):
            raise ParameterError(f"measure must be physical or risk-neutral, got {self.measure!r}")
        # The simulator squares sigma_s, and eta in the risk-neutral drift, as Python floats,
        # where a square past the float range raises OverflowError.
        for name in ("sigma_s", "eta") if self.measure == "risk-neutral" else ("sigma_s",):
            value = getattr(self.structural, name)
            if not value <= _ROOT_MAX:
                raise ParameterError(f"{name} squared is not a finite float, got {value!r}")
        if isinstance(self.impact, SShapeParams):
            margin = feasibility_margin(self.impact)
            if not margin > 0:
                raise ParameterError(
                    f"infeasible impact parameters: feasibility margin {margin} <= 0"
                )
        elif not isinstance(self.impact, LinearParams):
            raise ParameterError(f"impact must be SShapeParams or LinearParams, got {type(self.impact)!r}")


def _impact_f(impact: SShapeParams | LinearParams | SqrtParams, x):
    """f at x, an array or a float, as the curve's own function returns it."""
    if isinstance(impact, SShapeParams):
        return f_sshape(x, impact)
    if isinstance(impact, SqrtParams):
        return f_sqrt(x, impact)
    return f_linear(x, impact)


def _impact_g_gprime(impact: SShapeParams | LinearParams, x):
    """g and g' at x, an array or a float; a linear curve gives the constants alpha and 0."""
    if isinstance(impact, SShapeParams):
        g = g_sshape(x, impact)
        # derivative of the closed form: g' = -(p + qx) g - g^2
        gp = -(impact.p + impact.q * x) * g - g * g
        return g, gp
    return impact.alpha, 0.0


class SimPath:
    """A simulated path as the arrays t, s, x and p (p always s * exp(f(x))); its length is the sample count."""

    def __init__(self, s: np.ndarray, x: np.ndarray, p: np.ndarray, config: SimConfig, seed_used: int):
        self.s = s
        self.x = x
        self.p = p
        self.config = config
        self.seed_used = seed_used

    @cached_property
    def t(self) -> np.ndarray:
        """Sample times k dt, made on first use: one-step paths are mostly read for s, x and p."""
        return np.arange(self.config.n_steps + 1) * self.config.dt

    def __len__(self) -> int:
        return self.x.shape[0]

    def metadata(self) -> dict:
        cfg = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "path",
            "rng": {"algorithm": RNG_ALGORITHM, "seed": self.seed_used},
            "config": {"structural": asdict(cfg.structural), "impact": curve_to_dict(cfg.impact),
                       **{key: getattr(cfg, key) for key in ("n_steps", "dt", "x0", "s0", "measure")}},
        }

    def write_csv(self, dest: str | Path) -> None:
        columns = (np.asarray(a, dtype=float).tolist() for a in (self.t, self.s, self.x, self.p))
        write_table(dest, PATH_HEADER, zip(*columns))


def correlated_increments(
    rho: float, dt: float, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the correlated Brownian increment pair (dz, dw) with corr(dz, dw) = rho.

    dw = sqrt(dt) u and dz = sqrt(dt) (rho u + sqrt(1 - rho^2) v) for iid
    standard normals (u, v) drawn interleaved per step, so at rho = 1 the two
    increments are bitwise identical.  ``size`` of None draws a single pair.
    """
    if not -1.0 <= rho <= 1.0:
        raise ParameterError(f"rho must lie in [-1, 1], got {rho}")
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    n = 1 if size is None else int(size)
    # Built in place: the columns of z turn from (u, v) into (dw, dz) through
    # the same products and sums as the formulas above.
    z = rng.standard_normal((n, 2))
    dw = z[:, 0]
    dz = z[:, 1]
    dz *= math.sqrt(max(0.0, 1.0 - rho * rho))
    dz += rho * dw
    z *= math.sqrt(dt)
    if size is None:
        return dz[0], dw[0]
    return dz, dw


def _flow_coefficients(config: SimConfig) -> tuple[float, float]:
    """(coef, const) of the Euler flow step x' = const + eta dw + coef x."""
    sp, dt = config.structural, config.dt
    if config.measure == "physical":
        return 1.0 - sp.c * dt, sp.c * sp.m * dt
    # flow drift c(m - x) - eta*lambda^w(x) with eta*lambda^w = -tau x + delta
    return 1.0 + (sp.tau - sp.c) * dt, (sp.c * sp.m - sp.delta) * dt


def _s_drift(config: SimConfig, x):
    """Drift of S at flow x (an array, or a float): mu_s, or r minus the impact terms."""
    sp = config.structural
    if config.measure == "physical":
        return sp.mu_s
    g, gp = _impact_g_gprime(config.impact, x)
    lam_w = -sp.tau * x + sp.delta
    drift_from_impact = (sp.c * (sp.m - x) - lam_w + sp.rho * sp.eta * sp.sigma_s) * g \
        + 0.5 * sp.eta ** 2 * (gp + g * g)
    return sp.r - drift_from_impact


def _finish(config: SimConfig, x: np.ndarray, s: np.ndarray, p: np.ndarray) -> None:
    """Turn a block's running log-sums in s into S, and fill p = S exp(f(x)), in place."""
    # An overflow here makes s or p non-finite, so it always ends in
    # simulate_path's SimulationError; numpy warns about it first, as it does for x.
    np.exp(s, out=s)
    s *= config.s0
    np.exp(_impact_f(config.impact, x), out=p)
    p *= s


def _fill_blocks(config: SimConfig, rng: np.random.Generator, x: np.ndarray, s: np.ndarray,
                 p: np.ndarray) -> None:
    """Fill x[1:], s and p, one block of at most _BLOCK_STEPS steps at a time.

    Each block's arrays stay in cache, where whole-path temporaries would go
    to memory on every pass.  The numbers are those of one whole-path pass:
    consecutive draws continue the same generator stream, the flow filter
    restarts from x[lo] as the whole path starts from x0, and the running
    log-sum of S is carried into the next block's first step.
    """
    # lfilter's argument checks cost microseconds a block; one-step paths never come here.
    from scipy.signal import lfilter

    sp = config.structural
    dt = config.dt
    coef, const = _flow_coefficients(config)
    half_var = 0.5 * sp.sigma_s ** 2
    log_s = 0.0
    for lo in range(0, config.n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, config.n_steps)
        dz, dw = correlated_increments(sp.rho, dt, rng, size=hi - lo)
        # x[k+1] = shocks[k] + coef * x[k], the initial state coef * x[lo] folded into shocks[0].
        shocks = const + sp.eta * dw
        shocks[0] += coef * x[lo]
        x[lo + 1:hi + 1] = lfilter([1.0], [1.0, -coef], shocks)
        mu = _s_drift(config, x[lo:hi])
        log_steps = s[lo + 1:hi + 1]
        np.add((mu - half_var) * dt, sp.sigma_s * dz, out=log_steps)
        log_steps[0] += log_s
        np.add.accumulate(log_steps, out=log_steps)
        log_s = log_steps[-1]
        # The first block also finishes sample 0, whose log-sum is s[0] = 0.
        first = lo + 1 if lo else 0
        _finish(config, x[first:hi + 1], s[first:hi + 1], p[first:hi + 1])


def simulate_path(config: SimConfig) -> SimPath:
    """Simulate (X, S, P) for n_steps Euler steps of width dt.

    X uses the measure-appropriate linear drift, S an exact per-step
    log-normal update (state-dependent drift under risk-neutral), and P is
    assembled from the supply-curve identity at every sample, so s > 0 and
    p > 0 hold by construction.  Raises SimulationError with the first bad
    step index if any sample leaves the finite range, and ParameterError if
    n_steps' arrays cannot be allocated.  A one-step path is taken in Python
    floats, f and g included, with one np.exp call and one array at the end, bitwise
    as the array recursion would take it; a longer path is filled block by
    block (_BLOCK_STEPS steps each), bitwise as one whole-path pass would.
    """
    seed_used = int(np.random.SeedSequence().entropy) if config.seed is None else config.seed
    rng = np.random.Generator(np.random.PCG64(seed_used))

    if config.n_steps == 1:
        # Each operation that _fill_blocks and _finish apply to a one-step
        # block is an IEEE add, multiply or sqrt, a curve evaluation (whose
        # float route is bitwise its array route) or exp, which stays numpy's:
        # its SIMD kernel may differ from libm's in the last bit.  So the same
        # operations on floats give the same bits, without some twenty numpy
        # calls on 2-element arrays.
        sp = config.structural
        dt = config.dt
        x0, s0 = float(config.x0), float(config.s0)  # s[0] = exp(0) * s0 = s0
        # correlated_increments' draws and arithmetic for one pair
        u, v = rng.standard_normal(2).tolist()
        root_dt = math.sqrt(dt)
        dw = u * root_dt
        dz = (v * math.sqrt(max(0.0, 1.0 - sp.rho * sp.rho)) + sp.rho * u) * root_dt
        coef, const = _flow_coefficients(config)
        # The filter's first output is 0 + its first shock (which turns -0.0 into 0.0).
        x1 = 0.0 + ((const + sp.eta * dw) + coef * x0)
        log_step = (_s_drift(config, x0) - 0.5 * sp.sigma_s ** 2) * dt + sp.sigma_s * dz
        step, ef0, ef1 = np.exp([log_step, _impact_f(config.impact, x0),
                                 _impact_f(config.impact, x1)]).tolist()
        s1 = step * s0
        rows = ((x0, x1), (s0, s1), (ef0 * s0, ef1 * s1))
        for name, row in zip("xsp", rows):
            for k, value in enumerate(row):
                if not math.isfinite(value):
                    raise SimulationError(f"non-finite {name} at step {k}", step=k)
        x, s, p = np.array(rows)
        return SimPath(s, x, p, config, seed_used)

    # x, s and p are rows of one array, so one pass checks all three for finiteness.
    try:
        xsp = np.empty((3, config.n_steps + 1))
    except (ValueError, MemoryError) as exc:  # numpy's limits on the shape, or the allocation
        raise ParameterError(f"n_steps: {config.n_steps} steps do not fit in memory ({exc})") from None
    x, s, p = xsp
    x[0] = config.x0
    # s holds the running sum of the log-steps after a leading 0, then s itself.
    s[0] = 0.0
    _fill_blocks(config, rng, x, s, p)

    if not np.logical_and.reduce(np.isfinite(xsp), axis=None):
        for name, arr in (("x", x), ("s", s), ("p", p)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                k = int(bad[0])
                raise SimulationError(f"non-finite {name} at step {k}", step=k)
    return SimPath(s, x, p, config, seed_used)


@dataclass(frozen=True)
class SyntheticPanel:
    """Day-structured regression panel with the generating truth attached."""

    bars: BarTable = field(repr=False)
    truth: dict

    @property
    def days(self) -> list[str]:
        return list(self.bars.days)

    def write_csv(self, dest: str | Path) -> None:
        write_panel_csv(self.bars, dest)

    def metadata(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": "panel", "truth": self.truth}


def synth_regression_panel(
    a: float,
    impact: SShapeParams | LinearParams | SqrtParams,
    flow: OUParams,
    n_days: int,
    bars_per_day: int,
    noise_sd: float = 0.0,
    seed: int | None = 0,
) -> SyntheticPanel:
    """Generate n_days * bars_per_day bars with returns r = a + f(x_t) - f(x_prev) + eps.

    Flow uses the exact OU transition at unit bar spacing with an independent
    stationary draw opening each day; eps is iid N(0, noise_sd^2).  Bar prices
    start each day at 100 and compound the generated returns, so last_price
    and log_return stay mutually consistent.  The first bar of a day has no
    return.  Generating parameters (and the seed, drawn for None) are returned in ``truth``.
    A panel whose arrays cannot be allocated is a ParameterError, and a non-finite flow or
    return a SimulationError at its first day and bar (``step`` is that bar's row).
    """
    _integer("n_days", n_days)
    _integer("bars_per_day", bars_per_day)
    _seed(seed)
    if n_days < 1 or bars_per_day < 2:
        raise ParameterError("need n_days >= 1 and bars_per_day >= 2")
    if not noise_sd >= 0:
        raise ParameterError(f"noise_sd must be non-negative, got {noise_sd}")
    if isinstance(impact, SShapeParams):
        if not feasibility_margin(impact) > 0:
            raise ParameterError("infeasible impact parameters")

    seed = int(np.random.SeedSequence().entropy) if seed is None else seed
    rng = np.random.Generator(np.random.PCG64(seed))
    decay, trans_sd = flow.transition(1.0)
    try:
        x0 = flow.m + flow.stationary_sd * rng.standard_normal(n_days)
        shocks = trans_sd * rng.standard_normal((n_days, bars_per_day - 1))
    except (ValueError, MemoryError) as exc:  # numpy's limits on the shape, or the allocation
        raise ParameterError(f"n_days x bars_per_day: {n_days} x {bars_per_day} bars do not fit ({exc})") from None
    eps = noise_sd * rng.standard_normal((n_days, bars_per_day - 1))

    from scipy.signal import lfilter

    zi = (decay * (x0 - flow.m))[:, None]
    dev, _ = lfilter([1.0], [1.0, -decay], shocks, axis=1, zi=zi)
    x = np.concatenate([x0[:, None], flow.m + dev], axis=1)

    fx = _impact_f(impact, x)
    r = a + fx[:, 1:] - fx[:, :-1] + eps
    bad = ~np.isfinite(x)
    bad[:, 1:] |= ~np.isfinite(r)
    if bad.any():
        day, bar = divmod(step := int(np.argmax(bad)), bars_per_day)
        name = "log_return" if math.isfinite(x[day, bar]) else "order_flow"
        raise SimulationError(f"non-finite {name} at day {day} bar {bar}", step=step)
    log_p = math.log(100.0) + np.concatenate(
        [np.zeros((n_days, 1)), np.cumsum(r, axis=1)], axis=1
    )
    p = np.exp(log_p)

    zeros = np.zeros(x.size, dtype=np.int64)
    missing = np.full(x.size, np.nan)
    bars = BarTable(
        days=tuple(map(str, range(n_days))),
        day=np.repeat(np.arange(n_days, dtype=np.int64), bars_per_day),
        bar_index=np.tile(np.arange(bars_per_day, dtype=np.int64), n_days),
        order_flow=x.ravel(),
        last_price=p.ravel(),
        log_return=np.concatenate([np.full((n_days, 1), np.nan), r], axis=1).ravel(),
        has_return=np.tile(np.arange(bars_per_day) > 0, n_days),
        signed_count=zeros,
        unsigned_count=zeros,
        open_bid_size=missing,
        open_ask_size=missing,
    )
    truth = {
        "a": a,
        "impact": curve_to_dict(impact),
        "flow": asdict(flow),
        "n_days": n_days,
        "bars_per_day": bars_per_day,
        "noise_sd": noise_sd,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": seed},
    }
    return SyntheticPanel(bars=bars, truth=truth)
