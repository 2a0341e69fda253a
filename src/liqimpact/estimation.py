"""Fitting impact curves to bar panels, plus flow mean-reversion estimation.

The regression is r_t = a + f(x_t) - f(x_{t-1}) + eps_t over within-day bar
pairs.  The linear and square-root curves are linear in their single slope, so
ordinary least squares applies: one centred line fit in chunked sums
(``_line_fit``) serves them at every panel size, and the AR(1) flow regression.
The S-shape curve is fit by damped Gauss-Newton (Levenberg-Marquardt) with the
positivity constraints folded into the parameterization (ell = e^u, q = e^v)
and the domain constraint enforced by rejecting trial steps whose feasibility
margin drops below a safety floor.
Searches start from a grid of (p, q) initial conditions scaled to the panel's
flow dispersion, less two points that start on the no-impact plateau (see
``default_start_grid``), and the lowest-RSS converged optimum wins.  Each
start's state is a row of arrays, and the starts advance in rounds, one
iteration each: a round evaluates every live start's trial point together,
on the flows in panel order (so that f(x_t) - f(x_{t-1}) is a difference of
neighbours, put right where x_{t-1} is not the previous row's x; where more
than half the rows are such seams, the flows are x then x_prev and the
difference is of the two halves), forms J'J and J'e only for trials that
lower their start's RSS, and steps the live rows with array operations, so
each start's search is bitwise the one it would make alone.
After each round a live start is retired when it lies within one standard
error of a start with lower RSS, in that start's Gauss-Newton metric (J'J), if
that J'J pins its optimum down to the stopping tolerances; short panels
therefore run every start to its end.
A panel of more than 8,192 rows first runs every start on every 64th row (the
screen) only to choose the grid points to run on the full panel: it drops each
start that ends within one standard error or _RSS_RTOL in RSS of a lower-RSS
survivor, and all but the lowest at an RSS of at most _RSS_RTOL r'r (an exact
fit); the rest run from their grid points, each search as it runs unscreened.

Every sum over a panel's rows (e'e, J'J and J'e, the covariances and the line
fit's sums) runs over chunks of at most 8,192 rows added in order, so no BLAS
thread count changes a fit; a panel of at most 8,192 rows is one chunk.

Flow dynamics are estimated by AR(1) regression over day-contiguous segments,
mapped back to continuous-time mean reversion; standard errors come from the
delta method so simulation-recovery checks can be stated in SE units.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._common import ParseError, parse_float, parse_int, read_table, write_table
from .impact import (
    SqrtParams,
    SShapeParams,
    _direct_big_phi,
    _exponent,
    big_phi,
    f_sqrt,
    feasibility_margin,
    log_feasibility_load,
    phi,
)
from .ingest import BarTable
from .sde import SyntheticPanel

__all__ = [
    "EstimationError",
    "RegressionPanel",
    "FitResult",
    "OUEstimate",
    "fit_ols",
    "fit_sshape",
    "default_start_grid",
    "estimate_ou",
    "fit_result_to_dict",
    "write_daily_fits_csv",
    "read_daily_fits_csv",
    "DAILY_FIT_HEADER",
]

logger = logging.getLogger(__name__)

DAILY_FIT_HEADER = [
    "date", "model", "converged", "n", "k",
    "a_hat", "ell", "p", "q", "alpha",
    "rss", "adj_r2", "bic",
]
# The parameter columns each model's converged rows must fill.
_MODEL_PARAMS = {"sshape": ("ell", "p", "q"), "linear": ("alpha",), "sqrt": ("alpha",)}


class EstimationError(ValueError):
    """Degenerate design or unusable input for an estimator."""


@dataclass(frozen=True)
class RegressionPanel:
    """Aligned (r_t, x_t, x_prev) observations pooled over days."""

    r: np.ndarray
    x: np.ndarray
    x_prev: np.ndarray

    def __post_init__(self) -> None:
        for name in ("r", "x", "x_prev"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        r, x, xp = self.r, self.x, self.x_prev
        if not (r.shape == x.shape == xp.shape) or r.ndim != 1:
            raise EstimationError("r, x, x_prev must be 1-d arrays of equal length")
        if r.size < 10:
            raise EstimationError(f"need at least 10 observations, got {r.size}")
        if not (np.isfinite(r).all() and np.isfinite(x).all() and np.isfinite(xp).all()):
            raise EstimationError("panel contains non-finite values")

    @property
    def n(self) -> int:
        return int(self.r.size)

    @classmethod
    def from_bars(cls, bars: BarTable) -> "RegressionPanel":
        """Build observations from consecutive same-day bar pairs with a defined return.

        Bars are ordered by day code, then stably by bar index; a bar pairs
        with the one before it when both are on the same day, its index is one
        more and its return is given.
        """
        order = np.lexsort((bars.bar_index, bars.day))
        day = bars.day[order]
        bar = bars.bar_index[order]
        paired = (day[1:] == day[:-1]) & (bar[1:] == bar[:-1] + 1) & bars.has_return[order[1:]]
        cur = order[1:][paired]
        prev = order[:-1][paired]
        return cls(bars.log_return[cur], bars.order_flow[cur], bars.order_flow[prev])

    @classmethod
    def from_synthetic(cls, panel: SyntheticPanel) -> "RegressionPanel":
        return cls.from_bars(panel.bars)


@dataclass(frozen=True)
class FitResult:
    """One fitted impact specification with inference and selection statistics."""

    model: str
    a_hat: float
    param_hats: dict[str, float]
    ses: dict[str, float]
    t_stats: dict[str, float]
    rss: float
    adj_r2: float
    bic: float
    n: int
    k: int
    converged: bool
    starts_tried: int = 1
    message: str = ""


# Every sum over a panel's rows runs over chunks of at most this many rows, added
# in order: OpenBLAS splits a dot product of more than 10,000 elements across
# its threads, and the order of that sum, and so its last bits, followed the
# thread count.  A panel of at most _CHUNK rows is one chunk and one BLAS call.
_CHUNK = 8_192


def _chunk_sum(product, n: int):
    """product(rows) summed over consecutive slices of at most _CHUNK of n panel rows, in order."""
    total = product(slice(0, _CHUNK))
    for lo in range(_CHUNK, n, _CHUNK):
        total = total + product(slice(lo, lo + _CHUNK))
    return total


def _tdot(a: np.ndarray, b: np.ndarray):
    """a.T @ b, over the rows of a and b in chunks (``_chunk_sum``)."""
    return _chunk_sum(lambda rows: a[rows].T @ b[rows], len(a))


def _selection_stats(r: np.ndarray, rss: float, n: int, k: int) -> tuple[float, float]:
    """(adjusted R^2, BIC).  The adjustment uses (n-1)/(n-k-1) with k counting
    the intercept; BIC is the Gaussian concentrated form n ln(RSS/n) + k ln n."""
    tss = float(np.sum((r - r.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    bic = n * math.log(rss / n) + k * math.log(n) if rss > 0 else -math.inf
    return adj, bic


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float] | None:
    """Least squares of y on (1, x) by the centred closed form, each sum over
    chunks (``_tdot``): (intercept, slope, mean of x, Sxx, RSS).  None where x
    is collinear with the intercept: as in LAPACK's rank test, where x's
    spread about its mean is within n * eps of its size, at any column scale."""
    n = len(x)
    x_bar, y_bar = float(x.mean()), float(y.mean())
    xc = x - x_bar
    sxx = float(_tdot(xc, xc))
    if sxx <= (n * np.finfo(float).eps) ** 2 * float(_tdot(x, x)):
        return None
    slope = float(_tdot(xc, y - y_bar)) / sxx
    intercept = y_bar - slope * x_bar
    resid = y - intercept - slope * x
    return intercept, slope, x_bar, sxx, float(_tdot(resid, resid))


def fit_ols(panel: RegressionPanel, model: str) -> FitResult:
    """Least squares for the models linear in their slope, 'linear' or 'sqrt', at
    every panel size by the centred line fit in chunked sums that estimate_ou
    shares (``_line_fit``), with variances s^2 / Sdd and s^2 (1/n + d_bar^2 / Sdd)."""
    if model == "linear":
        d = panel.x - panel.x_prev
    elif model == "sqrt":
        d = np.asarray(f_sqrt(panel.x, SqrtParams(1.0))) - np.asarray(f_sqrt(panel.x_prev, SqrtParams(1.0)))
    else:
        raise ValueError(f"fit_ols handles linear or sqrt, got {model!r}")
    if np.ptp(d) == 0.0:
        raise EstimationError(f"design column delta_f({model}) is constant; slope not identified")
    n = panel.n
    if (line := _line_fit(d, panel.r)) is None:
        raise EstimationError(f"design column delta_f({model}) is collinear with the intercept")
    a, slope, d_bar, sdd, rss = line
    s2 = rss / (n - 2)
    se = np.sqrt(s2 * np.array([1.0 / n + d_bar * d_bar / sdd, 1.0 / sdd]))
    adj, bic = _selection_stats(panel.r, rss, n, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.array([a, slope]) / se
    return FitResult(
        model=model,
        a_hat=a,
        param_hats={"alpha": slope},
        ses={"a": float(se[0]), "alpha": float(se[1])},
        t_stats={"a": float(t[0]), "alpha": float(t[1])},
        rss=rss,
        adj_r2=adj,
        bic=bic,
        n=n,
        k=2,
        converged=True,
    )


# ---------------------------------------------------------------------------
# S-shape nonlinear fit

# A live start within this many standard errors of a kept start with lower
# RSS, in that start's Gauss-Newton metric, is retired as a duplicate.
_MERGE_RADIUS = 1.0
# An evaluation block holds max(1, _BLOCK_POINTS // n) rows on a panel of n
# observations: larger blocks of continuous flows leave the cache and ran slower.
# A row holds n flows plus one per seam, so up to 2n where every row is a seam.
_BLOCK_POINTS = 16_384
# A panel of more than _SCREEN_ROWS rows first runs its grid on every
# _SCREEN_STRIDE-th row, to choose the grid points it runs (see fit_sshape).
_SCREEN_ROWS = _CHUNK
_SCREEN_STRIDE = 64
# Every fit's solver settings: a start's iteration limit, its ftol and gtol stops
# (see _Starts), and the least feasibility margin a trial point may keep.
_ITER_LIMIT = 500
_RSS_RTOL = 1e-12
_GRAD_ATOL = 1e-10
_MARGIN_FLOOR = 1e-6


def default_start_grid(flow_sd: float) -> list[tuple[float, float]]:
    """Scale-adaptive (p0, q0) start grid: p = -1e-2/s_x * k for k in -3..3
    crossed with q = 1e-2/s_x^2 * 10^j for j in -2..2, less the two points
    with p0/sqrt(q0) >= 2, (k, j) = (-3, -2) and (-2, -2): 33 points.

    Those two start on the no-impact plateau: keeping their feasibility margin
    at 1/2 cuts their start ell to about 1/50 and 1/4 of the other starts', so
    f is nearly flat over the flows.  On recovery panels (100 days x 360 bars,
    seeds 1000-1009) and on the days and pooled panels of the benchmark's
    5-day tick files (seeds 11-14) they stayed there, at 1.1-4.7 times the
    winner's RSS, or merged late; they took 19-37 % of a recovery fit's
    evaluations and 12-24 % of a tick fit's, running 36-70 rounds against
    14-19 for the other starts, and every fit was bitwise the same without
    them.  Where (-2, -2) does reach the optimum, other starts reach the same
    RSS: on 3 of 120 more recovery panels it had won, and without it the fit
    differs only in the parameters' last digits (within 3e-10 relative).
    """
    ks, js = range(-3, 4), range(-2, 3)
    try:
        ps = [-1e-2 / flow_sd * k for k in ks]
        qs = [1e-2 / flow_sd ** 2 * 10.0 ** j for j in js]
    except (ZeroDivisionError, OverflowError):  # flow_sd zero, or flow_sd ** 2 past the float range
        ps = qs = [math.nan]
    if not (0.0 < flow_sd < math.inf and all(map(math.isfinite, ps + qs)) and min(qs) > 0.0):
        raise EstimationError(f"flow sd must give a finite start grid with every q > 0, got {flow_sd}")
    # p0 / sqrt(q0) = -k 10^(-j/2) / 10, which is at least 2 only at j = -2 with k <= -2.
    return [(p0, q0) for k, p0 in zip(ks, ps) for j, q0 in zip(js, qs) if not (j == -2 and k <= -2)]


def _start_thetas(panel: RegressionPanel, grid: Sequence[tuple[float, float]] | None) -> np.ndarray:
    """Rows (a, ln ell, p, ln q), one per grid point (default: the panel's flow-scaled grid).

    a starts at the mean return and ell at the linear fit's slope, lowered
    where needed so the start's feasibility margin is at least 1/2.
    """
    s_x = float(np.std(panel.x, ddof=1))
    starts = list(grid) if grid is not None else default_start_grid(s_x)
    if not starts:
        raise EstimationError("empty start grid")
    a0 = float(np.mean(panel.r))
    try:
        ell_lin = abs(fit_ols(panel, "linear").param_hats["alpha"])
    except EstimationError:
        ell_lin = 0.0
    if not ell_lin > 0.0:
        ell_lin = 1e-6 / max(s_x, 1.0)
    theta0s = []
    for p0, q0 in starts:
        if not math.isfinite(p0):
            raise EstimationError(f"grid p must be finite, got {p0}")
        if not 0.0 < q0 < math.inf:
            raise EstimationError(f"grid q must be positive and finite, got {q0}")
        ln_ell = min(math.log(ell_lin), math.log(0.5) - log_feasibility_load(p0, q0))
        theta0s.append([a0, ln_ell, p0, math.log(q0)])
    return np.array(theta0s)


class _SShapeResiduals:
    """Residuals and Jacobian wrt (a, u=ln ell, p, v=ln q) on one panel: e and J
    for one theta (:meth:`one`), or e'e, J'J and J'e for each of a row of thetas
    (:meth:`normal_equations`).

    The curve and its derivatives are evaluated on the flows in panel order:
    x, then the "seam" x_prev that are not the previous x (the first one, day
    starts, skipped returns).  A difference f(x) - f(x_prev) is then one
    subtraction of neighbouring columns, with the seams put right after it.
    Where more than half the rows are seams (the screen's every 64th row,
    where no x_prev is the previous x), every row is taken as one:
    the flows are x then x_prev, and a difference is one subtraction of the
    two halves.  A flow point costs about as much to evaluate as a seam's
    gather and scatter over the four differences, so the halves break even
    near n/2 seams and evaluate no more points when every row is one.
    A flow that repeats (integer bar flows) is evaluated at each place it
    appears, to the same bits.  Evaluating each distinct flow once instead
    needs both terms of every difference gathered by index, two panel-sized
    takes per column: on integer bar flows, where a day has about half as many
    distinct flows as bars, that fits a tick file about a tenth faster, and on
    continuous flows, where none repeats, it is slower; one layout serves both.

    The rows of a block, at most ``max_rows`` and max(1, _BLOCK_POINTS // n),
    are evaluated in one pass over (rows, flows) arrays, Phi and phi included
    for a row in big_phi's direct band with no flow in its small-q limit, by
    impact's ``_direct_big_phi`` and ``_exponent`` on (rows, 1) columns of the
    trial curves' ``_phi_constants``; any other row takes them from big_phi and
    phi.  Each array step is a one-row evaluation's ufunc, in its order, on
    columns of the rows' scalars, so each row is bitwise what it would be alone.

    Every evaluation writes into work arrays allocated here once per panel
    (the e and J of :meth:`one` last until the next).  Fresh panel-sized
    temporaries in each of a fit's hundreds of evaluations were returned to
    the OS and faulted in again, or not, and the fit time varied with them.
    """

    def __init__(self, panel: RegressionPanel, max_rows: int):
        n = panel.n
        self.n, self.r = n, panel.r
        self.block = max(1, min(max_rows, _BLOCK_POINTS // n))
        # Rows whose x_prev is not the previous row's x; row 0 always is one.
        # Past half the rows, every row is taken as one (the x, x_prev halves).
        seams = np.flatnonzero(np.concatenate([[True], panel.x_prev[1:] != panel.x[:-1]]))
        self.seams = np.arange(n) if 2 * seams.size > n else seams
        self.flows = np.concatenate([panel.x, panel.x_prev[self.seams]])
        m = self.flows.size
        nonzero = np.abs(self.flows[self.flows != 0.0])
        # big_phi takes its small-q limit at some flow iff this one is below the threshold.
        self.min_abs_flow = float(nonzero.min()) if nonzero.size else math.inf
        (self.Phi, self.ph, self.ell_phi, self.den, self.f, self.df_du, self.dphi_dp, self.dphi_dq,
         self.tmp) = (np.empty((self.block, m)) for _ in range(9))
        self.ok_m = np.empty((self.block, m), dtype=bool)
        self.e, self.g_cur = np.empty((self.block, n)), np.empty((self.block, n))
        self.J = np.empty((self.block, n, 4))
        self.J[:, :, 0] = -1.0
        self.ok_e, self.ok_J = np.empty((self.block, n), dtype=bool), np.empty((self.block, n, 4), dtype=bool)

    def one(self, theta: np.ndarray, margin_floor: float):
        """(e, J) for theta, or None; Phi and phi come from big_phi and phi."""
        _, ok = self._evaluate(np.asarray(theta)[None, :], margin_floor, routed=True)
        return (self.e[0], self.J[0]) if ok.any() else None

    def normal_equations(self, thetas: np.ndarray, margin_floor: float, beat: np.ndarray):
        """(e'e, J'J, J'e) for each row of ``thetas``; NaN where it is infeasible
        or e or J is not finite.  J'J and J'e are formed only for rows whose e'e
        is at most ``beat``, a per-row RSS, and are NaN for the others: a trial
        that does not lower its start's RSS is rejected, and its products go
        unused.  A start's opening evaluation passes an infinite ``beat``.

        Each product is summed over chunks of the panel's rows (``_chunk_sum``),
        a chunk's product one ``np.matmul`` stacked over the rows it is formed
        for: the block's work arrays, or where some row is left out, C-contiguous
        copies of the others laid out like them (a copy in every evaluation
        would be a fresh panel-sized temporary).  It makes for every row the
        BLAS call of ``e @ e``, ``J.T @ J`` or ``J.T @ e`` on that row's chunk
        alone, so each is bitwise the same."""
        k, n = len(thetas), self.n
        rss, JtJ, g = np.full(k, np.nan), np.full((k, 4, 4), np.nan), np.full((k, 4), np.nan)
        for lo in range(0, k, self.block):
            index, ok = self._evaluate(thetas[lo:lo + self.block], margin_floor, routed=False)
            e, J = self.e[:len(index)], self.J[:len(index)]
            # Rows that are not usable hold infs and NaNs; their products are dropped.
            with np.errstate(over="ignore", invalid="ignore"):
                rss[lo + index[ok]] = _chunk_sum(lambda c: np.matmul(e[:, None, c], e[:, c, None]), n)[ok, 0, 0]
                ok &= rss[lo + index] <= beat[lo + index]
                if not ok.all():
                    e, J = e[ok], J[ok]
                JtJ[lo + index[ok]] = _chunk_sum(lambda c: np.matmul(J[:, c].transpose(0, 2, 1), J[:, c]), n)
                g[lo + index[ok]] = _chunk_sum(
                    lambda c: np.matmul(J[:, c].transpose(0, 2, 1), e[:, c, None])[:, :, 0], n)
        return rss, JtJ, g

    def _difference(self, values: np.ndarray) -> np.ndarray:
        """Each row's values at x less its values at x_prev, in g_cur: the x
        half less the x_prev half where every row is a seam, else a difference
        of neighbouring columns, put right at the seams."""
        n, g_cur = self.n, self.g_cur[:len(values)]
        if self.seams.size == n:
            return np.subtract(values[:, :n], values[:, n:], out=g_cur)
        np.subtract(values[:, 1:n], values[:, :n - 1], out=g_cur[:, 1:])
        g_cur[:, self.seams] = values[:, self.seams] - values[:, n:]
        return g_cur

    def _evaluate(self, thetas: np.ndarray, margin_floor: float, routed: bool):
        """e and J of each feasible row of thetas, at most ``block`` of them, in
        slots 0, 1, ... of the work arrays; with ``routed``, every row takes
        big_phi and phi.  Returns each filled slot's row of thetas and whether
        its e and J are finite."""
        direct, other = [], []  # (row, a, params, direct-form scalars)
        for i, (a, u, p, v) in enumerate(thetas.tolist()):
            if not (math.isfinite(u) and math.isfinite(p) and math.isfinite(v)):
                continue
            # exp overflows past ~709.78; such trial steps are hopeless anyway.
            if u > 700.0 or v > 700.0:
                continue
            ell = math.exp(u)
            q = math.exp(v)
            if ell == 0.0 or q == 0.0:
                continue
            params = SShapeParams(ell, p, q)
            if feasibility_margin(params) < margin_floor:
                continue
            form = params._phi_constants
            if routed or form[2] is None or self.min_abs_flow < form[4]:
                other.append((i, a, params, None))
            else:
                direct.append((i, a, params, form))
        rows = direct + other
        if not rows:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
        return np.array([i for i, *_ in rows]), self._fill(rows, len(direct))

    def _fill(self, rows: list, kd: int) -> np.ndarray:
        """e and J of each row, in that row's slot; the first kd rows take the
        direct form.  Returns which rows are usable."""
        k = len(rows)
        flows = self.flows
        Phi, ph, ell_phi, den, f, df_du, dphi_dp, dphi_dq, tmp, ok_m = (
            w[:k] for w in (self.Phi, self.ph, self.ell_phi, self.den, self.f, self.df_du,
                            self.dphi_dp, self.dphi_dq, self.tmp, self.ok_m))
        e, J = self.e[:k], self.J[:k]
        a, ell, p, q = np.array([(a, s.ell, s.p, s.q) for _, a, s, _ in rows]).T[:, :, None]

        # Each step is one ufunc into a work array, in the order of the plain expressions
        #   f = log1p(ell Phi), df_du = ell Phi / den, den = 1 + ell Phi,
        #   dPhi_dp = (p Phi + phi - 1) / q,
        #   dPhi_dq = -(1/2) ((p^2 Phi + p (phi - 1)) / q^2 + (Phi - x phi) / q),
        #   df_dp = ell dPhi_dp / den, df_dv = q ell dPhi_dq / den,
        # as big_phi, phi and the one-row evaluation take them.
        with _column_ufuncs():
            if kd:
                rq, b, kk, ndtr_b = np.array([form[:4] for *_, form in rows[:kd]]).T[:, :, None]
                _direct_big_phi(flows, rq, b, kk, ndtr_b, out=Phi[:kd])
                np.exp(_exponent(flows, p[:kd], q[:kd], out=tmp[:kd], work=ph[:kd]), out=ph[:kd])
            for slot, (_, _, params, _) in enumerate(rows[kd:], start=kd):
                Phi[slot] = big_phi(flows, params)
                ph[slot] = phi(flows, params)

            np.multiply(ell, Phi, out=ell_phi)
            np.add(1.0, ell_phi, out=den)
            ok = np.isfinite(den, out=ok_m).all(axis=1)
            ok &= ~np.less_equal(den, 0.0, out=ok_m).any(axis=1)
            np.log1p(ell_phi, out=f)
            np.divide(ell_phi, den, out=df_du)

            np.multiply(p, Phi, out=dphi_dp)
            np.add(dphi_dp, ph, out=dphi_dp)
            np.subtract(dphi_dp, 1.0, out=dphi_dp)
            np.divide(dphi_dp, q, out=dphi_dp)

            np.multiply(p * p, Phi, out=dphi_dq)
            np.subtract(ph, 1.0, out=tmp)
            np.multiply(p, tmp, out=tmp)
            np.add(dphi_dq, tmp, out=dphi_dq)
            np.divide(dphi_dq, q * q, out=dphi_dq)
            np.multiply(flows, ph, out=tmp)
            np.subtract(Phi, tmp, out=tmp)
            np.divide(tmp, q, out=tmp)
            np.add(dphi_dq, tmp, out=dphi_dq)
            np.multiply(-0.5, dphi_dq, out=dphi_dq)

            df_dp = np.multiply(ell, dphi_dp, out=dphi_dp)
            np.divide(df_dp, den, out=df_dp)
            df_dv = np.multiply(q * ell, dphi_dq, out=dphi_dq)
            np.divide(df_dv, den, out=df_dv)

            np.subtract(self.r, a, out=e)
            np.subtract(e, self._difference(f), out=e)
            np.negative(self._difference(df_du), out=J[:, :, 1])
            np.negative(self._difference(df_dp), out=J[:, :, 2])
            np.negative(self._difference(df_dv), out=J[:, :, 3])
        ok &= np.isfinite(e, out=self.ok_e[:k]).all(axis=1)
        ok &= np.isfinite(J, out=self.ok_J[:k]).all(axis=(1, 2))
        return ok


@contextmanager
def _column_ufuncs():
    """The setting for ufuncs over (rows, flows) arrays with (rows, 1) columns of row scalars.

    Saturating trial parameters produce infs; those rows are rejected, so the
    intermediate overflow is expected and silenced.  And the ufunc iterator
    copies a broadcast column into buffers of np.getbufsize() elements to
    lengthen its inner loop, 64 KB per operand and call at the default; with
    buffers shorter than a row it loops row by row and allocates nothing.
    """
    bufsize = np.setbufsize(16)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            yield
    finally:
        np.setbufsize(bufsize)


# Why a start stopped, by stop code: 0 while live; codes below _MERGED are opened, unretired starts.
_STOPS = ("live", "ftol", "gtol", "max_iter", "lambda_limit", "merged", "infeasible")
_LIVE, _FTOL, _GTOL, _MAX_ITER, _LAMBDA_LIMIT, _MERGED, _INFEASIBLE = range(len(_STOPS))


class _Starts:
    """Every Levenberg-Marquardt start's state while live and outcome once stopped, a row each.

    Columns over the k starts, search state only: theta (a, ln ell, p, ln q),
    rss, JtJ and g (J'J and J'e), the damping lam and its factor nu,
    iterations, evaluations (residual/Jacobian evaluations, infeasible trial
    points included), stop and merged_into.  ``stop`` is ``ftol`` (relative RSS
    drop below _RSS_RTOL: the actual drop of an accepted step, or the drop the
    Gauss-Newton model predicts where the damping passes 1e15), ``gtol`` (max
    |gradient| below _GRAD_ATOL), ``max_iter`` (_ITER_LIMIT iterations),
    ``lambda_limit`` (damping above 1e15 where the model predicts more),
    ``merged`` (retired into the start ``merged_into``, else -1) or
    ``infeasible`` (the start point is; the row's other columns mean nothing).
    """

    def __init__(self, theta: np.ndarray, rss: np.ndarray, JtJ: np.ndarray, g: np.ndarray):
        """The starts at the rows of theta, from their :meth:`_SShapeResiduals.normal_equations`."""
        k = len(theta)
        self.theta, self.rss, self.JtJ, self.g = theta.copy(), rss, JtJ, g
        self.lam = 1e-3 * np.max(np.diagonal(JtJ, axis1=1, axis2=2), axis=1)
        self.lam[~((self.lam > 0) & np.isfinite(self.lam))] = 1e-3
        self.nu = np.full(k, 2.0)
        self.iterations, self.evaluations, self.merged_into = np.zeros(k, int), np.ones(k, int), np.full(k, -1)
        self.stop = np.where(np.isnan(rss), _INFEASIBLE, _LIVE)  # a usable row's e'e is never NaN
        self.stop[(self.stop == _LIVE) & (np.max(np.abs(g), axis=1) < _GRAD_ATOL)] = _GTOL


def _damped_steps(JtJ: np.ndarray, lam: np.ndarray, g: np.ndarray):
    """Each row's step solving (J'J + lam D) delta = -g, D = diag(J'J) floored at
    1e-300, in one stacked call, or one by one if any system is singular;
    whether each was solved; and the stacked D."""
    D = np.zeros_like(JtJ)
    diagonal = (slice(None), *np.diag_indices(4))
    D[diagonal] = np.maximum(JtJ[diagonal], 1e-300)
    A = JtJ + lam[:, None, None] * D
    rhs = -g
    solved = np.ones(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0], solved, D
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        for i, (A_i, rhs_i) in enumerate(zip(A, rhs)):
            try:
                steps[i] = np.linalg.solve(A_i, rhs_i)
            except np.linalg.LinAlgError:
                solved[i] = False
        return steps, solved, D


def _predicts_no_drop(JtJ: np.ndarray, g: np.ndarray, rss: np.ndarray) -> np.ndarray:
    """Whether the Gauss-Newton model predicts each row's relative RSS drop,
    g' (J'J)^-1 g / RSS, below _RSS_RTOL (False where J'J is singular).

    MINPACK's ftol test takes the predicted drop as well as the actual one.
    A start whose trial steps are all rejected until the damping limit, at a
    point where the model predicts no more than that, has converged as far as
    its RSS can be computed.  On one recovery panel of 100 days x 360 bars the
    only start left at the optimum stopped so, at g' (J'J)^-1 g / RSS = 3e-17.
    """
    flat = np.zeros(len(rss), dtype=bool)
    for i, (JtJ_i, g_i, rss_i) in enumerate(zip(JtJ, g, rss.tolist())):
        try:
            drop = float(g_i @ np.linalg.solve(JtJ_i, g_i))
        except np.linalg.LinAlgError:
            continue
        flat[i] = 0.0 <= drop / max(rss_i, 1e-300) < _RSS_RTOL
    return flat


def _rank(rss: np.ndarray) -> np.ndarray:
    """Each row's place in ascending RSS, equal RSS in ascending row order."""
    rank = np.empty(len(rss), dtype=int)
    rank[np.argsort(rss, kind="stable")] = np.arange(len(rss))
    return rank


def _within_reach(s: _Starts, kept: np.ndarray, n: int) -> np.ndarray | None:
    """near[i, j] over the starts ``kept``: j ranks below i in RSS, j's metric
    pins its optimum down, and (theta_i - theta_j)' JtJ_j (theta_i - theta_j)
    <= _MERGE_RADIUS^2 RSS_j / (n - 4); None where no start's metric does.

    A start with zero RSS (a noise-free panel) absorbs nothing, and neither
    does one whose metric is too soft.  Where the gradient test passes (|g|^2
    <= 4 _GRAD_ATOL^2) the RSS can still lie up to 4 _GRAD_ATOL^2 /
    lambda_min(JtJ) above the optimum; unless that is within _RSS_RTOL of the
    RSS, searches into one basin stop at scattered points, and retiring one of
    them can drop the lowest.
    """
    JtJ = s.JtJ[kept]
    finite = np.isfinite(JtJ).all(axis=(1, 2))
    lowest_eig = np.zeros(len(kept))
    lowest_eig[finite] = np.linalg.eigvalsh(JtJ[finite])[:, 0]
    rss = s.rss[kept]
    absorbs = (rss > 0.0) & (4.0 * _GRAD_ATOL ** 2 <= _RSS_RTOL * rss * lowest_eig)
    if not absorbs.any():
        return None
    theta = s.theta[kept]
    diff = theta[:, None, :] - theta[None, :, :]
    d2 = np.einsum("ijk,jkl,ijl->ij", diff, JtJ, diff)
    reach = _MERGE_RADIUS ** 2 * rss / (n - 4)
    rank = _rank(rss)
    return absorbs[None, :] & (rank[None, :] < rank[:, None]) & (d2 <= reach)


def _merge(s: _Starts, kept: np.ndarray, near: np.ndarray) -> None:
    """Retire each start kept[i] with some near[i, j] into the lowest-RSS such
    kept[j] that is not retired itself, taking the starts in ascending RSS."""
    rank = _rank(s.rss[kept])
    stop = s.stop[kept]
    # In ascending RSS, so every candidate j is already kept or retired.
    for i in sorted(np.flatnonzero(near.any(axis=1)), key=rank.__getitem__):
        js = np.flatnonzero(near[i] & (stop != _MERGED))
        if js.size:
            stop[i] = _MERGED
            s.merged_into[kept[i]] = kept[js[np.argmin(rank[js])]]
    s.stop[kept] = stop


def _retire_merged(s: _Starts, n: int) -> None:
    """Retire each live start that lies within _MERGE_RADIUS standard errors of
    a start with lower RSS that is kept this round, in that start's metric
    (see :func:`_within_reach`).  Short panels, whose J'J is nearly singular,
    therefore run every start to its end.

    It pays on unscreened panels of continuous flows: recovery panels of 3,590
    to 7,898 rows fit 1.3 to 3.0 times slower without it, to the same RSS.  It
    retires no start in the benchmark's fits: tick-file day and pooled panels
    (integer flows), and a screened recovery fit's screen and full-panel run.
    """
    kept = np.flatnonzero(s.stop < _MERGED)
    near = _within_reach(s, kept, n)
    if near is not None:
        _merge(s, kept, near & (s.stop[kept] == _LIVE)[:, None])


def _distinct_survivors(s: _Starts, r: np.ndarray) -> np.ndarray:
    """The rows of the stopped starts that are neither retired, infeasible nor
    a duplicate of a lower-RSS one, which is each start within _MERGE_RADIUS
    standard errors of it, as :func:`_retire_merged` takes them, or with an RSS
    within _RSS_RTOL of its RSS, or with an RSS of at most _RSS_RTOL r'r (an
    exact fit), on a panel of returns r.

    The RSS tie stands in where the metric is too soft to absorb: on the
    pooled panels of tick files every start reached one optimum by ftol, at
    scattered points, and none absorbed another.  The floor stands in where
    zero RSS absorbs nothing: on noise-free recovery panels every start
    stopped by gtol at an RSS of 1e-24 to 2e-20, where r'r was 1.6e-4.
    """
    n = len(r)
    kept = np.flatnonzero(s.stop < _MERGED)
    rss = s.rss[kept]
    rank = _rank(rss)
    tied = (rss[:, None] - rss[None, :] <= _RSS_RTOL * rss[None, :]) | (rss[:, None] <= _RSS_RTOL * _tdot(r, r))
    near = (rank[None, :] < rank[:, None]) & tied
    if (within := _within_reach(s, kept, n)) is not None:
        near |= within
    _merge(s, kept, near)
    return kept[s.stop[kept] < _MERGED]


def _lm_starts(theta0s: np.ndarray, residuals: _SShapeResiduals, n: int) -> _Starts:
    """Run every start in rounds, one Levenberg-Marquardt iteration per live start per round.

    A round solves the live starts' damped systems in one stacked call,
    evaluates their trial points a block of rows at a time, and takes
    Nielsen's accept/reject and damping update (Madsen, Nielsen & Tingleff
    2004) as array operations on the live rows, each bitwise the float
    arithmetic of one start alone.  Then it retires merged starts.
    """
    opening = residuals.normal_equations(theta0s, _MARGIN_FLOOR, np.full(len(theta0s), np.inf))
    s = _Starts(theta0s, *opening)
    while (live := np.flatnonzero(s.stop == _LIVE)).size:
        s.iterations[live] += 1
        delta, solved, D = _damped_steps(s.JtJ[live], s.lam[live], s.g[live])
        stepping, delta, D = live[solved], delta[solved], D[solved]
        trial = s.theta[stepping] + delta
        rss_t, JtJ_t, g_t = residuals.normal_equations(trial, _MARGIN_FLOOR, s.rss[stepping])
        s.evaluations[stepping] += 1
        better = rss_t < s.rss[stepping]  # never where the trial is unusable (NaN) or overflows
        # A rejected trial raises the damping, and so does a singular system, which stops nothing.
        rejected = stepping[~better]
        raised = np.concatenate([live[~solved], rejected])
        s.lam[raised] *= s.nu[raised]
        s.nu[raised] *= 2.0
        limited = rejected[s.lam[rejected] > 1e15]
        s.stop[limited] = np.where(_predicts_no_drop(s.JtJ[limited], s.g[limited], s.rss[limited]),
                                   _FTOL, _LAMBDA_LIMIT)

        accepted, delta, rss_t, g_t = stepping[better], delta[better], rss_t[better], g_t[better]
        rss, lam = s.rss[accepted], s.lam[accepted]
        # delta'(lam D delta - g), each product a matmul on the rows, which makes the BLAS call of a one-row @.
        Dd = np.matmul(D[better], delta[:, :, None])[:, :, 0]
        pred = np.matmul(delta[:, None, :], (lam[:, None] * Dd - s.g[accepted])[:, :, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pred > 0, (rss - rss_t) / pred, 1.0)
        # float_power's cube is the libm pow of Python's ** on each float; np.power's is not.
        s.lam[accepted] = lam * np.fmax(1.0 / 3.0, 1.0 - np.float_power(2.0 * ratio - 1.0, 3.0))
        s.nu[accepted] = 2.0
        ftol = (rss - rss_t) / np.maximum(rss, 1e-300) < _RSS_RTOL
        s.theta[accepted], s.rss[accepted], s.JtJ[accepted], s.g[accepted] = (
            trial[better], rss_t, JtJ_t[better], g_t)
        s.stop[accepted[ftol]] = _FTOL
        s.stop[accepted[~ftol & (np.max(np.abs(g_t), axis=1) < _GRAD_ATOL)]] = _GTOL

        s.stop[live[(s.stop[live] == _LIVE) & (s.iterations[live] >= _ITER_LIMIT)]] = _MAX_ITER
        _retire_merged(s, n)
    return s


def _best_start(s: _Starts) -> int:
    """The row of the lowest-RSS converged start that was not retired, else of the lowest-RSS one."""
    kept = np.flatnonzero(s.stop < _MERGED)
    if not kept.size:
        raise EstimationError("no feasible start point; widen the grid or rescale flows")
    converged = kept[np.isin(s.stop[kept], (_FTOL, _GTOL))]
    rows = converged if converged.size else kept
    return int(rows[np.argmin(s.rss[rows])])


def fit_sshape(panel: RegressionPanel, grid: Sequence[tuple[float, float]] | None = None) -> FitResult:
    """Constrained multi-start nonlinear least squares for the S-shape curve.

    Runs a Levenberg-Marquardt search from every (p0, q0) grid point (default:
    a grid scaled to the panel's flow sd), keeps iterates feasible (ell > 0,
    q > 0, feasibility margin >= 1e-6), and returns the lowest-RSS converged
    start, one stopped by a relative RSS drop below 1e-12 or a gradient below
    1e-10 within 500 iterations; every fit takes these settings (see
    ``_Starts``).  If no start converges the best endpoint is returned with
    ``converged`` False.  t statistics come from the Gauss-Newton covariance
    in the original (a, ell, p, q) parameterization; where J'J overflows or a
    parameter's variance is not positive (a degenerate optimum), those
    standard errors and t statistics are NaN and ``message`` says which.

    The starts advance together in rounds, each start's search bitwise the
    one it would make alone.  After every round a live start within one
    standard error of a lower-RSS start, in that start's Gauss-Newton metric,
    is retired and never chosen (see :func:`_retire_merged`); on short panels,
    and on a panel the model fits exactly (RSS 0), every start runs to its end.

    On a panel of more than 8,192 rows the grid is first run on every 64th
    row (the screen), only to choose the grid points that run on the full
    panel: it drops the starts that :func:`_distinct_survivors` finds to be
    duplicates or exact fits there.  The rest run from their grid points, each
    search the one it makes unscreened.  On 100-day x 360-bar recovery panels
    one grid point was kept, and the fit took about a fifth of the unscreened
    time.  Every sum over the panel's rows runs over chunks of at most 8,192
    rows in order, so the result does not depend on the BLAS thread count.
    Standard errors come from the full panel's J at the optimum, and
    ``starts_tried`` counts the grid.
    On a panel the model fits exactly, the RSS (and so the BIC) is taken where
    the winning start's gradient first fell below 1e-10, not at the optimum:
    on noise-free recovery panels (seeds 1999, 2999, 3999) it is 5.6e-22 to
    7.7e-22, where the 33 starts run unscreened reach 3.7e-24 to 5.0e-24, and
    the parameters agree within 1e-9 relative.
    """
    d = panel.x - panel.x_prev
    if np.ptp(d) == 0.0:
        raise EstimationError("flow never changes between bars; impact slope not identified")
    theta0s = _start_thetas(panel, grid)
    thetas = theta0s
    if panel.n > _SCREEN_ROWS:
        sub = RegressionPanel(*(column[::_SCREEN_STRIDE] for column in (panel.r, panel.x, panel.x_prev)))
        screened = _lm_starts(theta0s, _SShapeResiduals(sub, len(theta0s)), sub.n)
        thetas = theta0s[_distinct_survivors(screened, sub.r)]
    residuals = _SShapeResiduals(panel, len(thetas))
    starts = _lm_starts(thetas, residuals, panel.n)
    best = _best_start(starts)
    theta, rss = starts.theta[best], float(starts.rss[best])
    converged = starts.stop[best] in (_FTOL, _GTOL)

    a, u, p, v = theta.tolist()
    ell = math.exp(u)
    q = math.exp(v)
    n = panel.n
    _, J = residuals.one(theta, 0.0)
    # covariance in original units: d/d ell = (1/ell) d/du, d/dq = (1/q) d/dv;
    # at a degenerate optimum (ell or q near e^-700) these overflow
    with np.errstate(over="ignore"):
        J_orig = J.copy()
        J_orig[:, 1] /= ell
        J_orig[:, 3] /= q
        JtJ = _tdot(J_orig, J_orig)
    dof = max(n - 4, 1)
    s2 = rss / dof
    names = ["a", "ell", "p", "q"]
    stop = "within max_iter" if starts.stop[best] == _MAX_ITER else "before the damping limit"
    notes = [] if converged else [f"no start converged {stop}; best endpoint returned"]
    if np.isfinite(JtJ).all():
        try:
            cov = s2 * np.linalg.inv(JtJ)
        except np.linalg.LinAlgError:
            cov = s2 * np.linalg.pinv(JtJ)
        var = np.diag(cov)
        se = np.sqrt(np.where(var > 0, var, np.nan))
        void = [name for name, v in zip(names, var) if not v > 0]
        if void:
            notes.append(f"J'J is singular at the optimum in {', '.join(void)}: "
                         "their standard errors and t statistics are NaN")
    else:
        se = np.full(4, np.nan)
        notes.append("J'J overflows at the optimum; standard errors and t statistics are NaN")
    ests = np.array([a, ell, p, q])
    t = ests / se
    adj, bic = _selection_stats(panel.r, rss, n, 4)
    message = "; ".join(notes)
    if message:
        logger.warning("fit_sshape: %s", message)
    return FitResult(
        model="sshape",
        a_hat=float(a),
        param_hats={"ell": float(ell), "p": float(p), "q": float(q)},
        ses=dict(zip(names, map(float, se))),
        t_stats=dict(zip(names, map(float, t))),
        rss=rss,
        adj_r2=adj,
        bic=bic,
        n=n,
        k=4,
        converged=bool(converged),
        starts_tried=len(theta0s),
        message=message,
    )


# ---------------------------------------------------------------------------
# flow mean reversion


@dataclass(frozen=True)
class OUEstimate:
    """AR(1)-implied mean-reversion estimates for the flow process.

    eta_hat is the unbiased sd of the flow levels (the stationary-dispersion
    convention); eta_diffusion_hat maps the AR residual sd back to the
    diffusion coefficient.  When the AR coefficient falls outside (0, 1) the
    continuous-time quantities are None and non_mean_reverting is set.
    """

    c_hat: float | None
    m_hat: float | None
    eta_hat: float
    eta_diffusion_hat: float | None
    beta0: float
    beta1: float
    se_c: float | None
    se_m: float | None
    se_eta: float
    se_eta_diffusion: float | None
    n: int
    non_mean_reverting: bool
    dt: float = 1.0


def _segments(flows) -> list[np.ndarray]:
    if isinstance(flows, np.ndarray):
        if flows.ndim == 1:
            return [flows.astype(float)]
        if flows.ndim == 2:
            return [row.astype(float) for row in flows]
        raise EstimationError("flows must be 1-d, 2-d, or a sequence of 1-d arrays")
    flows = list(flows)
    if flows and np.ndim(flows[0]) == 0:
        return [np.asarray(flows, dtype=float)]
    return [np.asarray(seg, dtype=float) for seg in flows]


def estimate_ou(flows, dt: float = 1.0) -> OUEstimate:
    """Estimate mean-reversion (c, m) and dispersion of a flow series.

    ``flows`` is one series or a sequence of day-contiguous segments; the
    AR(1) regression X_t on X_{t-1} never pairs observations across segment
    boundaries.  Requires at least 30 observations, and lagged flows whose
    spread is more than rounding (``_line_fit``'s rank test).
    """
    if not 0 < dt < math.inf:
        raise EstimationError(f"dt must be positive and finite, got {dt}")
    segs = [s for s in _segments(flows) if s.size >= 2]
    if not segs:
        raise EstimationError("need at least one segment with two observations")
    all_x = np.concatenate(segs)
    n_total = int(all_x.size)
    if n_total < 30:
        raise EstimationError(f"need at least 30 observations, got {n_total}")
    if not np.isfinite(all_x).all():
        raise EstimationError("flows contain non-finite values")
    y = np.concatenate([s[1:] for s in segs])
    xlag = np.concatenate([s[:-1] for s in segs])
    n = y.size
    if (line := _line_fit(xlag, y)) is None:
        raise EstimationError("flow series has no variance beyond rounding; dynamics not identified")
    beta0, beta1, xbar, sxx, rss = line
    s2 = rss / (n - 2)
    se_b1 = math.sqrt(s2 / sxx)
    var_b0 = s2 * (1.0 / n + xbar * xbar / sxx)
    cov_b01 = -xbar * s2 / sxx

    eta_hat = float(np.std(all_x, ddof=1))
    b1sq = beta1 * beta1
    # sd of the level sd under AR(1) dependence (long-run variance inflation)
    if 0.0 < beta1 < 1.0:
        infl = (1.0 + b1sq) / (1.0 - b1sq)
    else:
        infl = 1.0
    se_eta = eta_hat * math.sqrt(infl / (2.0 * n_total))

    if not 0.0 < beta1 < 1.0:
        return OUEstimate(
            c_hat=None, m_hat=None, eta_hat=eta_hat, eta_diffusion_hat=None,
            beta0=beta0, beta1=beta1, se_c=None, se_m=None, se_eta=se_eta,
            se_eta_diffusion=None, n=n_total, non_mean_reverting=True, dt=dt,
        )

    c_hat = -math.log(beta1) / dt
    m_hat = beta0 / (1.0 - beta1)
    se_c = se_b1 / (beta1 * dt)
    g0 = 1.0 / (1.0 - beta1)
    g1 = beta0 / (1.0 - beta1) ** 2
    se_m = math.sqrt(max(g0 * g0 * var_b0 + 2.0 * g0 * g1 * cov_b01 + g1 * g1 * se_b1 ** 2, 0.0))

    sigma_u = math.sqrt(s2)
    eta_diff = sigma_u * math.sqrt(2.0 * c_hat / (1.0 - b1sq))
    # delta method on (sigma_u, beta1); d ln eta_diff / d beta1
    dln_db1 = 0.5 * (-1.0 / (beta1 * math.log(beta1)) + 2.0 * beta1 / (1.0 - b1sq))
    se_eta_diff = eta_diff * math.sqrt(1.0 / (2.0 * (n - 2)) + (dln_db1 * se_b1) ** 2)

    return OUEstimate(
        c_hat=c_hat, m_hat=m_hat, eta_hat=eta_hat, eta_diffusion_hat=eta_diff,
        beta0=beta0, beta1=beta1, se_c=se_c, se_m=se_m, se_eta=se_eta,
        se_eta_diffusion=se_eta_diff, n=n_total, non_mean_reverting=False, dt=dt,
    )


# ---------------------------------------------------------------------------
# serialization


def fit_result_to_dict(fr: FitResult) -> dict:
    return asdict(fr)


def _fit_row_fault(rec: dict, seen: set[tuple[str, str]]) -> str | None:
    """Why read_daily_fits_csv refuses a row (``rec`` by DAILY_FIT_HEADER name,
    converged as its cell) after the rows whose (date, model) are in ``seen``,
    or None, adding the row's (date, model) to ``seen``: a model other than
    _MODEL_PARAMS' names, a converged cell other than 0 or 1, or a converged
    row without its model's parameters, rss, adj_r2 or bic, with one not finite
    (a bic of -inf, at RSS 0, aside) or with an S-shape ell or q that is not
    positive."""
    if rec["model"] not in _MODEL_PARAMS:
        return f"model must be one of {', '.join(_MODEL_PARAMS)}, got {rec['model']!r}"
    if rec["converged"] not in ("0", "1"):
        return f"converged must be 0 or 1, got {rec['converged']!r}"
    required = (*_MODEL_PARAMS[rec["model"]], "rss", "adj_r2", "bic") if rec["converged"] == "1" else ()
    if missing := [name for name in required if rec[name] is None]:
        return f"converged {rec['model']} fit lacks {', '.join(missing)}"
    for name in ("ell", "q") if required and rec["model"] == "sshape" else ():
        if not rec[name] > 0:
            return f"{name} must be positive, got {rec[name]!r}"
    for name in required:
        if not (math.isfinite(rec[name]) or (name == "bic" and rec[name] == -math.inf)):
            return f"{name} must be finite{' or -inf' if name == 'bic' else ''}, got {rec[name]!r}"
    if (key := (rec["date"], rec["model"])) in seen:
        return f"second {rec['model']} row for {rec['date']}"
    seen.add(key)
    return None


def write_daily_fits_csv(rows: list[tuple[str, FitResult]], dest: str | Path) -> None:
    """One row per (date, fit): shared columns plus the union of model parameters.

    Raises ValueError naming the date and model, before the file is opened,
    for a row that read_daily_fits_csv would refuse (``_fit_row_fault``).
    """
    seen: set[tuple[str, str]] = set()
    recs = []
    for date, fr in rows:
        rec = dict(zip(DAILY_FIT_HEADER, (
            date, fr.model, "1" if fr.converged else "0", fr.n, fr.k, fr.a_hat,
            *(fr.param_hats.get(name) for name in ("ell", "p", "q", "alpha")), fr.rss, fr.adj_r2, fr.bic)))
        if fault := _fit_row_fault(rec, seen):
            raise ValueError(f"{date} {fr.model}: {fault}: the fits file could not be read back")
        recs.append(rec.values())
    write_table(dest, DAILY_FIT_HEADER, recs)


def read_daily_fits_csv(path: str | Path) -> list[dict]:
    """Rows of the daily-fit CSV as dicts with floats parsed and '' -> None.

    A bad header, row length, number or integer, or a row that
    ``_fit_row_fault`` refuses, raises ParseError with the file and line.
    """
    out: list[dict] = []
    seen: set[tuple[str, str]] = set()
    for where, row in read_table(path, DAILY_FIT_HEADER):
        rec = dict(zip(DAILY_FIT_HEADER, row))
        for key in ("a_hat", "ell", "p", "q", "alpha", "rss", "adj_r2", "bic"):
            rec[key] = parse_float(rec[key], where=where)
        rec["n"] = parse_int(rec["n"], where=where)
        rec["k"] = parse_int(rec["k"], where=where)
        if fault := _fit_row_fault(rec, seen):
            raise ParseError(f"{where}: {fault}")
        rec["converged"] = rec["converged"] == "1"
        out.append(rec)
    return out
