"""Reference implementations of the multi-start S-shape fit.

``resid_jac`` evaluates the residuals and Jacobian on all 2n flows of a panel,
``run_lm`` runs one start's Levenberg-Marquardt search to its end, and
``fit_starts`` runs every start one after another and picks the lowest-RSS
converged endpoint.  ``lockstep_starts`` steps the starts together, one
evaluation at a time, each start a ``_Start`` object, retiring starts that
merge by its own ``_retire_merged``.  The library evaluates the flows in panel
order, once per x and seam x_prev, and holds all starts' state in arrays that a
round steps together; the tests check its fits against these.

Both sum e'e, J'J and J'e over chunks of at most CHUNK rows, added in order
(``sse``, ``gram``, ``grad``), so no BLAS thread count changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from liqimpact.estimation import EstimationError, RegressionPanel
from liqimpact.impact import SShapeParams, big_phi, feasibility_margin, phi

# A live start within this many standard errors of a kept start with lower
# RSS, in that start's Gauss-Newton metric, is retired as a duplicate.
MERGE_RADIUS = 1.0
# Sums over a panel's rows run over chunks of at most this many rows.
CHUNK = 8192


def chunk_sum(product, *arrays):
    """product of the arrays' chunks of at most CHUNK rows, summed in row order."""
    parts = [product(*(a[lo:lo + CHUNK] for a in arrays)) for lo in range(0, len(arrays[0]), CHUNK)]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def sse(e: np.ndarray) -> float:
    return float(chunk_sum(lambda ec: ec @ ec, e))


def gram(J: np.ndarray) -> np.ndarray:
    return chunk_sum(lambda Jc: Jc.T @ Jc, J)


def grad(J: np.ndarray, e: np.ndarray) -> np.ndarray:
    return chunk_sum(lambda Jc, ec: Jc.T @ ec, J, e)


def resid_jac(theta: np.ndarray, panel: RegressionPanel, margin_floor: float):
    """Residuals and Jacobian wrt (a, u=ln ell, p, v=ln q); None when infeasible."""
    a, u, p, v = theta
    if not (math.isfinite(u) and math.isfinite(p) and math.isfinite(v)):
        return None
    if u > 700.0 or v > 700.0:
        return None
    ell = math.exp(u)
    q = math.exp(v)
    if ell == 0.0 or q == 0.0:
        return None
    params = SShapeParams(ell, p, q)
    if feasibility_margin(params) < margin_floor:
        return None

    n = panel.n
    xs = np.concatenate([panel.x, panel.x_prev])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        Phi = np.asarray(big_phi(xs, params))
        ph = np.asarray(phi(xs, params))
        den = 1.0 + ell * Phi
        if not np.all(np.isfinite(den)) or np.any(den <= 0.0):
            return None
        f = np.log1p(ell * Phi)
        df_du = ell * Phi / den
        dPhi_dp = (p * Phi + ph - 1.0) / q
        dPhi_dq = -0.5 * ((p * p * Phi + p * (ph - 1.0)) / (q * q) + (Phi - xs * ph) / q)
        df_dp = ell * dPhi_dp / den
        df_dv = q * ell * dPhi_dq / den

        e = panel.r - a - (f[:n] - f[n:])
        J = np.empty((n, 4))
        J[:, 0] = -1.0
        J[:, 1] = -(df_du[:n] - df_du[n:])
        J[:, 2] = -(df_dp[:n] - df_dp[n:])
        J[:, 3] = -(df_dv[:n] - df_dv[n:])
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(J))):
        return None
    return e, J


def predicts_no_drop(JtJ: np.ndarray, g: np.ndarray, rss: float, rss_rtol: float) -> bool:
    """Whether the Gauss-Newton model predicts a relative RSS drop g' (J'J)^-1 g / RSS below rss_rtol."""
    try:
        drop = float(g @ np.linalg.solve(JtJ, g))
    except np.linalg.LinAlgError:
        return False
    return 0.0 <= drop / max(rss, 1e-300) < rss_rtol


@dataclass
class StartOutcome:
    theta: np.ndarray
    rss: float
    converged: bool
    iterations: int


def run_lm(theta0: np.ndarray, panel: RegressionPanel, margin_floor: float,
           max_iter: int, rss_rtol: float, grad_atol: float) -> StartOutcome | None:
    out = resid_jac(theta0, panel, margin_floor)
    if out is None:
        return None
    e, J = out
    theta = theta0.copy()
    rss = sse(e)
    JtJ = gram(J)
    g = grad(J, e)
    lam = 1e-3 * float(np.max(np.diag(JtJ)))
    if lam <= 0 or not math.isfinite(lam):
        lam = 1e-3
    nu = 2.0
    converged = bool(np.max(np.abs(g)) < grad_atol)
    it = 0
    while it < max_iter and not converged:
        it += 1
        D = np.diag(np.maximum(np.diag(JtJ), 1e-300))
        try:
            delta = np.linalg.solve(JtJ + lam * D, -g)
        except np.linalg.LinAlgError:
            lam *= nu
            nu *= 2.0
            continue
        trial = theta + delta
        res = resid_jac(trial, panel, margin_floor)
        accepted = False
        if res is not None:
            e_t, J_t = res
            rss_t = sse(e_t)
            if math.isfinite(rss_t) and rss_t < rss:
                pred = float(delta @ (lam * (D @ delta) - g))
                ratio = (rss - rss_t) / pred if pred > 0 else 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                rel_drop = (rss - rss_t) / max(rss, 1e-300)
                theta, e, J, rss = trial, e_t, J_t, rss_t
                JtJ = gram(J)
                g = grad(J, e)
                accepted = True
                if rel_drop < rss_rtol or np.max(np.abs(g)) < grad_atol:
                    converged = True
        if not accepted:
            lam *= nu
            nu *= 2.0
            if lam > 1e15:
                # No step lowers the RSS; converged if the model predicts no drop either.
                converged = predicts_no_drop(JtJ, g, rss, rss_rtol)
                break
    return StartOutcome(theta=theta, rss=rss, converged=converged, iterations=it)


def fit_starts(theta0s, panel: RegressionPanel, *, max_iter: int = 500, rss_rtol: float = 1e-12,
               grad_atol: float = 1e-10, margin_floor: float = 1e-6):
    """(every start's outcome, the chosen one): lowest-RSS converged, else lowest-RSS."""
    outcomes = [run_lm(t0, panel, margin_floor, max_iter, rss_rtol, grad_atol) for t0 in theta0s]
    usable = [o for o in outcomes if o is not None]
    if not usable:
        raise EstimationError("no feasible start point; widen the grid or rescale flows")
    converged_set = [o for o in usable if o.converged]
    return outcomes, min(converged_set or usable, key=lambda o: o.rss)


@dataclass
class _Start:
    """One Levenberg-Marquardt start: its state while live, its outcome once stopped.

    ``stop`` is None while live, then one of ``ftol`` (also at the damping
    limit when the Gauss-Newton model predicts no drop, see
    :func:`predicts_no_drop`), ``gtol``, ``max_iter``, ``lambda_limit`` or
    ``merged`` (retired into the start ``merged_into``).
    ``evaluations`` counts residual/Jacobian evaluations, infeasible trial
    points included.
    """

    index: int
    theta: np.ndarray
    rss: float
    JtJ: np.ndarray
    g: np.ndarray
    lam: float
    nu: float = 2.0
    iterations: int = 0
    evaluations: int = 1
    stop: str | None = None
    merged_into: int | None = None

    @property
    def converged(self) -> bool:
        return self.stop in ("ftol", "gtol")


def _retire_merged(kept: list[_Start], n: int, rss_rtol: float, grad_atol: float) -> None:
    """Retire each live start i that lies within MERGE_RADIUS standard errors of
    a start j with lower RSS that is kept this round:
    (theta_i - theta_j)' JtJ_j (theta_i - theta_j) <= MERGE_RADIUS^2 RSS_j / (n - 4),
    where j's metric pins its optimum down: RSS_j > 0 and
    4 grad_atol^2 <= rss_rtol RSS_j lambda_min(JtJ_j).  Equal RSS goes to the
    lower index, and i goes into the lowest-RSS such j not retired this round.
    """
    if not kept:
        return
    JtJ = np.array([s.JtJ for s in kept])
    finite = np.isfinite(JtJ).all(axis=(1, 2))
    lowest_eig = np.zeros(len(kept))
    lowest_eig[finite] = np.linalg.eigvalsh(JtJ[finite])[:, 0]
    rss = np.array([s.rss for s in kept])
    absorbs = (rss > 0.0) & (4.0 * grad_atol ** 2 <= rss_rtol * rss * lowest_eig)
    if not absorbs.any():
        return
    theta = np.array([s.theta for s in kept])
    diff = theta[:, None, :] - theta[None, :, :]
    d2 = np.einsum("ijk,jkl,ijl->ij", diff, JtJ, diff)
    reach = MERGE_RADIUS ** 2 * rss / (n - 4)
    rank = np.empty(len(kept), dtype=int)
    rank[np.argsort(rss, kind="stable")] = np.arange(len(kept))
    live = np.array([s.stop is None for s in kept])
    near = live[:, None] & absorbs[None, :] & (rank[None, :] < rank[:, None]) & (d2 <= reach)
    # In ascending RSS, so every candidate j is already kept or retired this round.
    for i in sorted(np.flatnonzero(near.any(axis=1)), key=rank.__getitem__):
        js = [j for j in np.flatnonzero(near[i]) if kept[j].stop != "merged"]
        if js:
            kept[i].stop = "merged"
            kept[i].merged_into = kept[min(js, key=rank.__getitem__)].index


def _open_start(index: int, theta0: np.ndarray, evaluate, max_iter: int,
                grad_atol: float) -> _Start | None:
    out = evaluate(theta0)
    if out is None:
        return None
    e, J = out
    JtJ = gram(J)
    lam = 1e-3 * float(np.max(np.diag(JtJ)))
    if lam <= 0 or not math.isfinite(lam):
        lam = 1e-3
    s = _Start(index=index, theta=theta0.copy(), rss=sse(e), JtJ=JtJ, g=grad(J, e), lam=lam)
    if np.max(np.abs(s.g)) < grad_atol:
        s.stop = "gtol"
    elif max_iter <= 0:
        s.stop = "max_iter"
    return s


def _lm_step(s: _Start, evaluate, max_iter: int, rss_rtol: float, grad_atol: float) -> None:
    """One iteration with Nielsen's damping update; sets ``s.stop`` when the start is done."""
    s.iterations += 1
    D = np.diag(np.maximum(np.diag(s.JtJ), 1e-300))
    try:
        delta = np.linalg.solve(s.JtJ + s.lam * D, -s.g)
    except np.linalg.LinAlgError:
        s.lam *= s.nu
        s.nu *= 2.0
    else:
        trial = s.theta + delta
        res = evaluate(trial)
        s.evaluations += 1
        accepted = False
        if res is not None:
            e, J = res
            rss_t = sse(e)
            if math.isfinite(rss_t) and rss_t < s.rss:
                pred = float(delta @ (s.lam * (D @ delta) - s.g))
                ratio = (s.rss - rss_t) / pred if pred > 0 else 1.0
                s.lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                s.nu = 2.0
                rel_drop = (s.rss - rss_t) / max(s.rss, 1e-300)
                s.theta, s.rss, s.JtJ, s.g = trial, rss_t, gram(J), grad(J, e)
                accepted = True
                if rel_drop < rss_rtol:
                    s.stop = "ftol"
                elif np.max(np.abs(s.g)) < grad_atol:
                    s.stop = "gtol"
        if not accepted:
            s.lam *= s.nu
            s.nu *= 2.0
            if s.lam > 1e15:
                s.stop = "ftol" if predicts_no_drop(s.JtJ, s.g, s.rss, rss_rtol) else "lambda_limit"
    if s.stop is None and s.iterations >= max_iter:
        s.stop = "max_iter"


def lockstep_starts(theta0s, evaluate, n: int, *, max_iter: int = 500, rss_rtol: float = 1e-12,
                    grad_atol: float = 1e-10) -> list[_Start | None]:
    """Every start's outcome when each live start takes one iteration per round,
    one start after another, with ``evaluate(theta)`` giving (e, J) or None.

    After each round, starts that have merged into a lower-RSS start are
    retired (see :func:`_retire_merged`); None where the start point is infeasible.
    """
    starts = [_open_start(i, t0, evaluate, max_iter, grad_atol) for i, t0 in enumerate(theta0s)]
    kept = [s for s in starts if s is not None]
    live = [s for s in kept if s.stop is None]
    while live:
        for s in live:
            _lm_step(s, evaluate, max_iter, rss_rtol, grad_atol)
        _retire_merged(kept, n, rss_rtol, grad_atol)
        kept = [s for s in kept if s.stop != "merged"]
        live = [s for s in kept if s.stop is None]
    return starts
