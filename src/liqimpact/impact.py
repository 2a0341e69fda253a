"""Closed-form price impact curves and their defining ODE structure.

The S-shape family is built from the exponential-quadratic kernel
``phi(x) = exp(-p x - q x^2/2)`` and its running integral ``Phi``; the
impact curve on log-price scale is ``f(x) = log(1 + ell * Phi(x))`` with
gradient ``g = ell * phi / (1 + ell * Phi)``. A linear curve
(``f = alpha x``) and a square-root heuristic
(``f = alpha sign(x) sqrt(|x|)``) share the interface. Structural
drift/risk parameters map onto (p, q), and the Ito identities of the
resulting price process are provided as plain formulas so simulation and
estimation can cross-check each other. ``g`` solves the Bernoulli
equation ``0 = -s(x) + g' + p(x) g + g^2``.

Numerical policy for ``Phi``: the textbook normal-CDF expression
``sqrt(2 pi / q) exp(p^2/2q) (N(sqrt(q) x + p/sqrt(q)) - N(p/sqrt(q)))``
is used only where it is well conditioned (``|p|/sqrt(q) <= 6`` and
``p^2/2q <= 300``). Outside that band the same quantity is computed from
scaled complementary error functions and log-CDF differences, which keep
full relative precision through the far tails. A separate small-q branch
covers ``q x^2`` vanishing relative to ``|p x|``. Phi's constants (once per
curve, ``SShapeParams._phi_constants``), the direct form's kernel and phi's
exponent live here alone; the fitter calls the kernels on columns.  f and g take
ell * Phi from big_phi alone (``_ell_phi``), or for a Python float by its band route in floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

__all__ = [
    "ParameterError",
    "SShapeParams",
    "LinearParams",
    "SqrtParams",
    "curve_to_dict",
    "curve_class",
    "curve_from_dict",
    "StructuralParams",
    "PQDecomposition",
    "phi",
    "big_phi",
    "f_sshape",
    "g_sshape",
    "f_linear",
    "f_sqrt",
    "inflection_point",
    "feasibility_margin",
    "log_feasibility_load",
    "linear_alpha_from_ps",
    "structural_to_pq",
    "sigma_p_squared",
    "mu_p",
]

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_TAIL_Z = 6.0        # |p|/sqrt(q) beyond which the direct CDF difference degrades
_TAIL_LOG = 300.0    # p^2/(2q) beyond which exp(p^2/2q) risks overflow
_SMALLQ_REL = 1e-12  # q x^2 below this fraction of |p x| switches to the q->0 limit
_DIRECT_CAP = 1e300  # bound on ell*K and ell*exp(b^2/2) under which ell*Phi and ell*phi cannot overflow
_LOG_DBL_MAX = math.log(np.finfo(float).max)


class ParameterError(ValueError):
    """Parameters (or an evaluation point) left the domain of an operation."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class SShapeParams:
    """Impact curve f(x) = log(1 + ell * Phi(x)).

    ell is the small-x slope (log-price per contract), p and q the linear
    and quadratic coefficients of the kernel exponent. q must be positive;
    whether f is defined on the whole real line additionally depends on
    the sign of :func:`feasibility_margin`.
    """

    family: ClassVar[str] = "sshape"
    ell: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not self.ell > 0.0:
            raise ParameterError(f"ell must be positive, got {self.ell!r}")
        if not self.q > 0.0:
            raise ParameterError(f"q must be positive, got {self.q!r}")

    @cached_property
    def _phi_constants(self) -> tuple[float, float, float | None, float | None, float]:
        """(sqrt(q), b, k, N(b), small-q threshold) of Phi's direct form k (N(sqrt(q) x + b) - N(b)),
        b = p / sqrt(q), k = sqrt(2 pi / q) exp(b^2 / 2), with k and N(b) None outside the band where
        it is well conditioned; a point x != 0 with |x| below the threshold is in the small-q limit."""
        rq = math.sqrt(self.q)
        b = self.p / rq
        k = ndtr_b = None
        if abs(b) <= _TAIL_Z and 0.5 * b * b <= _TAIL_LOG:
            k, ndtr_b = math.sqrt(2.0 * math.pi / self.q) * math.exp(0.5 * b * b), float(ndtr(b))
        return rq, b, k, ndtr_b, _SMALLQ_REL * abs(self.p) / self.q

    @cached_property
    def _direct_form(self) -> tuple[float, float, float, float, float] | None:
        """_phi_constants where the direct form applies, or None outside its band or where
        ell * K or ell * exp(b^2 / 2), the bounds of |ell * Phi| and ell * phi, exceeds _DIRECT_CAP."""
        form = self._phi_constants
        if form[2] is None or not self.ell * max(form[2], math.exp(0.5 * form[1] * form[1])) <= _DIRECT_CAP:
            return None
        return form


@dataclass(frozen=True)
class LinearParams:
    """Impact curve f(x) = alpha * x."""

    family: ClassVar[str] = "linear"
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha!r}")


@dataclass(frozen=True)
class SqrtParams:
    """Impact curve f(x) = alpha * sign(x) * sqrt(|x|)."""

    family: ClassVar[str] = "sqrt"
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha!r}")


_FAMILIES = {cls.family: cls for cls in (SShapeParams, LinearParams, SqrtParams)}


def curve_to_dict(params: SShapeParams | LinearParams | SqrtParams) -> dict:
    """The curve's parameters plus its ``family`` name, as :func:`curve_from_dict` reads them."""
    return {"family": params.family, **asdict(params)}


def curve_class(family: str) -> type[SShapeParams | LinearParams | SqrtParams]:
    """The curve class of a family name; ParameterError for an unknown one."""
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ParameterError(f"impact family must be one of {', '.join(_FAMILIES)}, got {family!r}")
    return cls


def curve_from_dict(block: dict) -> SShapeParams | LinearParams | SqrtParams:
    """Build a curve from its parameters and ``family`` name (default sshape).

    Raises ParameterError for an unknown family; missing or extra parameter
    names raise TypeError from the constructor.
    """
    fields = dict(block)
    return curve_class(fields.pop("family", "sshape"))(**fields)


@dataclass(frozen=True)
class StructuralParams:
    """Primitives of the coupled price/flow model.

    mu_s, sigma_s: drift and volatility of the unaffected price.
    rho: correlation between price and flow shocks.
    c, m, eta: mean-reversion rate, level and volatility of the flow.
    delta, tau: level and slope of the flow risk premium,
        eta * lambda_w(x) = -tau * x + delta.
    r: short rate. kappa0: constant carry earned by the marginal trader.
    """

    mu_s: float
    sigma_s: float
    rho: float
    c: float
    m: float
    eta: float
    delta: float
    tau: float
    r: float
    kappa0: float

    def __post_init__(self) -> None:
        if not self.sigma_s >= 0.0:
            raise ParameterError(f"sigma_s must be non-negative, got {self.sigma_s!r}")
        if not self.eta > 0.0:
            raise ParameterError(f"eta must be positive, got {self.eta!r}")
        if not self.c > 0.0:
            raise ParameterError(f"c must be positive, got {self.c!r}")
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho!r}")
        if not self.kappa0 >= 0.0:
            raise ParameterError(f"kappa0 must be non-negative, got {self.kappa0!r}")


@dataclass(frozen=True)
class PQDecomposition:
    """(p, q) implied by structural parameters, with p split into its sources."""

    p: float
    q: float
    mean_reversion: float  # 2 c m / eta^2
    covariance: float      # 2 rho sigma_s / eta
    liquidity: float       # -2 delta / eta^2


# ---------------------------------------------------------------------------
# kernel and running integral


def _vec(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def _devec(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def phi(x, params: SShapeParams):
    """Kernel phi(x) = exp(-p x - q x^2 / 2). phi(0) = 1."""
    xv, scalar = _vec(x)
    with np.errstate(over="ignore"):
        out = np.exp(_exponent(xv, params.p, params.q))
    return _devec(out, scalar)


def _exponent(xv: np.ndarray, p, q, out=None, work=None) -> np.ndarray:
    """phi's exponent -(p x + (q/2) x x) at xv, in out, with work as scratch; p and q
    are scalars or (rows, 1) columns of them, each row bitwise the scalar evaluation.
    Without out and work each step allocates: on a few points, an array updated in
    place by another array costs more than a new one."""
    half = np.multiply(np.multiply(0.5 * q, xv, out=work), xv, out=work)
    return np.negative(np.add(np.multiply(p, xv, out=out), half, out=out), out=out)


def big_phi(x, params: SShapeParams):
    """Running integral Phi(x) of the kernel from 0 to x.

    Odd-symmetric in x when p = 0, strictly increasing, Phi(0) = 0.
    Evaluation is routed between a direct normal-CDF expression, a
    tail-stable form built on erfcx / log_ndtr, and the q -> 0 limit
    (1 - exp(-p x)) / p; see the module docstring.
    """
    xv, scalar = _vec(x)
    threshold, a = params._phi_constants[4], np.abs(xv)
    # Points in the q -> 0 limit, x = 0 left out (Phi(0) = 0 either way).  The usual case has none,
    # and the point nearest 0 says so before a mask is built.
    if not (a.min(initial=math.inf) < threshold and (small := (a < threshold) & (a > 0.0)).any()):
        return _devec(_big_phi_gaussian(xv, params), scalar)
    out = np.empty(xv.shape)
    us = params.p * xv[small]
    lim = -np.expm1(-us) / params.p
    out[small] = np.where(np.abs(us) < 1e-12, xv[small], lim)
    rest = ~small
    if rest.any():
        out[rest] = _big_phi_gaussian(xv[rest], params)
    return _devec(out, scalar)


def _direct_big_phi(xv: np.ndarray, rq, b, k, ndtr_b, out=None) -> np.ndarray:
    """Phi's direct form k (N(rq x + b) - N(b)) at xv, in out, from a curve's _phi_constants
    or (rows, 1) columns of them, each row bitwise the scalar evaluation."""
    out = np.multiply(rq, xv, out=out)
    out += b
    ndtr(out, out=out)
    out -= ndtr_b
    out *= k
    return out


def _big_phi_gaussian(xv: np.ndarray, params: SShapeParams) -> np.ndarray:
    rq, b, k, ndtr_b, _ = params._phi_constants
    if k is not None:
        return _direct_big_phi(xv, rq, b, k, ndtr_b)
    c_half = 0.5 * math.sqrt(2.0 * math.pi / params.q)
    a = rq * xv + b
    with np.errstate(over="ignore"):
        if b >= 0.0:
            delta = log_ndtr(-a) - log_ndtr(-b)
            return c_half * erfcx(b / _SQRT2) * (-np.expm1(delta))
        delta = log_ndtr(a) - log_ndtr(b)
        return c_half * erfcx(-b / _SQRT2) * np.expm1(delta)


def _log_ell_phi_huge(xv: np.ndarray, params: SShapeParams) -> np.ndarray:
    """log(ell * Phi(x)) where Phi overflowed to +inf (reachable only for p < 0)."""
    rq, b, *_ = params._phi_constants
    a = rq * xv + b
    delta = log_ndtr(a) - log_ndtr(b)
    log_c_half = math.log(0.5) + 0.5 * math.log(2.0 * math.pi / params.q)
    return (
        math.log(params.ell)
        + log_c_half
        + np.log(erfcx(-b / _SQRT2))
        + delta
        + np.log1p(-np.exp(-delta))
    )


def _log1p_ell_phi(t: np.ndarray, xv: np.ndarray, params: SShapeParams) -> np.ndarray:
    """log(1 + t) for t = ell * Phi(xv) from big_phi, in log space where t overflowed to +inf."""
    with np.errstate(invalid="ignore"):
        out = np.log1p(t)
    huge = np.isinf(t)
    if huge.any():
        out[huge] = _log_ell_phi_huge(xv[huge], params)
    return out


def _ell_phi(xv: np.ndarray, params: SShapeParams) -> tuple[np.ndarray, bool]:
    """ell * big_phi(x), and whether ``params._direct_form`` is set, whose cap
    rules out overflow of ell * Phi and ell * phi at every x.  Without it
    ell * Phi may overflow to +inf, which f and g take in log space.  Raises
    ParameterError where 1 + ell * Phi(x) <= 0.
    """
    with np.errstate(over="ignore"):
        t = params.ell * big_phi(xv, params)
    if (bad := t <= -1.0).any():
        raise ParameterError(f"impact curve undefined at x={float(xv[bad][0]):g}: 1 + ell*Phi(x) <= 0 for {params}")
    return t, params._direct_form is not None


def _ell_phi_float(x: float, params: SShapeParams) -> float | None:
    """ell * Phi(x) at a Python float x by the direct form, in floats, or None
    where the array route is needed: no ``_direct_form``, x in the small-q
    limit, or ell * Phi(x) not above -1.

    The steps are _direct_big_phi's (big_phi's band route) and the product
    with ell, one IEEE operation each on floats and numpy's own ndtr, so the
    value is bitwise _ell_phi's on [x].
    """
    form = params._direct_form
    if form is None:
        return None
    rq, b, k, ndtr_b, small_q = form
    if 0.0 < abs(x) < small_q:
        return None
    t = (float(ndtr(rq * x + b)) - ndtr_b) * k * params.ell
    return t if t > -1.0 else None


def f_sshape(x, params: SShapeParams):
    """Impact on log-price scale: f(x) = log(1 + ell * Phi(x)).

    Raises ParameterError if 1 + ell * Phi(x) <= 0 at an evaluated point
    (the parameters are infeasible there). Where ell * Phi overflows the
    float range the log is taken in log space instead, so finite x always
    yields finite f for feasible parameters (under the direct form's cap it
    cannot overflow).  A Python float x that the direct form serves is
    evaluated in floats (``_ell_phi_float``), bitwise the array evaluation at
    a fraction of its cost; any other point takes ell * big_phi(x).
    """
    if isinstance(x, float) and (t := _ell_phi_float(x, params)) is not None:
        return float(np.log1p(t))
    xv, scalar = _vec(x)
    t, direct = _ell_phi(xv, params)
    return _devec(np.log1p(t) if direct else _log1p_ell_phi(t, xv, params), scalar)


def g_sshape(x, params: SShapeParams):
    """Gradient of the S-shape curve: g = ell * phi / (1 + ell * Phi).

    Positive everywhere, g(0) = ell exactly, and g solves the s = 0
    Bernoulli equation g' = -(p + q x) g - g^2.  A Python float x takes the
    float route of :func:`f_sshape`, with _exponent's steps in floats.
    """
    if isinstance(x, float) and (t := _ell_phi_float(x, params)) is not None:
        expo = -((params.p * x) + ((0.5 * params.q) * x) * x)
        return float(params.ell * np.exp(expo) / (1.0 + t))
    xv, scalar = _vec(x)
    t, direct = _ell_phi(xv, params)
    expo = _exponent(xv, params.p, params.q)
    if direct:
        return _devec(params.ell * np.exp(expo) / (1.0 + t), scalar)
    with np.errstate(over="ignore"):
        num = params.ell * np.exp(expo)
    den = 1.0 + t
    out = np.empty(xv.shape)
    safe = np.isfinite(num) & np.isfinite(den)
    np.divide(num, den, out=out, where=safe)
    if not safe.all():
        rough = ~safe
        out[rough] = np.exp(math.log(params.ell) + expo[rough] - _log1p_ell_phi(t[rough], xv[rough], params))
    return _devec(out, scalar)


def f_linear(x, params: LinearParams):
    """Linear impact f(x) = alpha * x (constant marginal impact alpha)."""
    xv, scalar = _vec(x)
    return _devec(params.alpha * xv, scalar)


def f_sqrt(x, params: SqrtParams):
    """Square-root heuristic f(x) = alpha * sign(x) * sqrt(|x|)."""
    xv, scalar = _vec(x)
    return _devec(params.alpha * np.sign(xv) * np.sqrt(np.abs(xv)), scalar)


def inflection_point(params: SShapeParams) -> float:
    """x* = -p/q, where the curve turns from convex to concave.

    Interpreted as market depth: the flow beyond which additional orders
    move the price less and less.
    """
    return -params.p / params.q


def log_feasibility_load(p: float, q: float) -> float:
    """log K(p, q), K = sqrt(2 pi / q) exp(b^2 / 2) N(b) with b = p / sqrt(q).

    The feasibility margin is 1 - ell * K. For b < 0, exp(b^2 / 2) N(b) is
    taken as erfcx(-b / sqrt 2) / 2: the sum b^2 / 2 + log N(b) cancels
    completely below about b = -1e8 and turns NaN once b^2 overflows. For
    b >= 0 the sum does not cancel, and it overflows to +inf exactly when K does.
    """
    # A numpy p (the fitter's iterates) would warn where b * b overflows to the right +inf.
    b = float(p) / math.sqrt(q)
    if b < 0.0:
        tail = 0.5 * float(erfcx(-b / _SQRT2))
        if tail == 0.0:  # b overflowed to -inf, where K tends to 1 / |p|
            return -math.log(-p)
        log_tail = math.log(tail)
    else:
        log_tail = 0.5 * b * b + float(log_ndtr(b))
    return 0.5 * (_LOG_2PI - math.log(q)) + log_tail


def feasibility_margin(params: SShapeParams) -> float:
    """1 - ell * sqrt(2 pi / q) * exp(p^2 / 2q) * N(p / sqrt(q)).

    Positive iff 1 + ell * Phi(x) > 0 for every real x, i.e. iff f_sshape
    is defined on the whole line. Evaluated through logs (see
    :func:`log_feasibility_load`) so p^2/(2q) in the thousands cannot
    overflow the intermediate product; -inf is returned when the
    subtracted term genuinely exceeds the float range.
    """
    log_term = math.log(params.ell) + log_feasibility_load(params.p, params.q)
    if log_term > _LOG_DBL_MAX:
        return -math.inf
    return 1.0 - math.exp(log_term)


def linear_alpha_from_ps(p: float, s: float) -> tuple[float, float]:
    """Positive root alpha of p*alpha + alpha^2 = s, plus beta = p + 2*alpha.

    This is the constant-g solution of the Bernoulli equation with
    constant coefficients. The root is computed in whichever of the two
    algebraically equivalent forms avoids cancellation for the sign of p.
    """
    if not s > 0.0:
        raise ParameterError(f"s must be positive for a positive root, got {s!r}")
    disc = math.sqrt(p * p + 4.0 * s)
    if p >= 0.0:
        alpha = 2.0 * s / (p + disc)
    else:
        alpha = 0.5 * (disc - p)
    return alpha, p + 2.0 * alpha


def structural_to_pq(sp: StructuralParams) -> PQDecomposition:
    """Map structural parameters to the kernel coefficients (p, q).

    p = (2/eta^2) (c m + rho eta sigma_s - delta), decomposed into a
    mean-reversion, a covariance and a liquidity-premium share;
    q = (2/eta^2) (tau - c), which requires tau > c.
    """
    if not sp.tau > sp.c:
        raise ParameterError(
            f"q > 0 requires tau > c, got tau={sp.tau!r}, c={sp.c!r}"
        )
    inv = 2.0 / (sp.eta * sp.eta)
    p = inv * (sp.c * sp.m + sp.rho * sp.eta * sp.sigma_s - sp.delta)
    q = inv * (sp.tau - sp.c)
    return PQDecomposition(
        p=p,
        q=q,
        mean_reversion=inv * sp.c * sp.m,
        covariance=2.0 * sp.rho * sp.sigma_s / sp.eta,
        liquidity=-inv * sp.delta,
    )


def sigma_p_squared(x: float, g_at_x: float, sp: StructuralParams) -> float:
    """Instantaneous variance of dP/P: sigma_s^2 + eta^2 g^2 + 2 rho eta sigma_s g.

    The flow level x enters only through g (passed precomputed); it is kept in
    the signature so the call shape mirrors :func:`mu_p`.
    """
    return (
        sp.sigma_s * sp.sigma_s
        + (sp.eta * g_at_x) * (sp.eta * g_at_x)
        + 2.0 * sp.rho * sp.eta * sp.sigma_s * g_at_x
    )


def mu_p(x: float, sp: StructuralParams, g_at_x: float, gprime_at_x: float) -> float:
    """Drift of dP/P implied by Ito on P = S exp(f(X)):

    mu_s + (c (m - x) + rho eta sigma_s) g + (eta^2/2) (g' + g^2).
    """
    return (
        sp.mu_s
        + (sp.c * (sp.m - x) + sp.rho * sp.eta * sp.sigma_s) * g_at_x
        + 0.5 * sp.eta * sp.eta * (gprime_at_x + g_at_x * g_at_x)
    )
