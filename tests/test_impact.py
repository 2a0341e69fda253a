"""Tests for the closed-form impact curves and their supporting identities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from ode_oracle import OdeBlowupError, OdeSpec, bernoulli_residual, solve_ode_numeric
from liqimpact.impact import (
    LinearParams,
    ParameterError,
    SqrtParams,
    SShapeParams,
    StructuralParams,
    big_phi,
    curve_from_dict,
    curve_to_dict,
    f_linear,
    f_sqrt,
    f_sshape,
    feasibility_margin,
    g_sshape,
    inflection_point,
    linear_alpha_from_ps,
    log_feasibility_load,
    mu_p,
    phi,
    sigma_p_squared,
    structural_to_pq,
)
from liqimpact.impact import _SMALLQ_REL, _ell_phi, _ell_phi_float

NK = SShapeParams(ell=1.3e-5, p=-0.0034, q=8.15e-5)


def random_feasible_params(rng, n, ell_range=(1e-6, 1e-3), q_range=(1e-8, 1e-2)):
    """Draw n S-shape parameter sets with a comfortably positive margin.

    q is log-uniform over q_range, the normalized drift b = p / sqrt(q) is
    uniform on [-3, 3], and ell is log-uniform but capped so the margin
    stays above 0.05 (the cap comes from solving margin = 0.05 for ell).
    """
    out = []
    while len(out) < n:
        q = math.exp(rng.uniform(math.log(q_range[0]), math.log(q_range[1])))
        b = rng.uniform(-3.0, 3.0)
        p = b * math.sqrt(q)
        log_k = 0.5 * math.log(2.0 * math.pi / q) + 0.5 * b * b + math.log(norm.cdf(b))
        ell_cap = math.exp(math.log(0.95) - log_k)
        lo, hi = ell_range
        hi = min(hi, ell_cap)
        if hi <= lo:
            ell = 0.5 * ell_cap
        else:
            ell = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        params = SShapeParams(ell=ell, p=p, q=q)
        assert feasibility_margin(params) > 0.0
        out.append(params)
    return out


def test_phi_matches_direct_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = SShapeParams(ell=1e-5, p=rng.uniform(-0.5, 0.5), q=math.exp(rng.uniform(-9, -1)))
        x = rng.uniform(-20.0, 20.0)
        direct = math.exp(-params.p * x - 0.5 * params.q * x * x)
        assert phi(x, params) == pytest.approx(direct, rel=1e-14)


def test_phi_vectorized_matches_scalar():
    params = SShapeParams(ell=1e-5, p=-0.01, q=1e-4)
    xs = np.linspace(-50, 50, 7)
    vec = phi(xs, params)
    for x, v in zip(xs, vec):
        assert v == phi(float(x), params)


def test_big_phi_matches_quadrature():
    """big_phi is the integral of phi from 0 to x; quadrature is the oracle."""
    rng = np.random.default_rng(23)
    for params in random_feasible_params(rng, 30):
        scale = 1.0 / math.sqrt(params.q)
        for x in (-3.0 * scale, -0.3 * scale, 0.7 * scale, 2.5 * scale):
            val, err = integrate.quad(
                lambda t: math.exp(-params.p * t - 0.5 * params.q * t * t),
                0.0, x, limit=200,
            )
            got = big_phi(x, params)
            assert got == pytest.approx(val, rel=1e-9, abs=1e-12 + 10 * abs(err))


def test_big_phi_zero_and_sign():
    params = SShapeParams(ell=1e-5, p=-0.002, q=5e-5)
    assert big_phi(0.0, params) == 0.0
    assert big_phi(10.0, params) > 0.0
    assert big_phi(-10.0, params) < 0.0


def test_big_phi_extreme_tail_stable():
    """A kernel peak of exp(4500) must not poison values that fit in doubles.

    The naive closed form multiplies sqrt(2 pi / q) exp(p^2 / 2q) by a CDF
    difference; its first factor overflows here even though the integral
    itself only reaches about exp(600) on this range. Quadrature of the
    raw integrand is the oracle.
    """
    q = 1e-3
    p = -3.0  # p^2/(2q) = 4500
    params = SShapeParams(ell=1e-300, p=p, q=q)
    xs = np.linspace(-230.0, 230.0, 93)
    vals = np.array([big_phi(float(x), params) for x in xs])
    assert np.all(np.isfinite(vals))
    # phi > 0 so the integral never decreases; deep in the left tail the
    # increments fall below machine precision and the values go flat.
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(np.diff(vals[xs >= 0.0]) > 0.0)
    for x in (-150.0, 200.0):
        want, err = integrate.quad(
            lambda t: math.exp(-p * t - 0.5 * q * t * t), 0.0, x, limit=400
        )
        assert big_phi(x, params) == pytest.approx(want, rel=1e-8)


def test_f_sshape_small_depth_is_nearly_linear():
    # With p = 0 and q ~ 0 the kernel integral is essentially x, so
    # f = log(1 + ell x). At ell x = 1e-3 the exact value is known to
    # 16 digits and the relative gap to the tangent ell * x is ell*x/2
    # to first order.
    params = SShapeParams(ell=1e-4, p=0.0, q=1e-8)
    x = 10.0
    got = f_sshape(x, params)
    assert got == pytest.approx(0.0009995001665832682, rel=1e-12)
    rel_gap = (params.ell * x - got) / (params.ell * x)
    first_order = 0.5 * params.ell * x
    assert rel_gap == pytest.approx(first_order, rel=1e-2)


def test_f_sshape_zero_at_origin():
    assert f_sshape(0.0, NK) == 0.0


def test_f_linear_and_sqrt():
    lin = LinearParams(alpha=2.5e-6)
    assert f_linear(100.0, lin) == pytest.approx(2.5e-4, rel=1e-15)
    assert f_linear(-40.0, lin) == -f_linear(40.0, lin)
    sq = SqrtParams(alpha=3e-5)
    assert f_sqrt(25.0, sq) == pytest.approx(1.5e-4, rel=1e-15)
    assert f_sqrt(-25.0, sq) == -f_sqrt(25.0, sq)
    assert f_sqrt(0.0, sq) == 0.0


def test_g_sshape_matches_finite_difference():
    rng = np.random.default_rng(37)
    for params in random_feasible_params(rng, 10):
        scale = 1.0 / math.sqrt(params.q)
        for x in (-1.5 * scale, 0.0, 0.8 * scale):
            # Cube-root-of-eps step balances truncation against roundoff.
            h = 6e-6 * max(1.0, abs(x))
            fd = (f_sshape(x + h, params) - f_sshape(x - h, params)) / (2.0 * h)
            assert g_sshape(x, params) == pytest.approx(fd, rel=1e-4, abs=1e-18)


def test_g_solves_defining_equation():
    """g' from finite differences of g must satisfy the Bernoulli residual."""
    rng = np.random.default_rng(41)
    for params in random_feasible_params(rng, 10):
        spec = OdeSpec.from_sshape(params)
        scale = 1.0 / math.sqrt(params.q)
        for x in (-0.9 * scale, 0.4 * scale):
            h = 1e-5 * max(1.0, abs(x))
            gprime = (g_sshape(x + h, params) - g_sshape(x - h, params)) / (2.0 * h)
            res = bernoulli_residual(x, spec, g_sshape(x, params), gprime)
            g0 = abs(g_sshape(x, params))
            assert abs(res) < 1e-4 * max(g0, abs(gprime), 1e-12)


def test_inflection_point_value():
    assert inflection_point(NK) == pytest.approx(41.71779141104294, rel=1e-15)
    assert inflection_point(SShapeParams(1e-5, 0.002, 1e-4)) == -20.0


def test_inflection_is_curvature_flip_of_f():
    # f'' = g' + ... no: curvature of f is f'' = (d/dx) g. The S-shape has
    # f convex left of x* and concave right of it only when s(x) = 0, in
    # which case f'' changes sign where g' + g^2 does; the documented flow
    # depth is the sign change of phi', i.e. x* = -p/q for the kernel.
    params = SShapeParams(ell=1e-5, p=-0.003, q=8e-5)
    xstar = inflection_point(params)
    h = 2.0

    def second(x):
        d = 1e-3
        return (f_sshape(x + d, params) - 2.0 * f_sshape(x, params) + f_sshape(x - d, params)) / (d * d)

    assert second(xstar - h) > 0.0
    assert second(xstar + h) < 0.0


def test_feasibility_margin_matches_naive_formula():
    """Direct evaluation agrees in the regime where it cannot overflow."""
    rng = np.random.default_rng(53)
    for _ in range(50):
        q = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
        b = rng.uniform(-2.5, 2.5)
        p = b * math.sqrt(q)
        ell = math.exp(rng.uniform(math.log(1e-8), math.log(1e-4)))
        params = SShapeParams(ell=ell, p=p, q=q)
        naive = 1.0 - ell * math.sqrt(2.0 * math.pi / q) * math.exp(0.5 * b * b) * norm.cdf(b)
        assert feasibility_margin(params) == pytest.approx(naive, rel=1e-12, abs=1e-12)


def test_feasibility_margin_no_overflow_far_tail():
    for load in (1e2, 1e3, 1e4):
        q = 1e-4
        p = -math.sqrt(2.0 * q * load)
        m = feasibility_margin(SShapeParams(ell=1e-6, p=p, q=q))
        assert math.isfinite(m) or m == -math.inf
        # With p this negative N(p/sqrt(q)) collapses faster than exp(load)
        # grows, so the margin should still be close to one.
        assert m == pytest.approx(1.0, abs=1e-3)
    # Positive p with the same load does overflow the subtracted term.
    q = 1e-4
    p = math.sqrt(2.0 * q * 1e4)
    assert feasibility_margin(SShapeParams(ell=1e-6, p=p, q=q)) == -math.inf


def test_feasibility_margin_far_negative_b():
    # b = p / sqrt(q) far below -1e8, where K tends to 1 / |p| and the
    # margin to 1 - ell / |p|; q = 1e-320 is subnormal.
    for q in (1e-300, 1e-320):
        assert feasibility_margin(SShapeParams(ell=1e-5, p=-0.01, q=q)) == pytest.approx(0.999, rel=1e-12)
    # b itself overflows to -inf.
    assert feasibility_margin(SShapeParams(ell=1e-5, p=-1e200, q=1e-300)) == 1.0


def test_log_feasibility_load_matches_sum_form():
    # Where b^2/2 + log N(b) does not cancel, both forms agree.
    for q in (1e-8, 8.15e-5, 1.0, 1e4):
        for b in np.linspace(-30.0, 30.0, 241):
            old = 0.5 * math.log(2.0 * math.pi / q) + 0.5 * b * b + float(log_ndtr(b))
            new = log_feasibility_load(b * math.sqrt(q), q)
            assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (q, b)


def test_curve_dict_round_trip():
    for curve in (NK, LinearParams(alpha=2e-5), SqrtParams(alpha=1e-4)):
        block = curve_to_dict(curve)
        assert block["family"] == curve.family
        assert curve_from_dict(block) == curve
    assert curve_from_dict({"ell": NK.ell, "p": NK.p, "q": NK.q}) == NK  # sshape by default
    with pytest.raises(ParameterError, match="family"):
        curve_from_dict({"family": "cubic", "alpha": 1.0})


def test_feasibility_margin_boundary():
    q = 8.15e-5
    p = -0.0034
    b = p / math.sqrt(q)
    k = math.sqrt(2.0 * math.pi / q) * math.exp(0.5 * b * b) * norm.cdf(b)
    for eps in (0.5, 0.05):
        params = SShapeParams(ell=(1.0 - eps) / k, p=p, q=q)
        assert feasibility_margin(params) == pytest.approx(eps, rel=1e-10)
    assert feasibility_margin(SShapeParams(ell=1.5 / k, p=p, q=q)) < 0.0


def test_infeasible_curve_is_partially_undefined():
    # Negative margin means 1 + ell * Phi crosses zero somewhere; asking
    # for f there must raise rather than return a wrong number.
    q = 8.15e-5
    p = -0.0034
    b = p / math.sqrt(q)
    k = math.sqrt(2.0 * math.pi / q) * math.exp(0.5 * b * b) * norm.cdf(b)
    params = SShapeParams(ell=2.0 / k, p=p, q=q)
    assert feasibility_margin(params) < 0.0
    with pytest.raises(ParameterError, match="undefined"):
        f_sshape(np.linspace(-3000.0, 0.0, 2001), params)
    # Near the origin the curve is still fine.
    assert math.isfinite(f_sshape(1.0, params))


# ---------------------------------------------------------------------------
# array evaluation routes each point the way a scalar call would

@st.composite
def curve_and_points(draw, feasible: bool):
    """S-shape parameters and x points that mix every branch of big_phi.

    b = p / sqrt(q) is drawn in the direct band, in the positive tail, or in
    the negative tail, where b below about -37.7 makes exp(b^2 / 2), and
    with it ell * Phi near the kernel peak at -p/q, overflow. ell is set
    from the log of the feasibility term so the margin is positive (or,
    with ``feasible`` False, negative). The points mix ordinary values on
    the scale 1/sqrt(q), small-q points (|x| < _SMALLQ_REL |p| / q, 0
    included), points just beyond that bound, points near the peak, and
    far tails.
    """
    q = 10.0 ** draw(st.floats(-8.0, 2.0))
    b = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(6.0, 20.0), st.floats(-45.0, -6.0)))
    p = b * math.sqrt(q)
    log_k = 0.5 * math.log(2.0 * math.pi / q) + 0.5 * b * b + float(log_ndtr(b))
    if feasible:
        log_ell = math.log(0.95) - log_k - draw(st.floats(0.0, 8.0))
    else:
        log_ell = -log_k + draw(st.floats(0.2, 3.0))
    params = SShapeParams(ell=math.exp(log_ell), p=p, q=q)
    small = _SMALLQ_REL * abs(p) / q  # below this |x|, Phi takes the small-q limit
    scale = 1.0 / math.sqrt(q)
    point = st.one_of(
        st.floats(-8.0, 8.0).map(lambda z: z * scale),
        st.floats(-1.0, 1.0).map(lambda u: u * small),
        st.floats(1.5, 2.5).flatmap(lambda u: st.sampled_from([u * small, -u * small])),
        st.floats(-3.0, 3.0).map(lambda z: (z - b) * scale),
        st.sampled_from([0.0, 60.0 * scale, -60.0 * scale, 1e3 * scale, -1e3 * scale]),
    )
    xs = np.array(draw(st.lists(point, min_size=1, max_size=12)))
    return params, xs


def _pointwise(fn, xs, params):
    """fn at each point on its own: the value, or the ParameterError message."""
    out = []
    for v in xs:
        try:
            out.append(fn(float(v), params))
        except ParameterError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=300, deadline=None)
@given(curve_and_points(feasible=True))
def test_array_evaluation_matches_pointwise_bitwise(case):
    params, xs = case
    assert feasibility_margin(params) > 0.0
    for fn in (f_sshape, g_sshape):
        whole = fn(xs, params)
        each = np.array(_pointwise(fn, xs, params), dtype=float)
        assert whole.tobytes() == each.tobytes(), (fn.__name__, params, xs)
    # Where ell * Phi and ell * phi are finite, f and g are their closed forms
    # on big_phi and phi, which route each point on their own.
    with np.errstate(over="ignore"):
        t = params.ell * big_phi(xs, params)
        num = params.ell * phi(xs, params)
        # big_phi skips its routing when no point is in the small-q limit; same bits either way.
        each_phi = np.array([big_phi(float(v), params) for v in xs])
        assert big_phi(xs, params).tobytes() == each_phi.tobytes(), (params, xs)
    ok = np.isfinite(t) & np.isfinite(num)
    assert f_sshape(xs, params)[ok].tobytes() == np.log1p(t[ok]).tobytes(), (params, xs)
    assert g_sshape(xs, params)[ok].tobytes() == (num[ok] / (1.0 + t[ok])).tobytes(), (params, xs)


@settings(max_examples=200, deadline=None)
@given(curve_and_points(feasible=False))
def test_infeasible_array_raises_at_first_undefined_point(case):
    params, xs = case
    assert feasibility_margin(params) < 0.0
    for fn in (f_sshape, g_sshape):
        each = _pointwise(fn, xs, params)
        errors = [e for e in each if isinstance(e, str)]
        if errors:
            with pytest.raises(ParameterError) as exc_info:
                fn(xs, params)
            assert str(exc_info.value) == errors[0]
        else:
            assert fn(xs, params).tobytes() == np.array(each, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(curve_and_points(feasible=True))
@example((NK, np.array([0.0, -0.0, 40.0, -250.0, 1e4])))  # the direct form's band
@example((SShapeParams(ell=1e-3, p=-0.5, q=1e-3), np.array([0.0, 3.0, -300.0])))  # off it: no direct form
@example((NK, np.array([1e-12, -3e-11])))  # the small-q band, |x| < 4.2e-11
@example((SShapeParams(ell=1.7e308, p=0.0, q=1.0), np.array([1.0, 3.0])))  # ell * Phi(3) overflows: log space
def test_float_evaluation_is_bitwise_the_one_point_array(case):
    """A Python float takes f's and g's float route where the direct form
    serves, and the array route elsewhere; either way the value is [0] of the
    one-point array evaluation, bit for bit, and a Python float."""
    params, xs = case
    for v in xs.tolist():
        for fn in (f_sshape, g_sshape):
            got = fn(v, params)
            assert type(got) is float
            assert np.array([got]).tobytes() == fn(np.array([v]), params).tobytes(), (fn.__name__, params, v)


def test_float_route_serves_the_direct_form_only():
    # Which points the float route takes: the examples above each reach their branch.
    assert _ell_phi_float(40.0, NK) is not None and _ell_phi_float(0.0, NK) is not None
    assert _ell_phi_float(1e-12, NK) is None  # small-q limit
    assert _ell_phi_float(3.0, SShapeParams(ell=1e-3, p=-0.5, q=1e-3)) is None  # |b| > 6
    assert _ell_phi_float(3.0, SShapeParams(ell=1.7e308, p=0.0, q=1.0)) is None  # past the direct form's cap
    assert _ell_phi_float(math.nan, NK) is None


def test_curve_stays_finite_where_ell_phi_overflows_in_the_direct_band():
    # b = 0 is in the direct band, yet ell * Phi(3) exceeds the float range;
    # f and g must still come out finite, from log space.
    params = SShapeParams(ell=1.7e308, p=0.0, q=1.0)
    x = np.array([1.0, 3.0])
    with np.errstate(over="ignore"):
        assert not np.isfinite(params.ell * big_phi(3.0, params))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = f_sshape(x, params)
        g = g_sshape(x, params)
    np.testing.assert_allclose(f, math.log(params.ell) + np.log(big_phi(x, params)), rtol=1e-12)
    np.testing.assert_allclose(g, phi(x, params) / big_phi(x, params), rtol=1e-12)


def test_direct_path_takes_zero_and_integer_flows():
    # x = 0 is never a small-q point, so bar flows (integers, zero among them) stay on the direct path.
    for xs in (np.array([0.0, -2.5, 400.0]), np.arange(-50, 51)):
        t, direct = _ell_phi(np.asarray(xs, dtype=float), NK)
        assert direct
        assert t.tobytes() == (NK.ell * big_phi(xs, NK)).tobytes()


def test_direct_form_is_kept_per_instance_without_changing_its_value():
    # The simulator's one-step calls and a long path's blocks reuse one instance; its
    # cached constants stay out of equality, hashing and the curve's dict, and change no bit.
    params = SShapeParams(NK.ell, NK.p, NK.q)
    xs = np.array([0.0, -2.5, 40.0])
    f, g = f_sshape(xs, params), g_sshape(xs, params)
    assert "_phi_constants" in vars(params) and "_direct_form" in vars(params)
    rq, b, k, ndtr_b, small_q = params._direct_form
    assert params._direct_form is params._phi_constants
    assert (rq, b, small_q) == (math.sqrt(NK.q), NK.p / math.sqrt(NK.q), _SMALLQ_REL * abs(NK.p) / NK.q)
    assert (k, ndtr_b) == (math.sqrt(2.0 * math.pi / NK.q) * math.exp(0.5 * b * b), float(ndtr(b)))
    assert params == NK and hash(params) == hash(NK) and curve_to_dict(params) == curve_to_dict(NK)
    fresh = SShapeParams(NK.ell, NK.p, NK.q)
    assert f.tobytes() == f_sshape(xs, params).tobytes() == f_sshape(xs, fresh).tobytes()
    assert g.tobytes() == g_sshape(xs, params).tobytes() == g_sshape(xs, fresh).tobytes()
    for x in xs.tolist():  # the float route reads the same constants
        assert np.array([f_sshape(x, params), g_sshape(x, params)]).tobytes() == \
            np.array([f_sshape(x, fresh), g_sshape(x, fresh)]).tobytes()
    # A replaced curve starts with its own constants.
    wider = dataclasses.replace(params, q=2.0 * NK.q)
    assert "_phi_constants" not in vars(wider)
    assert wider._phi_constants[0] == math.sqrt(2.0 * NK.q) and wider._phi_constants != params._phi_constants
    same = SShapeParams(NK.ell, NK.p, 2.0 * NK.q)
    assert f_sshape(xs, wider).tobytes() == f_sshape(xs, same).tobytes()
    assert big_phi(xs, wider).tobytes() == big_phi(xs, same).tobytes()
    # Off the band k and N(b) are None; past the cap the constants are kept but the direct form is not.
    tail = SShapeParams(ell=1e-3, p=-0.5, q=1e-3)
    assert tail._phi_constants[2:4] == (None, None) and tail._direct_form is None
    capped = SShapeParams(ell=1.7e308, p=0.0, q=1.0)
    assert capped._phi_constants[2] is not None and capped._direct_form is None


def test_linear_alpha_identity():
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = rng.uniform(-1.5, 1.5)
        s = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        alpha, beta = linear_alpha_from_ps(p, s)
        assert alpha > 0.0
        assert p * alpha + alpha * alpha == pytest.approx(s, rel=1e-14)
        assert beta == pytest.approx(p + 2.0 * alpha, rel=1e-15)


def test_linear_alpha_sign_relation():
    # The two quadratic roots mirror under p -> -p: alpha(-p) = alpha(p) + p.
    alpha_pos, _ = linear_alpha_from_ps(0.8, 2.0)
    alpha_neg, _ = linear_alpha_from_ps(-0.8, 2.0)
    assert alpha_neg == pytest.approx(alpha_pos + 0.8, rel=1e-14)
    with pytest.raises(ParameterError):
        linear_alpha_from_ps(0.5, 0.0)
    with pytest.raises(ParameterError):
        linear_alpha_from_ps(0.5, -1.0)


def test_structural_to_pq_components():
    sp = StructuralParams(mu_s=0.08, sigma_s=0.25, rho=0.4, c=0.2, m=3.0,
                          eta=80.0, delta=0.001, tau=0.5, r=0.05, kappa0=0.0)
    dec = structural_to_pq(sp)
    inv = 2.0 / (sp.eta * sp.eta)
    assert dec.p == pytest.approx(inv * (sp.c * sp.m + sp.rho * sp.eta * sp.sigma_s - sp.delta), rel=1e-15)
    assert dec.q == pytest.approx(inv * (sp.tau - sp.c), rel=1e-15)
    assert dec.q == pytest.approx(9.375e-5, rel=1e-12)
    assert dec.p == pytest.approx(0.0026871875, rel=1e-12)
    assert dec.mean_reversion + dec.covariance + dec.liquidity == pytest.approx(dec.p, rel=1e-12)


def test_structural_to_pq_requires_tau_above_c():
    sp = StructuralParams(mu_s=0.08, sigma_s=0.25, rho=0.4, c=0.2, m=3.0,
                          eta=80.0, delta=0.0, tau=0.2, r=0.05, kappa0=0.0)
    with pytest.raises(ParameterError):
        structural_to_pq(sp)


def test_sigma_p_and_mu_p_formulas():
    sp = StructuralParams(mu_s=0.08, sigma_s=0.25, rho=0.4, c=0.2, m=3.0,
                          eta=80.0, delta=0.0, tau=0.0, r=0.05, kappa0=0.0)
    g = 0.0012
    gp = -3e-5
    x = 7.0
    want_var = sp.sigma_s ** 2 + (sp.eta * g) ** 2 + 2 * sp.rho * sp.eta * sp.sigma_s * g
    assert sigma_p_squared(x, g, sp) == pytest.approx(want_var, rel=1e-15)
    want_mu = sp.mu_s + (sp.c * (sp.m - x) + sp.rho * sp.eta * sp.sigma_s) * g \
        + 0.5 * sp.eta ** 2 * (gp + g * g)
    assert mu_p(x, sp, g, gp) == pytest.approx(want_mu, rel=1e-15)
    # Uncorrelated flow with zero g leaves only the exogenous variance.
    assert sigma_p_squared(0.0, 0.0, sp) == pytest.approx(sp.sigma_s ** 2, rel=1e-15)


def test_ode_constant_coefficient_solution_is_constant():
    # With constant p and s the equation has the constant solution
    # g = alpha from the quadratic; RK4 must stay on it to rounding.
    spec = OdeSpec.from_linear(p=0.3, s=1.2)
    alpha, _ = linear_alpha_from_ps(0.3, 1.2)
    sol = solve_ode_numeric(spec, (-4.0, 4.0), step=1e-2)
    assert np.max(np.abs(sol.g - alpha)) < 1e-12
    assert sol.f[np.argmin(np.abs(sol.x - 2.0))] == pytest.approx(2.0 * alpha, rel=1e-6)


def test_ode_matches_g_sshape():
    params = SShapeParams(ell=1.3e-5, p=-0.0034, q=8.15e-5)
    span = 5.0 / math.sqrt(params.q)
    sol = solve_ode_numeric(OdeSpec.from_sshape(params), (-span, span), step=span / 2000.0)
    want = g_sshape(sol.x, params)
    assert np.max(np.abs(sol.g - want)) < 1e-10
    # f accumulated by the trapezoid rule tracks the closed form too.
    want_f = f_sshape(sol.x, params)
    assert np.max(np.abs(sol.f - want_f)) < 1e-7


def test_ode_blowup_detected_at_known_position():
    # g' = -2 - g^2 with g(0) = 0 is g(x) = -sqrt(2) tan(sqrt(2) x),
    # which leaves every finite bound at x = pi / (2 sqrt(2)).
    spec = OdeSpec(p_fn=lambda x: 0.0, s_fn=lambda x: -2.0, ell=0.0)
    blow_at = math.pi / (2.0 * math.sqrt(2.0))
    with pytest.raises(OdeBlowupError) as exc_info:
        solve_ode_numeric(spec, (0.0, 2.0), step=1e-4)
    assert blow_at - 0.01 < exc_info.value.x <= blow_at


def test_ode_range_validation():
    spec = OdeSpec.from_linear(p=0.0, s=1.0)
    with pytest.raises(ValueError):
        solve_ode_numeric(spec, (1.0, 2.0), step=0.01)
    with pytest.raises(ValueError):
        solve_ode_numeric(spec, (-1.0, 1.0), step=0.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        SShapeParams(ell=0.0, p=0.0, q=1e-4)
    with pytest.raises(ParameterError):
        SShapeParams(ell=1e-5, p=0.0, q=0.0)
    with pytest.raises(ParameterError):
        SShapeParams(ell=-1e-5, p=0.0, q=1e-4)
    with pytest.raises(ParameterError):
        LinearParams(alpha=0.0)
    with pytest.raises(ParameterError):
        SqrtParams(alpha=-1e-6)


def test_structural_validation():
    good = dict(mu_s=0.05, sigma_s=0.2, rho=0.3, c=0.2, m=2.0, eta=50.0,
                delta=0.0, tau=0.0, r=0.03, kappa0=0.0)
    StructuralParams(**good)
    StructuralParams(**{**good, "sigma_s": 0.0})  # deterministic exogenous leg is allowed
    for bad in ({"eta": 0.0}, {"c": 0.0}, {"rho": 1.5}, {"rho": -1.01},
                {"sigma_s": -0.1}, {"kappa0": -0.2}):
        with pytest.raises(ParameterError):
            StructuralParams(**{**good, **bad})
