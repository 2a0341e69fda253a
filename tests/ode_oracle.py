"""An independent Runge-Kutta oracle for the Bernoulli equation that g solves.

The S-shape gradient g = f' solves ``0 = -s(x) + g' + p(x) g + g^2`` with
p(x) = p + q x, s = 0 and g(0) = ell; a linear curve solves it with constant
p and s.  ``solve_ode_numeric`` integrates the general (p(x), s(x)) case by
classic fourth-order Runge-Kutta, and the tests check the closed forms of
``liqimpact.impact`` against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from liqimpact.impact import SShapeParams, linear_alpha_from_ps


@dataclass(frozen=True)
class OdeSpec:
    """Coefficients of 0 = -s(x) + g' + p(x) g + g^2 with g(0) = ell."""

    p_fn: Callable[[float], float]
    s_fn: Callable[[float], float]
    ell: float

    @classmethod
    def from_sshape(cls, params: SShapeParams) -> "OdeSpec":
        p, q = params.p, params.q
        return cls(p_fn=lambda x: p + q * x, s_fn=lambda x: 0.0, ell=params.ell)

    @classmethod
    def from_linear(cls, p: float, s: float, ell: float | None = None) -> "OdeSpec":
        if ell is None:
            ell, _ = linear_alpha_from_ps(p, s)
        return cls(p_fn=lambda x: p, s_fn=lambda x: s, ell=ell)


@dataclass(frozen=True)
class OdeSolution:
    """Grid solution: g on the grid and f(x) = int_0^x g accumulated alongside."""

    x: np.ndarray
    g: np.ndarray
    f: np.ndarray


class OdeBlowupError(RuntimeError):
    """Integration left the finite range; carries the last good abscissa."""

    def __init__(self, message: str, x: float):
        super().__init__(message)
        self.x = x


def bernoulli_residual(x: float, spec: OdeSpec, g: float, gprime: float) -> float:
    """Residual of the defining equation: -s(x) + g' + p(x) g + g^2."""
    return -spec.s_fn(x) + gprime + spec.p_fn(x) * g + g * g


def solve_ode_numeric(
    spec: OdeSpec,
    x_range: tuple[float, float],
    step: float,
    blow_limit: float = 1e10,
) -> OdeSolution:
    """Classic fourth-order Runge-Kutta for g' = s(x) - p(x) g - g^2.

    Integrates outward from x = 0 in both directions with g(0) = ell and
    accumulates f(x) = int_0^x g by the trapezoid rule on the same grid.
    The step is shrunk slightly on each side so the range endpoints land
    on grid points. Raises OdeBlowupError if g leaves [-blow_limit,
    blow_limit] or turns non-finite.
    """
    xmin, xmax = x_range
    if not (xmin <= 0.0 <= xmax):
        raise ValueError(f"x_range must bracket 0, got {x_range!r}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")

    def one_side(limit: float) -> tuple[list[float], list[float], list[float]]:
        if limit == 0.0:
            return [], [], []
        n = max(1, int(math.ceil(abs(limit) / step)))
        h = limit / n
        rhs = lambda xx, gg: spec.s_fn(xx) - spec.p_fn(xx) * gg - gg * gg
        xs: list[float] = []
        gs: list[float] = []
        fs: list[float] = []
        g = spec.ell
        f = 0.0
        x = 0.0
        for k in range(n):
            half = x + 0.5 * h
            k1 = rhs(x, g)
            k2 = rhs(half, g + 0.5 * h * k1)
            k3 = rhs(half, g + 0.5 * h * k2)
            k4 = rhs(x + h, g + h * k3)
            g_new = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x_new = (k + 1) * h
            if not math.isfinite(g_new) or abs(g_new) > blow_limit:
                raise OdeBlowupError(
                    f"gradient blew up between x={x:g} and x={x_new:g}", x=x
                )
            f += 0.5 * (x_new - x) * (g + g_new)
            x, g = x_new, g_new
            xs.append(x)
            gs.append(g)
            fs.append(f)
        return xs, gs, fs

    xr, gr, fr = one_side(xmax)
    xl, gl, fl = one_side(xmin)
    x_all = np.array(xl[::-1] + [0.0] + xr)
    g_all = np.array(gl[::-1] + [spec.ell] + gr)
    f_all = np.array(fl[::-1] + [0.0] + fr)
    return OdeSolution(x=x_all, g=g_all, f=f_all)
