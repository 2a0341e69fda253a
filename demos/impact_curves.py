"""Shape of the impact curve family.

Walks through the S-shape curve for a liquid futures contract: feasibility,
the inflection point read as market depth, marginal impact, and how the
curve compares to linear and square-root alternatives with the same slope
at the origin.  Finishes by checking that the closed-form gradient solves
its defining Bernoulli equation.
"""

import numpy as np

from liqimpact import (
    LinearParams,
    SqrtParams,
    SShapeParams,
    f_linear,
    f_sqrt,
    f_sshape,
    feasibility_margin,
    g_sshape,
    inflection_point,
)

params = SShapeParams(ell=1.3e-5, p=-0.0034, q=8.15e-5)

print("S-shape impact curve")
print(f"  ell = {params.ell}, p = {params.p}, q = {params.q}")
print(f"  feasibility margin : {feasibility_margin(params):.6f}  (> 0 means the curve")
print("                       is defined for every order flow)")
print(f"  inflection point   : {inflection_point(params):.1f} contracts")
print("  Marginal impact grows up to the inflection and saturates beyond it,")
print("  so the inflection is read as how much flow the market absorbs before")
print("  impact stops steepening.")
print()

# Tabulate the curve in basis points of price. The slope at the origin is
# ell, so the matched linear curve is f = ell * x and the matched sqrt curve
# is pinned to the same value at x = 100.
xs = np.array([-400.0, -200.0, -100.0, -50.0, 0.0, 50.0, 100.0, 200.0, 400.0])
lin = LinearParams(alpha=params.ell)
sqr = SqrtParams(alpha=float(f_sshape(100.0, params)) / 10.0)

print(f"{'flow':>8} {'sshape (bps)':>14} {'linear (bps)':>14} {'sqrt (bps)':>12}")
for x in xs:
    row = (1e4 * float(f_sshape(x, params)),
           1e4 * float(f_linear(x, lin)),
           1e4 * float(f_sqrt(x, sqr)))
    print(f"{x:8.0f} {row[0]:14.3f} {row[1]:14.3f} {row[2]:12.3f}")
print()
print("The S-shape tracks the linear curve for small flow and bends away from")
print("it beyond the inflection; the sqrt curve is steepest at the origin.")
print()

# Curvature check: marginal impact g = f' peaks exactly at the inflection.
xstar = inflection_point(params)
probes = xstar + np.array([-30.0, -10.0, 0.0, 10.0, 30.0])
g_vals = g_sshape(probes, params)
print("marginal impact g(x) around the inflection:")
for x, g in zip(probes, g_vals):
    marker = "  <- peak" if x == xstar else ""
    print(f"  g({x:7.1f}) = {g:.6e}{marker}")
print()

# Cross-check: with s(x) = 0 and p(x) = p + q x, the gradient g = f' solves
# the Bernoulli equation 0 = g' + (p + q x) g + g^2.  Take g' by central
# differences of the closed form and compare the residual with g' itself.
span = 5.0 / np.sqrt(params.q)
x = np.linspace(-span, span, 201)
h = 1e-5 * np.maximum(1.0, np.abs(x))
g = g_sshape(x, params)
gprime = (g_sshape(x + h, params) - g_sshape(x - h, params)) / (2.0 * h)
residual = float(np.max(np.abs(gprime + (params.p + params.q * x) * g + g * g)))
print(f"Bernoulli residual over [{-span:.0f}, {span:.0f}]: sup |g' + (p + q x) g + g^2| = {residual:.2e}"
      f" against sup |g'| = {float(np.max(np.abs(gprime))):.2e}")
