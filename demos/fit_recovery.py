"""Parameter recovery on synthetic return panels.

Generates a multi-day panel of bar returns from a known S-shape curve with
mean-reverting order flow, fits all three impact models, and prints the
estimates next to the generating truth.  The S-shape fit should cover the
truth within its reported standard errors and win the BIC comparison.
"""

import numpy as np

from liqimpact import (
    OUParams,
    RegressionPanel,
    SShapeParams,
    estimate_ou,
    fit_ols,
    fit_sshape,
    synth_regression_panel,
)

truth = {"a": 1e-6, "ell": 1e-5, "p": -3e-3, "q": 8e-5}
impact = SShapeParams(truth["ell"], truth["p"], truth["q"])
flow = OUParams(c=0.1, m=5.0, eta=100.0)

panel = synth_regression_panel(a=truth["a"], impact=impact, flow=flow,
                               n_days=40, bars_per_day=360, noise_sd=5e-4,
                               seed=8)
reg = RegressionPanel.from_synthetic(panel)
print(f"panel: {len(panel.days)} days x 360 bars, {reg.n} regression rows, "
      f"noise sd 5e-4, seed 8")
print()

# Start the nonlinear search from a small grid scaled to the flow dispersion.
s = float(np.std(reg.x, ddof=1))
grid = [(-1e-2 / s * k, 1e-2 / s**2 * 10.0**j) for k in (-2, 0, 2) for j in (-1, 0, 1)]
sfit = fit_sshape(reg, grid)

print("S-shape fit (converged: %s, starts tried: %d)" % (sfit.converged, sfit.starts_tried))
print(f"{'param':>6} {'truth':>12} {'estimate':>12} {'std err':>12} {'|z|':>6}")
hats = {"a": sfit.a_hat, **sfit.param_hats}
for name in ("a", "ell", "p", "q"):
    z = abs(hats[name] - truth[name]) / sfit.ses[name]
    print(f"{name:>6} {truth[name]:12.3e} {hats[name]:12.3e} {sfit.ses[name]:12.3e} {z:6.2f}")
print()

lfit = fit_ols(reg, "linear")
qfit = fit_ols(reg, "sqrt")
print("model comparison on the same panel:")
print(f"{'model':>8} {'rss':>12} {'adj R2':>8} {'BIC':>12}")
for name, fit in (("sshape", sfit), ("linear", lfit), ("sqrt", qfit)):
    print(f"{name:>8} {fit.rss:12.4e} {fit.adj_r2:8.4f} {fit.bic:12.1f}")
best = min((("sshape", sfit.bic), ("linear", lfit.bic), ("sqrt", qfit.bic)),
           key=lambda t: t[1])[0]
print(f"lowest BIC: {best}")
print()

# The flow series itself identifies the mean-reversion parameters; segments
# keep the AR(1) pairing from crossing day boundaries.
segments = [panel.bars.order_flow[panel.bars.day == code] for code in range(len(panel.days))]
est = estimate_ou(segments, dt=1.0)
print("flow dynamics recovered from the panel's flow levels:")
print(f"  c   : truth {flow.c:7.3f}  estimate {est.c_hat:7.3f}  se {est.se_c:.3f}")
print(f"  m   : truth {flow.m:7.3f}  estimate {est.m_hat:7.3f}  se {est.se_m:.3f}")
print(f"  eta : truth {flow.eta:7.3f}  estimate {est.eta_diffusion_hat:7.3f}  "
      f"se {est.se_eta_diffusion:.3f}")
