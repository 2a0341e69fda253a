"""Comparing impact models across trading days.

Fits the three impact models day by day on a synthetic panel, then runs the
comparison layer: paired t tests on the day-matched goodness metrics, the
cross-day dispersion of the S-shape parameters, and the depth report built
from the daily inflection points.
"""

import numpy as np

from liqimpact import (
    DailyMetricSeries,
    OUParams,
    RegressionPanel,
    SShapeParams,
    depth_report,
    descriptives,
    fit_ols,
    fit_sshape,
    paired_t_test,
    synth_regression_panel,
)

impact = SShapeParams(ell=1e-5, p=-3e-3, q=8e-5)
flow = OUParams(c=0.1, m=5.0, eta=100.0)
panel = synth_regression_panel(a=1e-6, impact=impact, flow=flow,
                               n_days=12, bars_per_day=360, noise_sd=5e-4,
                               seed=21)

# Fit every model on every day.
daily = {}
for code, day in enumerate(panel.days):
    reg = RegressionPanel.from_bars(panel.bars.take(panel.bars.day == code))
    s = float(np.std(reg.x, ddof=1))
    grid = [(-1e-2 / s * k, 1e-2 / s**2 * 10.0**j) for k in (-2, 0, 2) for j in (-1, 0, 1)]
    daily[day] = {
        "sshape": fit_sshape(reg, grid),
        "linear": fit_ols(reg, "linear"),
        "sqrt": fit_ols(reg, "sqrt"),
    }
days = sorted(daily)
print(f"fitted {len(days)} days x 3 models")
print()


def series(model):
    kept = [(d, daily[d][model]) for d in days if daily[d][model].converged]
    return DailyMetricSeries(
        contract="demo", model=model,
        dates=tuple(d for d, _ in kept),
        adj_r2=np.array([f.adj_r2 for _, f in kept]),
        rss=np.array([f.rss for _, f in kept]),
        bic=np.array([f.bic for _, f in kept]),
        n_excluded=len(days) - len(kept))


by_model = {m: series(m) for m in ("sshape", "linear", "sqrt")}

print("paired t tests on day-matched metric differences (model A - model B):")
print(f"{'pair':>16} {'metric':>8} {'mean diff':>12} {'t':>8}")
for a, b in (("sshape", "linear"), ("sshape", "sqrt"), ("linear", "sqrt")):
    for metric in ("adj_r2", "bic"):
        res = paired_t_test(by_model[a], by_model[b], metric)
        t = "degenerate" if res.degenerate else f"{res.t_statistic:8.2f}"
        print(f"{a + ' vs ' + b:>16} {metric:>8} {res.mean_difference:12.4e} {t:>8}")
print()
print("A positive adj_r2 difference with a large t says the first model fits")
print("better day after day, not just on average.")
print()

ell_hats = [daily[d]["sshape"].param_hats["ell"] for d in days
            if daily[d]["sshape"].converged]
d = descriptives(ell_hats)
print(f"cross-day dispersion of the fitted depth slope ell "
      f"({d.n} days): mean {d.mean:.3e}, sd {d.sd:.3e}")
print(f"  p5 {d.percentiles[5]:.3e}   p50 {d.percentiles[50]:.3e}   "
      f"p95 {d.percentiles[95]:.3e}")
print()

curves = {d: SShapeParams(**daily[d]["sshape"].param_hats) if daily[d]["sshape"].converged else None
          for d in days}
rep = depth_report(curves, contract="demo")
print(f"depth report: {rep.n_included} days included, {rep.n_excluded} excluded")
print(f"  daily inflection mean {rep.inflection.mean:.1f}, "
      f"sd {rep.inflection.sd:.1f} contracts")
print(f"  generating truth    {-impact.p / impact.q:.1f} contracts")
