"""Reference implementation of a long simulated path, as whole-path arrays.

``simulate`` draws every increment of the path at once, runs the flow filter
over all of it, accumulates the log-steps of S in one pass and then takes
exp(s), f(x) and p over the whole path, raising the same ``SimulationError``
as the library for the first non-finite sample.  The library fills the path
one block of steps at a time; the tests require its x, s and p to be
byte-identical to these.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from liqimpact.sde import (
    SimConfig,
    SimulationError,
    _flow_coefficients,
    _impact_f,
    _s_drift,
    correlated_increments,
)


def simulate(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, s and p of ``config``'s path (n_steps > 1, seed set), or SimulationError."""
    sp = config.structural
    dt = config.dt
    rng = np.random.Generator(np.random.PCG64(config.seed))
    x = np.empty(config.n_steps + 1)
    s = np.empty(config.n_steps + 1)
    x[0] = config.x0
    s[0] = 0.0
    dz, dw = correlated_increments(sp.rho, dt, rng, size=config.n_steps)
    coef, const = _flow_coefficients(config)
    # x[k+1] = shocks[k] + coef * x[k] is the filter lfilter([1], [1, -coef]);
    # its initial state coef * x0 is folded into the first shock.
    shocks = const + sp.eta * dw
    shocks[0] += coef * config.x0
    x[1:] = lfilter([1.0], [1.0, -coef], shocks)
    mu = _s_drift(config, x[:-1])
    np.add((mu - 0.5 * sp.sigma_s ** 2) * dt, sp.sigma_s * dz, out=s[1:])
    np.add.accumulate(s, out=s)
    s = np.exp(s) * config.s0
    p = np.exp(_impact_f(config.impact, x)) * s
    for name, arr in (("x", x), ("s", s), ("p", p)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            k = int(bad[0])
            raise SimulationError(f"non-finite {name} at step {k}", step=k)
    return x, s, p
