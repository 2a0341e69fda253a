"""Recovery panels whose curve bend shows only in a few rows of very large flow.

Most flows lie near 100 with sd ``sd``; a share ``rare`` of them, drawn at
random, is moved to 100 +- ``big``.  Returns follow the recovery truth
(ell, p, q) = (1e-5, -3e-3, 8e-5) with intercept 1e-6 and noise sd 5e-4, over
100 days x 360 bars (35,900 rows).  Every 64th row holds only a few of the
rare rows, so a screen on those rows can lose the best basin.
"""

import numpy as np

from liqimpact.estimation import RegressionPanel
from liqimpact.impact import SShapeParams, f_sshape


def heavy_tail_panel(seed: int, rare: float, big: float, sd: float) -> RegressionPanel:
    rng = np.random.default_rng(seed)
    x = rng.normal(100, sd, (100, 360))
    mask = rng.random((100, 360)) < rare
    x[mask] = rng.choice([-big, big], mask.sum()) + 100
    fx = f_sshape(x, SShapeParams(1e-5, -3e-3, 8e-5))
    r = 1e-6 + fx[:, 1:] - fx[:, :-1] + 5e-4 * rng.standard_normal((100, 359))
    return RegressionPanel(r.ravel(), x[:, 1:].ravel(), x[:, :-1].ravel())
