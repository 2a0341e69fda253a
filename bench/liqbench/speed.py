"""Machine-speed probes: two fixed reference kernels timed next to every timed stage.

On a shared host the speed of this process's core changes by up to 1.8x
within seconds as other tenants load it (one-step ``simulate_path`` calls at
about 100 us against 180 us), and a slow spell can last a whole run.  The
benchmark therefore times fixed kernels that call nothing of liqimpact right
before and after each timed stage, and rescales the stage's wall time to the
machine speed at which the kernel takes its ``REF`` time:
``t * REF / mean(before, after)``.  A change to liqimpact moves the stage's
time and not the probe, so it shows in full; a slow spell moves both and
cancels.

Slow spells do not slow all work alike: interpreted code slows the most,
elementwise work on large arrays much less.  So there are two kernels, and
each stage is rescaled by the one doing its kind of work, or by both:

* ``python``: an interpreted loop with dict and float work, for panel
  building and per-call overhead;
* ``arrays``: elementwise passes over a 50,000-element array, for long
  simulated paths and pooled fits on 36,000 bars;
* both, averaged, for the CLI commands, which parse text and fit small
  panels, and for set-up and imports.

The array kernel leaves BLAS out on purpose: with two OpenBLAS threads on two
shared vCPUs a matrix product's time jumps between two levels from run to
run.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np


class Probe(NamedTuple):
    python: float  # seconds one run of the interpreted kernel takes
    arrays: float  # seconds one run of the array kernel takes


# About the kernels' times on a quiet 2-vCPU Xeon guest; they set the scale only.
REF = Probe(python=0.0015, arrays=0.0007)

_ARRAY = np.linspace(0.0, 1.0, 50_000)


def _python_kernel() -> float:
    table: dict[int, float] = {}
    for i in range(10_000):
        k = i & 63
        table[k] = table.get(k, 0.0) + math.sqrt(i + 1.0)
    return sum(table.values())


def _arrays_kernel() -> float:
    acc = 0.0
    for _ in range(2):
        acc += float(np.exp(-_ARRAY).sum()) + float((_ARRAY * _ARRAY).cumsum()[-1])
    return acc


def _median_time(kernel, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[runs // 2]


def probe(runs: int = 3) -> Probe:
    """Seconds each kernel takes now, the median of ``runs`` runs each."""
    return Probe(_median_time(_python_kernel, runs), _median_time(_arrays_kernel, runs))


def no_probe() -> Probe:
    """Stands in for :func:`probe` where a time is not reported: the scale stays 1."""
    return REF


def scale(before: Probe, after: Probe, *kinds: str) -> float:
    """Factor that rescales a stage timed between two probes to reference speed.

    The stage's slowdown is taken as the mean of the named kernels' slowdowns
    against ``REF``, each over the two probes.
    """
    slowdown = sum((getattr(before, k) + getattr(after, k)) / (2.0 * getattr(REF, k)) for k in kinds)
    return len(kinds) / slowdown
