"""Cross-model and cross-contract statistics on daily fit output.

Daily re-fits give one metric value per trading day and model; models are
compared by paired t tests on the day-matched differences, parameter estimates
are summarized by percentile descriptives, and the fitted inflection points
are reported next to bar-open quote-size descriptives as a depth check.
Days are always matched by date (inner join), so mismatched trading calendars
simply drop the unshared days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._common import write_table
from .impact import SShapeParams, inflection_point
from .ingest import BarTable

__all__ = [
    "PERCENTILE_LEVELS",
    "DailyMetricSeries",
    "PairedTResult",
    "Descriptives",
    "DepthReport",
    "paired_t_test",
    "descriptives",
    "depth_report",
    "write_ttest_csv",
    "write_descriptives_csv",
    "write_depth_csv",
]

PERCENTILE_LEVELS = (1, 5, 10, 50, 90, 95, 99)

METRICS = ("adj_r2", "rss", "bic")


@dataclass(frozen=True)
class DailyMetricSeries:
    """Per-day goodness metrics for one contract/model pair.

    Only converged fits belong in the series; ``n_excluded`` carries the count
    of days dropped on the way in.
    """

    contract: str
    model: str
    dates: tuple[str, ...]
    adj_r2: np.ndarray
    rss: np.ndarray
    bic: np.ndarray
    n_excluded: int = 0

    def __post_init__(self) -> None:
        for name in METRICS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(self.dates),):
                raise ValueError(f"{name} length does not match dates")
            object.__setattr__(self, name, arr)
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")

    def metric(self, name: str) -> np.ndarray:
        if name not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {name!r}")
        return getattr(self, name)

    @classmethod
    def from_fit_rows(cls, contract: str, model: str, rows: list[dict]) -> "DailyMetricSeries":
        """Build from read_daily_fits_csv rows, keeping converged rows of the model."""
        mine = [r for r in rows if r["model"] == model]
        kept = sorted((r for r in mine if r["converged"]), key=lambda r: r["date"])
        return cls(
            contract=contract,
            model=model,
            dates=tuple(r["date"] for r in kept),
            adj_r2=np.array([r["adj_r2"] for r in kept], dtype=float),
            rss=np.array([r["rss"] for r in kept], dtype=float),
            bic=np.array([r["bic"] for r in kept], dtype=float),
            n_excluded=len(mine) - len(kept),
        )


@dataclass(frozen=True)
class PairedTResult:
    metric: str
    mean_difference: float
    t_statistic: float | None
    n: int
    degenerate: bool


def paired_t_test(series_a: DailyMetricSeries, series_b: DailyMetricSeries, metric: str) -> PairedTResult:
    """Paired t test of metric differences a - b over the dates both series share.

    t = mean(d) / (sd(d)/sqrt(n)) with unbiased sd.  Zero-variance differences
    (identical series included) produce a degenerate result with t None.
    """
    av = dict(zip(series_a.dates, series_a.metric(metric)))
    bv = dict(zip(series_b.dates, series_b.metric(metric)))
    shared = [d for d in series_a.dates if d in bv]
    if len(shared) < 2:
        raise ValueError(f"need at least 2 shared dates, got {len(shared)}")
    d = np.array([av[k] - bv[k] for k in shared])
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return PairedTResult(metric, mean, None, len(shared), True)
    t = mean / (sd / math.sqrt(len(shared)))
    return PairedTResult(metric, mean, t, len(shared), False)


@dataclass(frozen=True)
class Descriptives:
    n: int
    mean: float
    sd: float
    percentiles: dict[int, float]


def descriptives(values) -> Descriptives:
    """Mean, unbiased sd, and linear-interpolation percentiles {1,5,10,50,90,95,99}."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("descriptives needs at least one value")
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    pcts = np.percentile(arr, PERCENTILE_LEVELS, method="linear")
    return Descriptives(
        n=int(arr.size),
        mean=float(arr.mean()),
        sd=sd,
        percentiles={lvl: float(v) for lvl, v in zip(PERCENTILE_LEVELS, pcts)},
    )


@dataclass(frozen=True)
class DepthReport:
    """Daily fitted inflection points next to bar-open quote-size descriptives."""

    contract: str
    dates: tuple[str, ...]
    daily_inflection: dict[str, float]
    inflection: Descriptives
    bid_size: Descriptives | None
    ask_size: Descriptives | None
    n_included: int
    n_excluded: int


def depth_report(
    curves: dict[str, SShapeParams | None],
    bars: BarTable | None = None,
    contract: str = "",
) -> DepthReport:
    """Summarize market depth: -p/q per fitted day, and the open bid/ask sizes
    observed on those same days when bars are supplied.

    ``curves`` maps each date to its fitted curve, None where the fit did not
    converge.  Sizes are taken in date order, then in table order within a
    day; missing (NaN) sizes are left out.
    """
    daily = {d: inflection_point(c) for d, c in sorted(curves.items()) if c is not None}
    if not daily:
        raise ValueError("no converged fits to report depth on")
    dates = tuple(daily)
    bid_desc = ask_desc = None
    if bars is not None:
        position = {d: i for i, d in enumerate(dates)}
        day_pos = np.array([position.get(d, -1) for d in bars.days], dtype=np.int64)[bars.day]
        rows = np.flatnonzero(day_pos >= 0)
        rows = rows[np.argsort(day_pos[rows], kind="stable")]
        bids, asks = bars.open_bid_size[rows], bars.open_ask_size[rows]
        bids, asks = bids[~np.isnan(bids)], asks[~np.isnan(asks)]
        if bids.size:
            bid_desc = descriptives(bids)
        if asks.size:
            ask_desc = descriptives(asks)
    return DepthReport(
        contract=contract,
        dates=dates,
        daily_inflection=daily,
        inflection=descriptives(list(daily.values())),
        bid_size=bid_desc,
        ask_size=ask_desc,
        n_included=len(daily),
        n_excluded=len(curves) - len(daily),
    )


# ---------------------------------------------------------------------------
# CSV emission (one row per contract and statistic, columns as in the reports)

TTEST_HEADER = ["contract", "metric", "model_a", "model_b", "mean_difference", "t_statistic", "n", "degenerate"]
DESCRIPTIVES_HEADER = ["contract", "stat", "n", "mean", "sd"] + [f"p{l}" for l in PERCENTILE_LEVELS]
DEPTH_HEADER = ["contract", "series", "days_included", "days_excluded", "n", "mean", "sd"] + [
    f"p{l}" for l in PERCENTILE_LEVELS
]


def write_ttest_csv(rows: list[tuple[str, str, str, PairedTResult]], dest: str | Path) -> None:
    """rows: (contract, model_a, model_b, result)."""
    write_table(dest, TTEST_HEADER, (
        (contract, res.metric, model_a, model_b, res.mean_difference, res.t_statistic, res.n,
         "1" if res.degenerate else "0")
        for contract, model_a, model_b, res in rows
    ))


def _desc_cells(desc: Descriptives) -> list:
    return [desc.n, desc.mean, desc.sd] + [desc.percentiles[l] for l in PERCENTILE_LEVELS]


def write_descriptives_csv(rows: list[tuple[str, str, Descriptives]], dest: str | Path) -> None:
    """rows: (contract, statistic label, descriptives)."""
    write_table(dest, DESCRIPTIVES_HEADER, (
        [contract, label] + _desc_cells(desc)
        for contract, label, desc in rows
    ))


def write_depth_csv(reports: list[DepthReport], dest: str | Path) -> None:
    write_table(dest, DEPTH_HEADER, (
        [rep.contract, label, rep.n_included, rep.n_excluded] + _desc_cells(desc)
        for rep in reports
        for label, desc in (("inflection", rep.inflection), ("bid_size", rep.bid_size), ("ask_size", rep.ask_size))
        if desc is not None
    ))
