"""Tests for cross-model comparison statistics and their CSV reports."""

import csv
import math

import numpy as np
import pytest

from bars_oracle import bar_table
from liqimpact import compare
from liqimpact.compare import (
    DEPTH_HEADER,
    DESCRIPTIVES_HEADER,
    PERCENTILE_LEVELS,
    TTEST_HEADER,
    DailyMetricSeries,
    depth_report,
    descriptives,
    paired_t_test,
    write_depth_csv,
    write_descriptives_csv,
    write_ttest_csv,
)
from liqimpact.impact import SShapeParams, inflection_point
from liqimpact.ingest import MinuteBar


def make_series(dates, values, contract="ES", model="sshape"):
    """One series whose three metrics share the same values array."""
    v = np.asarray(values, dtype=float)
    return DailyMetricSeries(contract=contract, model=model, dates=tuple(dates),
                             adj_r2=v, rss=v.copy(), bic=v.copy())


def bar(day, idx, bid, ask):
    return MinuteBar(day=day, bar_index=idx, order_flow=0.0, last_price=100.0,
                     log_return=None, open_bid_size=bid, open_ask_size=ask)


# ---------------------------------------------------------------------------
# Paired t test


def test_paired_t_matches_brute_force():
    rng = np.random.default_rng(20260822)
    pool = [f"2024-01-{i:02d}" for i in range(1, 21)]
    done = 0
    while done < 20:
        ia = np.sort(rng.choice(20, size=int(rng.integers(6, 16)), replace=False))
        ib = np.sort(rng.choice(20, size=int(rng.integers(6, 16)), replace=False))
        shared = [pool[i] for i in ia if i in set(ib)]
        if len(shared) < 2:
            continue
        va = rng.normal(size=ia.size)
        vb = rng.normal(size=ib.size)
        a = make_series([pool[i] for i in ia], va)
        b = make_series([pool[i] for i in ib], vb)
        res = paired_t_test(a, b, "rss")

        # Brute force in plain Python over the date-matched differences.
        av = dict(zip(a.dates, va))
        bv = dict(zip(b.dates, vb))
        d = [av[k] - bv[k] for k in shared]
        n = len(d)
        mean = sum(d) / n
        var = sum((x - mean) ** 2 for x in d) / (n - 1)
        t = mean / math.sqrt(var / n)

        assert res.n == n
        assert not res.degenerate
        assert res.mean_difference == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert res.t_statistic == pytest.approx(t, rel=1e-12, abs=1e-12)
        done += 1


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(3)
    dates = [f"d{i:02d}" for i in range(12)]
    a = make_series(dates, rng.normal(size=12))
    b = make_series(dates, rng.normal(size=12))
    for metric in ("adj_r2", "rss", "bic"):
        ab = paired_t_test(a, b, metric)
        ba = paired_t_test(b, a, metric)
        assert ab.mean_difference == -ba.mean_difference
        assert ab.t_statistic == -ba.t_statistic
        assert ab.n == ba.n


def test_paired_t_degenerate_cases():
    v = np.array([0.2, 0.4, 0.1, 0.9])
    dates = ["d0", "d1", "d2", "d3"]
    a = make_series(dates, v)
    same = paired_t_test(a, make_series(dates, v.copy()), "adj_r2")
    assert same.degenerate
    assert same.t_statistic is None
    assert same.mean_difference == 0.0
    assert same.n == 4

    # Exactly constant nonzero differences are also degenerate.
    shifted = paired_t_test(make_series(dates, [1.0, 2.0, 3.0, 4.0]),
                            make_series(dates, [0.0, 1.0, 2.0, 3.0]), "rss")
    assert shifted.degenerate
    assert shifted.mean_difference == 1.0
    assert shifted.t_statistic is None


def test_paired_t_insufficient_overlap_raises():
    a = make_series(["d1", "d2", "d3"], [1.0, 2.0, 3.0])
    b = make_series(["d3", "d4", "d5"], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="shared"):
        paired_t_test(a, b, "rss")
    c = make_series(["d8", "d9"], [1.0, 2.0])
    with pytest.raises(ValueError, match="shared"):
        paired_t_test(a, c, "rss")
    with pytest.raises(ValueError, match="metric"):
        paired_t_test(a, a, "aic")


def test_paired_t_uses_only_shared_dates():
    # Unshared days carry wild values that must not leak into the statistic.
    a = make_series(["d1", "d2", "d3", "d4"], [1.0, 5.0, 2.0, 1e9])
    b = make_series(["d0", "d2", "d3"], [-1e9, 4.0, 1.0])
    res = paired_t_test(a, b, "bic")
    assert res.n == 2
    assert res.mean_difference == pytest.approx(1.0)
    assert res.t_statistic is None and res.degenerate  # both diffs equal 1


# ---------------------------------------------------------------------------
# Descriptives


def test_descriptives_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        arr = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 3), size=n)
        d = descriptives(arr)
        assert d.n == n
        assert d.mean == pytest.approx(sum(arr) / n, rel=1e-12, abs=1e-12)
        if n == 1:
            assert d.sd == 0.0
            assert all(v == arr[0] for v in d.percentiles.values())
            continue
        mean = sum(arr) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in arr) / (n - 1))
        assert d.sd == pytest.approx(sd, rel=1e-12, abs=1e-12)
        s = np.sort(arr)
        for lvl in PERCENTILE_LEVELS:
            rank = (n - 1) * lvl / 100.0
            lo = int(math.floor(rank))
            frac = rank - lo
            want = s[lo] if lo == n - 1 else s[lo] + frac * (s[lo + 1] - s[lo])
            assert d.percentiles[lvl] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_descriptives_percentiles_monotone_and_bounded():
    assert PERCENTILE_LEVELS == (1, 5, 10, 50, 90, 95, 99)
    rng = np.random.default_rng(4)
    for _ in range(25):
        arr = rng.standard_cauchy(size=int(rng.integers(2, 200)))
        d = descriptives(arr)
        vals = [d.percentiles[lvl] for lvl in PERCENTILE_LEVELS]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert arr.min() <= vals[0] and vals[-1] <= arr.max()


def test_descriptives_empty_raises():
    with pytest.raises(ValueError, match="at least one"):
        descriptives([])


# ---------------------------------------------------------------------------
# Series construction from fit rows


def test_from_fit_rows_filters_sorts_and_counts():
    def row(date, model, converged, val):
        return {"date": date, "model": model, "converged": converged,
                "adj_r2": val, "rss": val * 2, "bic": val * 3}

    rows = [
        row("2024-01-03", "sshape", True, 0.3),
        row("2024-01-01", "sshape", True, 0.1),
        row("2024-01-02", "sshape", False, 9.9),   # excluded, counted
        row("2024-01-01", "linear", True, 7.7),    # other model, ignored
        row("2024-01-04", "sshape", True, 0.4),
    ]
    s = DailyMetricSeries.from_fit_rows("CL", "sshape", rows)
    assert s.contract == "CL" and s.model == "sshape"
    assert s.dates == ("2024-01-01", "2024-01-03", "2024-01-04")
    assert s.adj_r2.tolist() == [0.1, 0.3, 0.4]
    assert s.rss.tolist() == [0.2, 0.6, 0.8]
    assert s.bic.tolist() == pytest.approx([0.3, 0.9, 1.2])
    assert s.n_excluded == 1


def test_series_validation():
    with pytest.raises(ValueError, match="length"):
        DailyMetricSeries(contract="c", model="m", dates=("d1", "d2"),
                          adj_r2=np.zeros(3), rss=np.zeros(2), bic=np.zeros(2))
    with pytest.raises(ValueError, match="strictly increasing"):
        make_series(["d2", "d1"], [1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        make_series(["d1", "d1"], [1.0, 2.0])
    s = make_series(["d1", "d2"], [1.0, 2.0])
    with pytest.raises(ValueError, match="metric"):
        s.metric("rmse")


# ---------------------------------------------------------------------------
# Depth report


def test_depth_report_inflections_match_curve_module():
    curves = {
        "2024-02-02": SShapeParams(2e-5, -0.002, 1e-4),
        "2024-02-01": SShapeParams(1.3e-5, -0.0034, 8.15e-5),
        "2024-02-03": None,
    }
    rep = depth_report(curves, contract="ES")
    assert rep.contract == "ES"
    assert rep.dates == ("2024-02-01", "2024-02-02")
    assert rep.n_included == 2 and rep.n_excluded == 1
    assert rep.daily_inflection["2024-02-01"] == 41.71779141104294
    for date, curve in curves.items():
        if curve is not None:
            assert rep.daily_inflection[date] == inflection_point(curve)
    assert rep.inflection.n == 2
    assert rep.inflection.mean == pytest.approx(
        float(np.mean(list(rep.daily_inflection.values()))))
    assert rep.bid_size is None and rep.ask_size is None


def test_depth_report_bar_panel_descriptives():
    curve = SShapeParams(1e-5, -0.003, 8e-5)
    bars = bar_table({
        "d1": [bar("d1", 0, 10.0, 20.0), bar("d1", 1, None, 25.0)],
        "d2": [bar("d2", 0, 30.0, None), bar("d2", 1, 14.0, 22.0)],
    })
    rep = depth_report({"d1": curve, "d2": curve}, bars, contract="NK")
    assert rep.bid_size == descriptives([10.0, 30.0, 14.0])
    assert rep.ask_size == descriptives([20.0, 25.0, 22.0])
    assert rep.n_included == 2 and rep.n_excluded == 0


def test_depth_report_rejects_bad_input():
    with pytest.raises(ValueError, match="converged"):
        depth_report({"d1": None})
    with pytest.raises(ValueError, match="converged"):
        depth_report({})


def test_depth_report_ignores_sizes_on_unfitted_days():
    curve = SShapeParams(1e-5, -0.003, 8e-5)
    bars = bar_table([bar("d1", 0, 10.0, 20.0), bar("d2", 0, 1e6, 1e6),
                      bar("d9", 0, 1e6, 1e6), bar("d1", 1, 12.0, 22.0)])
    rep = depth_report({"d1": curve, "d2": None}, bars)
    assert rep.bid_size == descriptives([10.0, 12.0])
    assert rep.ask_size == descriptives([20.0, 22.0])
    assert rep.n_included == 1 and rep.n_excluded == 1


def test_depth_report_sizes_in_date_then_file_order(monkeypatch):
    # The descriptives hide the order of their input, so a spy records it.
    curve = SShapeParams(1e-5, -0.003, 8e-5)
    rows = [bar("d3", 0, 3.0, 30.0), bar("d1", 0, 1.0, 10.0), bar("d3", 1, 4.0, 40.0),
            bar("d2", 0, 2.0, 20.0), bar("d1", 1, 5.0, 50.0)]
    seen = []

    def spy(values):
        seen.append(list(values))
        return descriptives(values)

    monkeypatch.setattr(compare, "descriptives", spy)
    depth_report({"d3": curve, "d1": curve, "d2": curve}, bar_table(rows))
    assert seen[:2] == [[1.0, 5.0, 2.0, 3.0, 4.0], [10.0, 50.0, 20.0, 30.0, 40.0]]


def test_depth_report_drops_empty_and_nan_sizes():
    curve = SShapeParams(1e-5, -0.003, 8e-5)
    bars = bar_table([bar("d1", 0, 10.0, math.nan), bar("d1", 1, math.nan, 25.0),
                      bar("d1", 2, None, 20.0), bar("d1", 3, 14.0, None)])
    rep = depth_report({"d1": curve}, bars)
    assert rep.bid_size == descriptives([10.0, 14.0])
    assert rep.ask_size == descriptives([25.0, 20.0])
    assert math.isfinite(rep.bid_size.mean) and math.isfinite(rep.ask_size.sd)


def test_depth_report_bars_without_sizes_give_no_size_rows(tmp_path):
    curve = SShapeParams(1e-5, -0.003, 8e-5)
    no_sizes = bar_table([bar("d1", 0, None, None), bar("d1", 1, None, None)])
    for bars in (no_sizes, bar_table([])):
        rep = depth_report({"d1": curve}, bars, contract="ES")
        assert rep.bid_size is None and rep.ask_size is None
    dest = tmp_path / "depth.csv"
    write_depth_csv([rep], dest)
    with open(dest, newline="") as fh:
        assert [r["series"] for r in csv.DictReader(fh)] == ["inflection"]


# ---------------------------------------------------------------------------
# CSV writers


def test_ttest_csv_round_trip(tmp_path):
    dates = ["d0", "d1", "d2", "d3", "d4"]
    rng = np.random.default_rng(11)
    a = make_series(dates, rng.normal(size=5))
    b = make_series(dates, rng.normal(size=5))
    live = paired_t_test(a, b, "rss")
    flat = paired_t_test(a, make_series(dates, a.adj_r2), "adj_r2")
    dest = tmp_path / "ttests.csv"
    write_ttest_csv([("ES", "sshape", "linear", live), ("ES", "sshape", "sshape", flat)], dest)

    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == TTEST_HEADER
    assert rows[0]["contract"] == "ES"
    assert rows[0]["metric"] == "rss"
    assert rows[0]["model_a"] == "sshape" and rows[0]["model_b"] == "linear"
    assert float(rows[0]["mean_difference"]) == live.mean_difference
    assert float(rows[0]["t_statistic"]) == live.t_statistic
    assert rows[0]["n"] == "5" and rows[0]["degenerate"] == "0"
    assert rows[1]["t_statistic"] == ""
    assert rows[1]["degenerate"] == "1"


def test_descriptives_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    d1 = descriptives(rng.normal(size=40))
    d2 = descriptives(rng.lognormal(size=17))
    dest = tmp_path / "desc.csv"
    write_descriptives_csv([("ES", "ell", d1), ("CL", "q", d2)], dest)

    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == DESCRIPTIVES_HEADER
    for row, desc, contract, label in ((rows[0], d1, "ES", "ell"), (rows[1], d2, "CL", "q")):
        assert row["contract"] == contract and row["stat"] == label
        assert int(row["n"]) == desc.n
        assert float(row["mean"]) == desc.mean
        assert float(row["sd"]) == desc.sd
        for lvl in PERCENTILE_LEVELS:
            assert float(row[f"p{lvl}"]) == desc.percentiles[lvl]


def test_depth_csv_layout(tmp_path):
    curves = {"d1": SShapeParams(1e-5, -0.003, 8e-5),
              "d2": SShapeParams(2e-5, -0.002, 9e-5),
              "d3": None}
    with_bars = depth_report(curves, bar_table([bar("d1", 0, 12.0, 18.0)]), contract="ES")
    bare = depth_report(curves, contract="CL")
    dest = tmp_path / "depth.csv"
    write_depth_csv([with_bars, bare], dest)

    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == DEPTH_HEADER
    assert [(r["contract"], r["series"]) for r in rows] == [
        ("ES", "inflection"), ("ES", "bid_size"), ("ES", "ask_size"), ("CL", "inflection")]
    assert rows[0]["days_included"] == "2" and rows[0]["days_excluded"] == "1"
    assert float(rows[0]["mean"]) == with_bars.inflection.mean
    assert float(rows[1]["p50"]) == 12.0
    assert int(rows[3]["n"]) == 2
