"""The CSV tables the package writes and reads back: bars, panels and daily fits.

All three go through one dialect (liqimpact._common.write_table/read_table),
so a file read back and written again is the same bytes, and a bad row is a
ParseError that names the file and line.  The one exception: a bar file's
``nan`` price or quote size reads as missing and is written back empty.
"""

import ast
import json
import math
import re
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bars_oracle import bar_table
from liqimpact.estimation import DAILY_FIT_HEADER, FitResult, read_daily_fits_csv, write_daily_fits_csv
from liqimpact.ingest import MinuteBar, ParseError, read_bars_csv, write_bars_csv, write_panel_csv

DAYS = st.dates().map(date.isoformat)
# The cells a bar file holds: a flow is finite, a return empty or finite, and a
# price or quote size empty, finite or nan (missing); test_bar_writers_refuse_non_finite_cells
# and test_read_bars_csv_bad_cell_location cover the others.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOW = st.integers(-10**6, 10**6) | FINITE  # integer flows are written as floats
RETURN = st.none() | FINITE
CELL = st.none() | st.floats(allow_infinity=False)


def _rewrites_identically(write, read, value, rebuild=lambda rows: rows):
    """write, read back, write again: the second file holds the first's bytes."""
    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d, "first.csv"), Path(d, "second.csv")
        write(value, first)
        write(rebuild(read(first)), second)
        assert second.read_bytes() == first.read_bytes()


def _bar(day: str):
    """A bar of ``day``; a file holds each day and bar index at most once, so callers draw them unique."""
    return st.builds(MinuteBar, day=st.just(day), bar_index=st.integers(0, 10**6), order_flow=FLOW,
                     last_price=CELL, log_return=RETURN, open_bid_size=CELL, open_ask_size=CELL)


@settings(max_examples=150, deadline=None)
@given(st.lists(DAYS, unique=True, max_size=4).flatmap(
    lambda days: st.fixed_dictionaries({d: st.lists(_bar(d), max_size=5, unique_by=lambda b: b.bar_index)
                                        for d in days})))
def test_bars_csv_rewrites_identically(bars):
    # A BarTable holds a missing price or quote size as NaN, so a nan in those
    # three columns is written as an empty cell; every other cell comes back as written.
    _rewrites_identically(write_bars_csv, read_bars_csv, bar_table(bars))


@settings(max_examples=150, deadline=None)
@given(st.lists(DAYS.flatmap(_bar), max_size=12, unique_by=lambda b: (b.day, b.bar_index)))
def test_panel_csv_rewrites_identically(bars):
    _rewrites_identically(write_panel_csv, read_bars_csv, bar_table(bars))


PARAMS = {"sshape": ("ell", "p", "q"), "linear": ("alpha",), "sqrt": ("alpha",)}


@st.composite
def fit_rows(draw):
    model = draw(st.sampled_from(sorted(PARAMS)))
    converged = draw(st.booleans())
    # A converged fit has all its parameters, finite, a finite rss and adj_r2, a bic
    # that is finite or -inf, and a converged S-shape a positive ell and q; an
    # unconverged one may lack any parameter and hold any value.
    positive = {"ell", "q"} if converged and model == "sshape" else set()
    value = st.floats(allow_nan=False, allow_infinity=False) if converged else st.floats()
    hats = {name: draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) if name in positive
                       else value)
            for name in PARAMS[model] if converged or draw(st.booleans())}
    bic = value | st.just(-math.inf) if converged else st.floats()
    fit = FitResult(model=model, a_hat=draw(st.floats()), param_hats=hats, ses={}, t_stats={},
                    rss=draw(value), adj_r2=draw(value), bic=draw(bic),
                    n=draw(st.integers(0, 10**6)), k=draw(st.integers(1, 4)), converged=converged)
    return draw(DAYS), fit


def _as_fits(records: list[dict]) -> list[tuple[str, FitResult]]:
    return [(r["date"], FitResult(
        model=r["model"], a_hat=r["a_hat"],
        param_hats={name: r[name] for name in ("ell", "p", "q", "alpha") if r[name] is not None},
        ses={}, t_stats={}, rss=r["rss"], adj_r2=r["adj_r2"], bic=r["bic"],
        n=r["n"], k=r["k"], converged=r["converged"],
    )) for r in records]


@settings(max_examples=150, deadline=None)
@given(st.lists(fit_rows(), max_size=8, unique_by=lambda row: (row[0], row[1].model)))  # one row a date and model
def test_daily_fits_csv_rewrites_identically(rows):
    _rewrites_identically(write_daily_fits_csv, read_daily_fits_csv, rows, _as_fits)


@pytest.mark.parametrize("write", [write_bars_csv, write_panel_csv])
def test_bar_writers_refuse_a_repeated_bar_before_writing(tmp_path, write):
    # read_bars_csv refuses a file that holds a day and bar twice, so neither writer makes one.
    bars = [MinuteBar(day, i, 1.0, 100.0, None) for day, i in (("a", 0), ("b", 0), ("a", 1), ("b", 0))]
    dest = tmp_path / "bars.csv"
    with pytest.raises(ValueError, match="^repeated bar b 0"):
        write(bar_table(bars), dest)
    assert not dest.exists()


NON_FINITE = [("order_flow", math.nan), ("order_flow", math.inf), ("log_return", math.nan), ("log_return", -math.inf),
              ("last_price", math.inf), ("open_bid_size", -math.inf), ("open_ask_size", math.inf)]


@pytest.mark.parametrize("write, field, value", [(write_bars_csv, *cell) for cell in NON_FINITE]
                         + [(write_panel_csv, *cell) for cell in NON_FINITE[:4]])
def test_bar_writers_refuse_non_finite_cells(tmp_path, write, field, value):
    # What read_bars_csv refuses, neither writer writes: a flow or a given return that is not
    # finite, or an infinite price or size.
    bars = [MinuteBar("a", 0, 1.0, 100.0, None), replace(MinuteBar("a", 1, 2.0, 101.0, 0.01), **{field: value})]
    dest = tmp_path / "bars.csv"
    with pytest.raises(ValueError, match=re.escape(
            f"bar a 1: {field} must be finite, got {value}: the bar file could not be read back")):
        write(bar_table(bars), dest)
    assert not dest.exists()


@pytest.mark.parametrize("write", [write_bars_csv, write_panel_csv])
def test_bar_writers_pass_values_they_never_write(tmp_path, write):
    # A nan return on a bar without one is written as an empty cell, and a panel file has no
    # price or size columns.
    bars = replace(bar_table([MinuteBar("a", 0, 1.0, 100.0, None), MinuteBar("a", 1, 2.0, 101.0, 0.01)]),
                   log_return=np.array([math.nan, 0.01]))
    if write is write_panel_csv:
        bars = replace(bars, last_price=np.array([math.inf, 1.0]), open_bid_size=np.array([-math.inf, 1.0]))
    write(bars, tmp_path / "bars.csv")
    assert read_bars_csv(tmp_path / "bars.csv").has_return.tolist() == [False, True]


def _fit(model, converged=True, **hats):
    return FitResult(model=model, a_hat=0.0, param_hats=hats, ses={}, t_stats={}, rss=1.0, adj_r2=0.1,
                     bic=-1.0, n=30, k=len(hats) + 1, converged=converged)


@pytest.mark.parametrize("rows, message", [
    ([("d1", _fit("sshape", ell=1e-5, p=-3e-3, q=8e-5)), ("d1", _fit("linear", alpha=1e-4)),
      ("d1", _fit("sshape", False))], "d1 sshape: second sshape row for d1"),
    ([("d1", _fit("linear", alpha=1e-4)), ("d2", _fit("sshape", ell=1e-5, q=8e-5))],
     "d2 sshape: converged sshape fit lacks p"),
    ([("d3", _fit("sqrt"))], "d3 sqrt: converged sqrt fit lacks alpha"),
    ([("d1", _fit("sshape", ell=-1e-5, p=-3e-3, q=8e-5))], "d1 sshape: ell must be positive, got -1e-05"),
    ([("d1", _fit("sshape", ell=1e-5, p=-3e-3, q=float("nan")))], "d1 sshape: q must be positive, got nan"),
    ([("d2", replace(_fit("linear", alpha=1e-4), rss=float("nan")))], "d2 linear: rss must be finite, got nan"),
    ([("d1", _fit("linear", alpha=1e-4)), ("d1", _fit("cubic", False))],
     "d1 cubic: model must be one of sshape, linear, sqrt, got 'cubic'"),
], ids=["repeated-date-and-model", "sshape-without-p", "sqrt-without-alpha", "negative-ell", "nan-q", "nan-rss",
        "unknown-model"])
def test_daily_fits_writer_refuses_a_row_the_reader_refuses_before_writing(tmp_path, rows, message):
    # read_daily_fits_csv refuses these rows, so write_daily_fits_csv does not write them;
    # an unconverged row may lack its parameters.
    dest = tmp_path / "es.fits.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}: the fits file could not be read back$"):
        write_daily_fits_csv(rows, dest)
    assert not dest.exists()


# ---------------------------------------------------------------------------
# malformed daily fits name the file and line

HEADER = ",".join(DAILY_FIT_HEADER)
SSHAPE = "2024-01-02,sshape,1,240,4,1e-06,1.3e-05,-0.0034,8.15e-05,,1e-08,0.4,-3000.0"
LINEAR = "2024-01-02,linear,1,240,2,1e-06,,,,0.0001,2e-08,0.3,-2900.0"


@pytest.mark.parametrize("text, hint", [
    ("date,model\n" + SSHAPE + "\n", f":1: expected header {HEADER}"),
    (f"{HEADER}\n{SSHAPE}\n{SSHAPE.rsplit(',', 1)[0]}\n", ":3: expected 13 fields"),
    (f"{HEADER}\n{SSHAPE}\n{SSHAPE.replace('1e-08', 'abc')}\n", ":3: bad number 'abc'"),
    (f"{HEADER}\n{SSHAPE}\n{SSHAPE.replace(',240,', ',2x0,')}\n", ":3: bad integer '2x0'"),
    (f"{HEADER}\n{SSHAPE}\n{SSHAPE.replace('1.3e-05', '')}\n", ":3: converged sshape fit lacks ell"),
    (f"{HEADER}\n{SSHAPE}\n\n{LINEAR.replace('0.0001', '')}\n", ":4: converged linear fit lacks alpha"),
    (f"{HEADER}\n{SSHAPE.replace('1.3e-05', '-1e-05')}\n", ":2: ell must be positive, got -1e-05"),
    (f"{HEADER}\n{SSHAPE.replace('8.15e-05', '0.0')}\n", ":2: q must be positive, got 0.0"),
    (f"{HEADER}\n{SSHAPE}\n{LINEAR}\n{SSHAPE}\n", ":4: second sshape row for 2024-01-02"),
    (f"{HEADER}\n{SSHAPE}\n{SSHAPE.replace(',1,240,', ',yes,240,')}\n", ":3: converged must be 0 or 1, got 'yes'"),
    (f"{HEADER}\n{LINEAR.replace(',2e-08,', ',,')}\n", ":2: converged linear fit lacks rss"),
    (f"{HEADER}\n{SSHAPE.replace('-0.0034', 'nan')}\n", ":2: p must be finite, got nan"),
    (f"{HEADER}\n{SSHAPE.replace('1.3e-05', 'inf')}\n", ":2: ell must be finite, got inf"),
    (f"{HEADER}\n{LINEAR.replace(',0.3,', ',-inf,')}\n", ":2: adj_r2 must be finite, got -inf"),
    (f"{HEADER}\n{LINEAR.replace('-2900.0', 'nan')}\n", ":2: bic must be finite or -inf, got nan"),
    (f"{HEADER}\n{LINEAR}\n{LINEAR.replace(',linear,', ',cubic,')}\n",
     ":3: model must be one of sshape, linear, sqrt, got 'cubic'"),
], ids=["header", "short-row", "bad-number", "bad-integer", "sshape-without-ell", "linear-without-alpha",
        "sshape-negative-ell", "sshape-zero-q", "repeated-date-and-model", "converged-yes", "linear-without-rss",
        "sshape-nan-p", "sshape-inf-ell", "linear-infinite-adj-r2", "linear-nan-bic", "unknown-model"])
def test_read_daily_fits_csv_bad_row_location(tmp_path, text, hint):
    path = tmp_path / "es.fits.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}{hint}")):
        read_daily_fits_csv(path)


def test_read_daily_fits_csv_takes_unconverged_row_without_parameters(tmp_path):
    path = tmp_path / "es.fits.csv"
    path.write_text(f"{HEADER}\n{SSHAPE.replace(',1,240,', ',0,240,').replace('1.3e-05', '')}\n",
                    encoding="utf-8")
    (row,) = read_daily_fits_csv(path)
    assert row["converged"] is False and row["ell"] is None and row["p"] == -0.0034


def test_newest_bench_file_records_the_src_line_count():
    """The performance trajectory at the repo root keeps up with src: the newest
    BENCH_<n>.json's ``src_lines.change`` is what ``wc -l src/liqimpact/*.py`` totals."""
    root = Path(__file__).resolve().parent.parent
    newest = max(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    lines = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "liqimpact").glob("*.py"))
    assert json.loads(newest.read_text())["src_lines"]["change"] == lines, newest.name


def test_bench_files_chain_their_src_line_counts():
    """From BENCH_19.json on, each file's parent line count is the change count of the one before."""
    root = Path(__file__).resolve().parent.parent
    counts = {int(p.stem.split("_")[1]): json.loads(p.read_text())["src_lines"] for p in root.glob("BENCH_*.json")}
    newest = max(counts)
    assert set(range(18, newest + 1)) <= set(counts)
    for n in range(19, newest + 1):
        assert counts[n]["parent"] == counts[n - 1]["change"], f"BENCH_{n}.json"


def _private_scipy_imports(source: str) -> list[str]:
    """The scipy modules and names that ``source`` imports below ``scipy.`` with
    a part that starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[0] == "scipy" and any(part.startswith("_") for part in name.split(".")[1:])]
    return found


def test_src_imports_no_private_scipy_module():
    """A private scipy module can change or vanish in any scipy release, so src uses public ones."""
    assert _private_scipy_imports("from scipy.signal._signaltools import lfilter")
    assert _private_scipy_imports("import scipy._lib.doccer as d\nfrom scipy.special import _ufuncs")
    assert not _private_scipy_imports("from scipy.signal import lfilter\nimport scipy.special\nfrom ._common import x")
    root = Path(__file__).resolve().parent.parent / "src" / "liqimpact"
    found = {p.name: _private_scipy_imports(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}
    assert not {name: imports for name, imports in found.items() if imports}
