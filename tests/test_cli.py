"""End-to-end tests of the command line driver, calling main() in process.

Log-level behaviour runs in a subprocess because it depends on process-wide
logging configuration.
"""

import contextlib
import csv
import gzip
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bars_oracle import bar_table, by_day
from liqimpact import cli
from liqimpact.cli import main
from liqimpact.estimation import FitResult, write_daily_fits_csv
from liqimpact.impact import SShapeParams
from liqimpact.ingest import MinuteBar, read_bars_csv, write_bars_csv
from liqimpact.sde import OUParams, synth_regression_panel

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

SIM_CONFIG = {
    "structural": {"mu_s": 0.05, "sigma_s": 0.2, "rho": 0.3, "c": 0.2, "m": 3.0,
                   "eta": 80.0, "delta": 0.0, "tau": 0.0, "r": 0.03, "kappa0": 0.0},
    "impact": {"family": "sshape", "ell": 1.3e-5, "p": -0.0034, "q": 8.15e-5},
    "n_steps": 40, "dt": 1.0 / 252.0, "x0": 5.0, "s0": 100.0,
    "seed": 123, "measure": "physical",
}


PARAMETER_BLOCKS = {"structural": SIM_CONFIG["structural"], "impact": SIM_CONFIG["impact"],
                    "panel": {"flow": {"c": 0.1, "m": 5.0, "eta": 100.0}}}


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def make_fit(model, ell=1.3e-5, p=-0.0034, q=8.15e-5, alpha=1e-4,
             rss=1e-8, adj_r2=0.4, bic=-3000.0, converged=True):
    hats = {"ell": ell, "p": p, "q": q} if model == "sshape" else {"alpha": alpha}
    return FitResult(model=model, a_hat=1e-6, param_hats=hats, ses={}, t_stats={},
                     rss=rss, adj_r2=adj_r2, bic=bic, n=240,
                     k=4 if model == "sshape" else 2, converged=converged)


# ---------------------------------------------------------------------------
# ingest


def test_ingest_end_to_end(tmp_path, capsys):
    src = tmp_path / "es.csv"
    shutil.copy(DATA / "golden_ticks.csv", src)
    out = tmp_path / "out"
    code = main(["ingest", str(src), "--out-dir", str(out),
                 "--session-start", "09:00", "--session-end", "09:05"])
    assert code == 0
    dest = out / "es.bars.csv"
    assert dest.read_bytes() == (DATA / "golden_bars.csv").read_bytes()

    meta = json.loads((out / "es.bars.meta.json").read_text())
    assert meta["command"] == "ingest"
    assert meta["config"]["session_start"] == "09:00"
    assert meta["config"]["bar_seconds"] == 60
    assert meta["config"]["input"] == str(src)

    line = capsys.readouterr().out.strip()
    assert "1 day(s), 5 bars" in line

    # Re-running over the same input leaves the output bytes unchanged.
    before = dest.read_bytes()
    assert main(["ingest", str(src), "--out-dir", str(out),
                 "--session-start", "09:00", "--session-end", "09:05"]) == 0
    assert dest.read_bytes() == before


def test_flag_beats_config_beats_default(tmp_path):
    cfg = write_config(tmp_path, {"tick_size": 0.005, "bar_seconds": 30})
    assert main(["ingest", str(DATA / "golden_ticks.csv"), "--config", str(cfg), "--bar-seconds", "60",
                 "--out-dir", str(tmp_path / "bars")]) == 0
    meta = json.loads((tmp_path / "bars" / "golden_ticks.bars.meta.json").read_text())["config"]
    assert (meta["tick_size"], meta["bar_seconds"], meta["session_end"]) == (0.005, 60, "15:00")

    # A store_true flag left off must not override the config's true.
    cfg = write_config(tmp_path, {"pooled": True, "model": "linear"})
    assert main(["fit", str(tmp_path / "bars" / "golden_ticks.bars.csv"), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "fits")]) == 0
    doc = json.loads((tmp_path / "fits" / "golden_ticks.bars.fits.json").read_text())
    assert doc["config"]["pooled"] is True and list(doc["pooled"]) == ["linear"]


def test_ingest_bad_inputs(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("time,type\n1,T\n", encoding="utf-8")
    assert main(["ingest", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def _truncated(gz: bytes) -> bytes:
    return gz[:len(gz) // 2]


def _bad_crc(gz: bytes) -> bytes:
    return gz[:-8] + bytes([gz[-8] ^ 0xFF]) + gz[-7:]  # the trailer is CRC-32, then the length


@pytest.mark.parametrize("name, corrupt", [
    ("es.csv.gz", _truncated),
    ("es.csv.gz", _bad_crc),
    ("es.csv", lambda text: text + b"2024-03-15 09:06:00,T,100.07,3\xff0,,,,\n"),
], ids=["truncated-gzip", "gzip-crc", "not-utf8"])
def test_ingest_undecodable_file_names_it(tmp_path, capsys, name, corrupt):
    text = (DATA / "golden_ticks.csv").read_bytes()
    src = tmp_path / name
    src.write_bytes(corrupt(gzip.compress(text, mtime=0) if name.endswith(".gz") else text))
    assert main(["ingest", str(src), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(str(src))}:\d+: ", err), err
    assert "Traceback" not in err


def _fits_csv(tmp_path):
    dest = tmp_path / "es.fits.csv"
    write_daily_fits_csv([(f"2024-02-0{d}", make_fit("sshape")) for d in (1, 2)], dest)
    return dest


@pytest.mark.parametrize("command, name, corrupt", [
    # A bar row with a byte that is not UTF-8, past the header's read.
    ("fit", "golden_bars.csv", lambda text: text.replace(b"\n2024-03-15,2,", b"\n2024-03-15,2,\xff", 1)),
    # A fits table whose header is not UTF-8.
    ("compare", "es.fits.csv", lambda text: text.replace(b"model", b"mod\xffel", 1)),
], ids=["bars-row", "fits-header"])
def test_undecodable_table_names_it(tmp_path, capsys, command, name, corrupt):
    src = tmp_path / name
    text = corrupt((DATA / name).read_bytes() if command == "fit" else _fits_csv(tmp_path).read_bytes())
    src.write_bytes(text)
    line = text.count(b"\n", 0, text.index(b"\xff")) + 1
    args = [str(src)] if command == "fit" else ["--fits", str(src)]
    assert main([command, *args, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:{line}: 'utf-8' codec can't decode byte 0xff"), err


@pytest.mark.parametrize("content, line, message", [
    (b'{"a": 1,,}', 1, "Expecting property name enclosed in double quotes (column 9)"),
    (b'{"model": "sshape",\n "pooled": tru}', 2, "Expecting value (column 12)"),
    (b"\xff\xfe{}", 1, "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"model":\n "sh\xe9pe"}', 2, "'utf-8' codec can't decode byte 0xe9 in position 14"),
], ids=["syntax", "syntax-line-2", "utf16-bom", "latin1"])
def test_json_errors_name_file_and_line(tmp_path, capsys, content, line, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (["fit", str(DATA / "golden_bars.csv"), "--config", str(bad)], ["curves", str(bad)]):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: {message}"), err


def test_fit_json_reads_nan_but_real_flags_must_be_finite(tmp_path, capsys):
    # fit writes NaN standard errors, so a fits JSON reads NaN and Infinity where a config does not.
    bare = tmp_path / "bare.json"
    bare.write_text('{"model": "sshape", "ses": {"a": NaN, "ell": Infinity}, '
                    '"param_hats": {"ell": 1.3e-5, "p": -0.0034, "q": 8.15e-5}}', encoding="utf-8")
    assert main(["curves", str(bare), "--n-points", "3", "--out-dir", str(tmp_path / "out")]) == 0
    assert "3 points" in capsys.readouterr().out
    assert main(["curves", str(bare), "--x-min=-inf", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: x_min: expected a finite number, got -inf\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_path_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    dest = out / "path.csv"
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,s,x,p"
    assert len(lines) == 1 + SIM_CONFIG["n_steps"] + 1

    meta = json.loads((out / "path.meta.json").read_text())
    assert meta["kind"] == "path"
    assert meta["rng"] == {"algorithm": "PCG64", "seed": 123}
    assert meta["config"]["structural"]["eta"] == 80.0
    assert "seed 123" in capsys.readouterr().out

    before = dest.read_bytes()
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert dest.read_bytes() == before


def test_simulate_seed_flag_beats_config(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_b), "--seed", "999"]) == 0
    assert json.loads((out_b / "path.meta.json").read_text())["rng"]["seed"] == 999
    assert (out_a / "path.csv").read_bytes() != (out_b / "path.csv").read_bytes()


def test_simulate_panel_records_drawn_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "panel",
        "impact": SIM_CONFIG["impact"],
        "panel": {"a": 1e-6, "flow": {"c": 0.1, "m": 5.0, "eta": 100.0},
                  "n_days": 2, "bars_per_day": 50, "noise_sd": 5e-4},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    meta = json.loads((out / "panel.meta.json").read_text())
    assert meta["kind"] == "panel"
    seed = meta["truth"]["rng"]["seed"]
    assert isinstance(seed, int)
    assert f"seed {seed}" in capsys.readouterr().out

    lines = (out / "panel.csv").read_text().splitlines()
    assert lines[0] == "day,bar,x,r"
    assert len(lines) == 1 + 2 * 50

    # Feeding the recorded seed back reproduces the panel byte for byte.
    out2 = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2),
                 "--seed", str(seed)]) == 0
    assert (out2 / "panel.csv").read_bytes() == (out / "panel.csv").read_bytes()


def test_simulate_bad_configs(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config file not found" in capsys.readouterr().err

    empty = write_config(tmp_path, {}, "empty.json")
    assert main(["simulate", "--config", str(empty), "--out-dir", str(tmp_path)]) == 1
    assert "structural" in capsys.readouterr().err

    bad_mode = write_config(tmp_path, {**SIM_CONFIG, "mode": "bogus"}, "mode.json")
    assert main(["simulate", "--config", str(bad_mode), "--out-dir", str(tmp_path)]) == 1
    assert "mode" in capsys.readouterr().err

    bad_steps = write_config(tmp_path, {**SIM_CONFIG, "n_steps": "x"}, "steps.json")
    assert main(["simulate", "--config", str(bad_steps), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: n_steps: ")

    for mode in ("path", "panel"):
        bad_family = write_config(tmp_path, {**SIM_CONFIG, "mode": mode,
                                             "panel": {"flow": {"c": 0.1, "m": 5.0, "eta": 100.0}},
                                             "impact": {"family": "cubic", "alpha": 1e-4}}, "family.json")
        assert main(["simulate", "--config", str(bad_family), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "family" in err

    panel = {"flow": {"c": 0.1, "m": 5.0, "eta": 100.0}, "n_days": 1, "bars_per_day": 5}
    for mode in ("path", "panel"):
        for seed in (1.9, True, -1, "7"):
            bad_seed = write_config(tmp_path, {**SIM_CONFIG, "mode": mode, "panel": panel, "seed": seed},
                                    "seed.json")
            assert main(["simulate", "--config", str(bad_seed), "--out-dir", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith("error: seed: ")
    assert main(["simulate", "--seed", "-1", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: seed: ")

    # The panel block is as strict as the config root, and names the key it rejects.
    for block, hint in (({**panel, "n_dayz": 5}, "error: panel.n_dayz: unknown config key for simulate"),
                        ({**panel, "n_days": 2.5}, "error: panel.n_days: "),
                        ({**panel, "flow": {**panel["flow"], "etta": 1.0}},
                         "error: panel.flow.etta: unknown config key for simulate"),
                        (5, "error: panel must be a JSON object")):
        cfg = write_config(tmp_path, {**SIM_CONFIG, "mode": "panel", "panel": block}, "panel.json")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(hint)

    # A parameter block missing a field names it (bad and unknown fields: test_bad_config_value_names_its_key).
    structural = {k: v for k, v in SIM_CONFIG["structural"].items() if k != "m"}
    cfg = write_config(tmp_path, {**SIM_CONFIG, "structural": structural}, "block.json")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: structural.m: missing\n"

    # Parameters past the float range: SimConfig rejects a sigma_s, or a risk-neutral eta, whose
    # square overflows; a physical eta that large makes x non-finite through a flow shock.
    for over, measure, hint in (
            ({"sigma_s": 1e308}, "physical", "error: sigma_s squared is not a finite float"),
            ({"eta": 1e308}, "risk-neutral", "error: eta squared is not a finite float"),
            ({"eta": 1e308}, "physical", "error: non-finite x at step ")):
        structural = {**SIM_CONFIG["structural"], **over}
        cfg = write_config(tmp_path, {**SIM_CONFIG, "dt": 1.0, "structural": structural, "measure": measure},
                           "over.json")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(hint)

    # Non-finite reals in a config, nested or not, name their key; so does a path too long for memory.
    for cfg, hint in (
            ({**SIM_CONFIG, "mode": "panel", "panel": {**panel, "noise_sd": math.nan, "a": math.inf}},
             "error: panel.noise_sd: expected a finite number, got nan"),
            ({**SIM_CONFIG, "structural": {**SIM_CONFIG["structural"], "m": -math.inf}},
             "error: structural.m: expected a finite number, got -inf"),
            ({**SIM_CONFIG, "n_steps": 10 ** 30},
             f"error: n_steps: {10 ** 30} steps do not fit in memory (Maximum allowed dimension exceeded)"),
            ({**SIM_CONFIG, "n_steps": 2 ** 62},
             f"error: n_steps: {2 ** 62} steps do not fit in memory (array is too big"),
            ({**SIM_CONFIG, "mode": "panel", "panel": {**panel, "bars_per_day": 10 ** 15}},
             f"error: n_days x bars_per_day: 1 x {10 ** 15} bars do not fit (Unable to allocate")):
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg, "big.json")),
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(hint)


def test_simulate_square_root_family(tmp_path, capsys):
    sqrt_impact = {"family": "sqrt", "alpha": 1e-4}
    cfg = write_config(tmp_path, {
        "mode": "panel", "seed": 9, "impact": sqrt_impact,
        "panel": {"a": 0.0, "flow": {"c": 0.1, "m": 5.0, "eta": 100.0}, "n_days": 2, "bars_per_day": 20},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert json.loads((out / "panel.meta.json").read_text())["truth"]["impact"] == sqrt_impact
    with open(out / "panel.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    x0, x1 = float(rows[0]["x"]), float(rows[1]["x"])
    root = lambda v: np.sign(v) * np.sqrt(abs(v))
    assert float(rows[1]["r"]) == pytest.approx(1e-4 * (root(x1) - root(x0)), rel=1e-12)

    # Path mode needs g and g', so it takes only the sshape and linear families.
    path_cfg = write_config(tmp_path, {**SIM_CONFIG, "impact": sqrt_impact}, "path.json")
    assert main(["simulate", "--config", str(path_cfg), "--out-dir", str(tmp_path / "path")]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# fit and curves


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Simulated panel fit with all three models plus pooled fits."""
    root = tmp_path_factory.mktemp("fitted")
    panel = synth_regression_panel(
        a=1e-6,
        impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
        flow=OUParams(c=0.1, m=5.0, eta=100.0),
        n_days=4, bars_per_day=240, noise_sd=5e-4, seed=8)
    panel_csv = root / "nk.csv"
    panel.write_csv(panel_csv)
    cfg = write_config(root, {"grid": [[-3e-3, 8e-5]]})
    out = root / "out"
    code = main(["fit", str(panel_csv), "--config", str(cfg),
                 "--out-dir", str(out), "--pooled"])
    assert code == 0
    return out


def test_fit_outputs(fitted):
    with open(fitted / "nk.fits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    assert {r["model"] for r in rows} == {"sshape", "linear", "sqrt"}
    assert sorted({r["date"] for r in rows}) == ["0", "1", "2", "3"]

    doc = json.loads((fitted / "nk.fits.json").read_text())
    assert doc["failures"] == {}
    assert sorted(doc["days"]) == ["0", "1", "2", "3"]
    pooled = doc["pooled"]
    assert sorted(pooled) == ["linear", "sqrt", "sshape"]
    sshape = pooled["sshape"]
    assert sshape["converged"]
    assert 0.5 * 1.3e-5 < sshape["param_hats"]["ell"] < 2.0 * 1.3e-5
    assert sshape["param_hats"]["q"] > 0

    meta = json.loads((fitted / "nk.fits.meta.json").read_text())
    assert meta["command"] == "fit"
    assert meta["config"]["grid"] == [[-3e-3, 8e-5]]
    assert sorted(meta["config"]) == ["files", "grid", "input", "model", "out_dir", "pooled"]
    assert doc["config"] == meta["config"]


def test_curves_from_pooled_sshape(fitted, tmp_path, capsys):
    out = tmp_path / "cur"
    code = main(["curves", str(fitted / "nk.fits.json"), "--out-dir", str(out),
                 "--x-min", "-200", "--x-max", "200", "--n-points", "41"])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "x,f_bps"
    assert len(lines) == 42
    grid = {float(a): float(b) for a, b in (ln.split(",") for ln in lines[1:])}
    assert grid[0.0] == 0.0
    assert grid[200.0] > 0 > grid[-200.0]
    meta = json.loads((out / "curve.meta.json").read_text())
    assert meta["config"]["model"] == "sshape"
    assert set(meta["config"]["param_hats"]) == {"ell", "p", "q"}


def test_curves_linear_antisymmetric(fitted, tmp_path):
    out = tmp_path / "cur"
    code = main(["curves", str(fitted / "nk.fits.json"), "--model", "linear",
                 "--out-dir", str(out), "--x-min", "-200", "--x-max", "200",
                 "--n-points", "41"])
    assert code == 0
    vals = [float(ln.split(",")[1]) for ln in
            (out / "curve.csv").read_text().splitlines()[1:]]
    for i in range(41):
        assert vals[i] == -vals[40 - i]


def test_curves_refuses_a_range_wider_than_a_float(fitted, tmp_path, capsys):
    # x_max - x_min overflows to inf, and np.linspace then wrote nan and inf rows.
    out = tmp_path / "cur"
    cfg = write_config(tmp_path, {"x_min": -1e308, "x_max": 1e308, "n_points": 3})
    assert main(["curves", str(fitted / "nk.fits.json"), "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: x_min, x_max: the range from -1e+308 to 1e+308 is wider than a float\n"
    assert not (out / "curve.csv").exists()


def test_curves_single_day_and_errors(fitted, tmp_path, capsys):
    out = tmp_path / "cur"
    assert main(["curves", str(fitted / "nk.fits.json"), "--model", "linear",
                 "--date", "2", "--out-dir", str(out)]) == 0
    capsys.readouterr()

    assert main(["curves", str(fitted / "nk.fits.json"), "--date", "1999-01-01",
                 "--out-dir", str(out)]) == 1
    assert "no sshape fit for date" in capsys.readouterr().err

    assert main(["curves", str(tmp_path / "nope.json"), "--out-dir", str(out)]) == 1
    assert "not found" in capsys.readouterr().err

    cfg = write_config(tmp_path, {"model": "all"})
    assert main(["curves", str(fitted / "nk.fits.json"), "--config", str(cfg),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: model: expected one of sshape, linear, sqrt, got 'all'\n"

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"model": "sshape", "converged": True,
                                "param_hats": {"ell": 10.0, "p": 3.0, "q": 1e-6}}))
    assert main(["curves", str(bare), "--out-dir", str(out)]) == 1
    assert "infeasible" in capsys.readouterr().err

    assert main(["curves", str(bare), "--model", "linear", "--out-dir", str(out)]) == 1
    assert "holds model" in capsys.readouterr().err

    for doc, what in (([], "fit JSON"), ({"days": ["2"]}, "fit JSON days")):
        bare.write_text(json.dumps(doc))
        assert main(["curves", str(bare), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {what} must be a JSON object, got list")

    # The fit's parameters, and the blocks on the way to them, name the key they reject; so does a
    # sample count too large for memory or for numpy's sizes.
    hats = {"ell": 1.3e-5, "p": -0.0034, "q": 8.15e-5}
    for doc, extra, hint in (
            ({"pooled": {"sshape": {"param_hats": {**hats, "ell": "x"}}}}, [],
             "error: param_hats.ell: expected a number, got 'x'"),
            ({"pooled": {"sshape": {"param_hats": {**hats, "p": "x"}}}}, [],
             "error: param_hats.p: expected a number, got 'x'"),
            ({"days": {"d": 5}}, ["--date", "d"], "error: fit JSON days.d must be a JSON object, got int"),
            ({"pooled": 5}, [], "error: fit JSON pooled must be a JSON object, got int"),
            ({"pooled": {"sshape": {"param_hats": hats}}}, ["--n-points", str(10 ** 15)],
             f"error: n_points: {10 ** 15} points do not fit in memory (Unable to allocate"),
            ({"pooled": {"sshape": {"param_hats": hats}}}, ["--n-points", str(2 ** 63 - 1)],
             f"error: n_points: {2 ** 63 - 1} points do not fit in memory (index -1 is out of bounds")):
        bare.write_text(json.dumps(doc))
        assert main(["curves", str(bare), *extra, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(hint) and "Traceback" not in err


def test_fit_reads_bar_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 30.0, 80)
    alpha = 2e-5
    bars = []
    for i in range(80):
        r = None if i == 0 else float(alpha * (x[i] - x[i - 1]) + rng.normal(0, 1e-5))
        bars.append(MinuteBar(day="2024-01-02", bar_index=i, order_flow=float(x[i]),
                              last_price=100.0, log_return=r))
    src = tmp_path / "cl.bars.csv"
    write_bars_csv(bar_table({"2024-01-02": bars}), src)
    out = tmp_path / "out"
    assert main(["fit", str(src), "--model", "linear", "--out-dir", str(out)]) == 0
    with open(out / "cl.bars.fits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["model"] == "linear" and rows[0]["converged"] == "1"
    assert abs(float(rows[0]["alpha"]) - alpha) < 5e-6


def test_fit_pooled_on_interleaved_panel_days_matches_grouped(tmp_path, capsys):
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0),
                                   n_days=3, bars_per_day=40, noise_sd=5e-4, seed=4)
    cfg = write_config(tmp_path, {"grid": [[-3e-3, 8e-5]]})
    outputs = {}
    for layout in ("grouped", "interleaved", "reversed"):
        src = tmp_path / layout / "nk.csv"
        src.parent.mkdir()
        panel.write_csv(src)
        header, *rows = src.read_text(encoding="utf-8").splitlines()
        if layout == "interleaved":
            # One bar of each day in turn; the days first appear in the same order.
            rows.sort(key=lambda line: int(line.split(",")[1]))
            assert [line.split(",")[0] for line in rows[:4]] == ["0", "1", "2", "0"]
        elif layout == "reversed":
            # Whole days, the last label first: the pooled fit still takes the days in label order.
            rows.sort(key=lambda line: -int(line.split(",")[0]))
            assert [line.split(",")[0] for line in rows[::40]] == ["2", "1", "0"]
        src.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / layout / "out"
        assert main(["fit", str(src), "--pooled", "--config", str(cfg), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "nk.fits.json").read_text(encoding="utf-8"))
        del doc["config"]  # names the input and output paths
        assert sorted(doc["days"]) == ["0", "1", "2"]
        assert sorted(doc["pooled"]) == ["linear", "sqrt", "sshape"]
        outputs[layout] = ((out / "nk.fits.csv").read_bytes(), json.dumps(doc, sort_keys=True))
    capsys.readouterr()
    assert outputs["interleaved"] == outputs["grouped"]
    assert outputs["reversed"] == outputs["grouped"]


def test_fit_all_days_failing_exits_nonzero(tmp_path, capsys):
    bars = {}
    for day in ("2024-01-01", "2024-01-02"):
        bars[day] = [MinuteBar(day=day, bar_index=i, order_flow=5.0, last_price=100.0,
                               log_return=None if i == 0 else 0.0)
                     for i in range(40)]
    src = tmp_path / "flat.bars.csv"
    write_bars_csv(bar_table(bars), src)
    assert main(["fit", str(src), "--out-dir", str(tmp_path / "out")]) == 1
    assert "all days failed to fit" in capsys.readouterr().err


def test_fit_keeps_every_failing_models_message(tmp_path, capsys):
    day = "2024-01-01"
    bars = {day: [MinuteBar(day=day, bar_index=i, order_flow=5.0, last_price=100.0,
                            log_return=None if i == 0 else 1e-4 * (-1) ** i)
                  for i in range(40)]}
    src = tmp_path / "flat.bars.csv"
    write_bars_csv(bar_table(bars), src)
    assert main(["fit", str(src), "--out-dir", str(tmp_path / "out")]) == 1
    want = ("sshape: flow never changes between bars; impact slope not identified; "
            "linear: design column delta_f(linear) is constant; slope not identified; "
            "sqrt: design column delta_f(sqrt) is constant; slope not identified")
    doc = json.loads((tmp_path / "out" / "flat.bars.fits.json").read_text(encoding="utf-8"))
    assert doc["failures"] == {day: want}
    assert f"  failed {day}: {want}" in capsys.readouterr().out


def test_fit_pooled_tries_every_model_and_names_each_failure(tmp_path, capsys):
    bars = {day: [MinuteBar(day=day, bar_index=i, order_flow=5.0, last_price=100.0,
                            log_return=None if i == 0 else 1e-4 * (-1) ** i)
                  for i in range(40)]
            for day in ("2024-01-01", "2024-01-02")}
    src = tmp_path / "flat.bars.csv"
    write_bars_csv(bar_table(bars), src)
    assert main(["fit", str(src), "--pooled", "--out-dir", str(tmp_path / "out")]) == 1
    want = ("sshape: flow never changes between bars; impact slope not identified; "
            "linear: design column delta_f(linear) is constant; slope not identified; "
            "sqrt: design column delta_f(sqrt) is constant; slope not identified")
    doc = json.loads((tmp_path / "out" / "flat.bars.fits.json").read_text(encoding="utf-8"))
    assert doc["failures"]["pooled"] == want
    assert doc["pooled"] == {}
    assert f"  failed pooled: {want}" in capsys.readouterr().out


@pytest.mark.parametrize("command, key, value", [
    ("fit", "max_iter", "x"),
    ("fit", "grid", 5),
    ("fit", "rss_rtol", None),
    ("fit", "model", "cubic"),
    ("fit", "pooled", "false"),
    ("fit", "max_iters", 3),
    ("ingest", "tick_size", None),
    ("ingest", "session_start", 5),
    ("ingest", "bar_second", 60),
    ("curves", "n_points", None),
    ("curves", "n_points", math.inf),
    ("curves", "n_points", 2.9),
    ("curves", "n_points", True),
    ("curves", "x_min", "-5"),
    ("ingest", "bar_seconds", 2.9),
    ("fit", "max_iter", True),
    ("simulate", "n_stepz", 5),
    ("curves", "n_point", 5),
    ("compare", "bars", "es.bars.csv"),
    ("curves", "x_min", -math.inf),
    ("fit", "rss_rtol", math.nan),
    ("fit", "grid", [["-3e-3", True]]),
    ("fit", "grid", [[-3e-3, math.inf]]),
    ("simulate", "structural.m", [1]),
    ("simulate", "panel.flow.m", "5"),
    ("simulate", "impact.p", "x"),
    ("simulate", "impact.pp", 1.0),
])
def test_bad_config_value_names_its_key(tmp_path, capsys, command, key, value):
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0),
                                   n_days=1, bars_per_day=20, noise_sd=5e-4, seed=1)
    panel.write_csv(tmp_path / "nk.csv")
    fit_json = write_config(tmp_path, {"model": "sshape", "converged": True,
                                       "param_hats": {"ell": 1.3e-5, "p": -0.0034, "q": 8.15e-5}}, "fit.json")
    fits_csv = tmp_path / "nk.fits.csv"
    write_daily_fits_csv([("2024-02-01", make_fit("sshape"))], fits_csv)
    inputs = {"fit": [str(tmp_path / "nk.csv")], "ingest": [str(DATA / "golden_ticks.csv")],
              "curves": [str(fit_json)], "simulate": [], "compare": ["--fits", str(fits_csv)]}[command]
    # A dotted key sets one field of an otherwise valid parameter block.
    top, *path = key.split(".")
    config = {top: value}
    if path:
        config[top] = json.loads(json.dumps(PARAMETER_BLOCKS[top]))
        block = config[top]
        for name in path[:-1]:
            block = block[name]
        block[path[-1]] = value
    cfg = write_config(tmp_path, config)
    assert main([command, *inputs, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err


def test_readme_key_list_matches_option_tables():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullets = text.split("The keys are:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for item in bullets.removeprefix("- ").split("\n- "):
        name, keys = item.split(":", 1)
        listed[name.strip("`")] = re.findall(r"`(\w+)`", keys)
    tables = {**cli.OPTIONS, "simulate.panel": cli.PANEL}
    assert listed == {name: [row[0] for row in rows] for name, rows in tables.items()}


def test_fit_missing_file(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(17)
    days = [f"2024-01-{i:02d}" for i in range(1, 6)]
    fit_rows = []
    for day in days:
        fit_rows.append((day, make_fit("sshape", ell=float(rng.uniform(1e-5, 2e-5)),
                                       rss=float(rng.uniform(1e-8, 2e-8)),
                                       adj_r2=float(rng.uniform(0.3, 0.5)),
                                       bic=float(rng.uniform(-3100, -3000)))))
        fit_rows.append((day, make_fit("linear", rss=float(rng.uniform(2e-8, 3e-8)),
                                       adj_r2=float(rng.uniform(0.2, 0.4)),
                                       bic=float(rng.uniform(-3000, -2900)))))
    fits_csv = tmp_path / "es.fits.csv"
    write_daily_fits_csv(fit_rows, fits_csv)

    bars = {day: [MinuteBar(day=day, bar_index=0, order_flow=1.0, last_price=100.0,
                            log_return=None, open_bid_size=float(10 + i),
                            open_ask_size=float(20 + i))]
            for i, day in enumerate(days)}
    bars_csv = tmp_path / "es.bars.csv"
    write_bars_csv(bar_table(bars), bars_csv)

    out = tmp_path / "out"
    code = main(["compare", "--fits", str(fits_csv), "--bars", str(bars_csv),
                 "--out-dir", str(out)])
    assert code == 0

    with open(out / "ttests.csv", newline="") as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == 3
    assert {r["metric"] for r in trows} == {"adj_r2", "rss", "bic"}
    assert all(r["contract"] == "es" and r["n"] == "5" for r in trows)

    with open(out / "descriptives.csv", newline="") as fh:
        drows = list(csv.DictReader(fh))
    assert [r["stat"] for r in drows] == ["ell", "p", "q", "a", "adj_r2"]

    with open(out / "depth.csv", newline="") as fh:
        deprows = list(csv.DictReader(fh))
    assert [r["series"] for r in deprows] == ["inflection", "bid_size", "ask_size"]
    assert deprows[0]["days_included"] == "5"
    assert float(deprows[1]["p50"]) == 12.0

    doc = json.loads((out / "report.json").read_text())
    assert list(doc["contracts"]) == ["es"]
    block = doc["contracts"]["es"]
    assert block["models"] == ["linear", "sshape"]
    assert len(block["t_tests"]) == 3
    assert block["depth"]["n_included"] == 5
    meta = json.loads((out / "ttests.meta.json").read_text())
    assert meta["command"] == "compare"

    outputs = ["ttests.csv", "descriptives.csv", "depth.csv", "report.json"]
    before = {name: (out / name).read_bytes() for name in outputs}
    assert main(["compare", "--fits", str(fits_csv), "--bars", str(bars_csv),
                 "--out-dir", str(out)]) == 0
    for name in outputs:
        assert (out / name).read_bytes() == before[name]


def _model_ticks(path, n_days=2, bars=240):
    """A tick file whose bars reproduce a synthetic S-shape panel.

    Each bar holds one quote and one trade of size |x| at the panel price:
    a buy prints at the ask and a sell at the bid, two ticks (of 1e-6) away
    from the other side.
    """
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0), n_days=n_days,
                                   bars_per_day=bars, noise_sd=5e-4, seed=8)
    lines = ["ts,kind,price,size,bid,ask,bid_size,ask_size"]
    for d, day_bars in enumerate(by_day(panel.bars).values()):
        for b in day_bars:
            stamp = f"2024-05-{6 + d:02d} {9 + b.bar_index // 60:02d}:{b.bar_index % 60:02d}"
            price, size = b.last_price, abs(b.order_flow)
            bid, ask = (price - 2e-6, price) if b.order_flow > 0 else (price, price + 2e-6)
            lines.append(f"{stamp}:10,Q,,,{bid!r},{ask!r},{10 + d},{20 + d}")
            lines.append(f"{stamp}:20,T,{price!r},{size!r},,,,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_fit_compare_with_default_names(tmp_path, capsys):
    """compare files es.bars.fits.csv and es.bars.csv, as ingest and fit name
    them, under one contract, so the depth report gets its quote sizes."""
    _model_ticks(tmp_path / "es.csv")
    bars, fits, reports = (tmp_path / d for d in ("bars", "fits", "reports"))
    assert main(["ingest", str(tmp_path / "es.csv"), "--out-dir", str(bars), "--session-end", "13:00",
                 "--tick-size", "1e-6"]) == 0
    assert main(["fit", str(bars / "es.bars.csv"), "--model", "sshape", "--out-dir", str(fits),
                 "--config", str(write_config(tmp_path, {"grid": [[-3e-3, 8e-5]]}))]) == 0
    assert main(["compare", "--fits", str(fits / "es.bars.fits.csv"), "--bars", str(bars / "es.bars.csv"),
                 "--out-dir", str(reports)]) == 0
    assert "0.0% unsigned" in capsys.readouterr().out

    with open(reports / "depth.csv", newline="") as fh:
        depth = list(csv.DictReader(fh))
    assert [(r["contract"], r["series"]) for r in depth] == [
        ("es", "inflection"), ("es", "bid_size"), ("es", "ask_size")]
    assert depth[0]["days_included"] == "2"
    assert [float(depth[1]["mean"]), float(depth[2]["mean"])] == [10.5, 20.5]
    assert list(json.loads((reports / "report.json").read_text())["contracts"]) == ["es"]


def test_ticks_to_depth_recovers_the_generating_curve(tmp_path, capsys):
    """The benchmark's tick generator knows the curve behind its prices; through
    signing, bars and the pooled fit, each parameter lands within 3 SE of it.

    The generator is read from bench/ as it is, and the file is the benchmark's
    tick_pipeline input (5 days, 35 trades a bar).  On 20 seeds (11-30) every
    |z| was below 3 and 17-19 of 20 were below 2."""
    spec = importlib.util.spec_from_file_location("bench_ticks", ROOT / "bench" / "liqbench" / "ticks.py")
    ticks = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = ticks  # dataclasses look their module up there
    try:
        spec.loader.exec_module(ticks)
    finally:
        del sys.modules[spec.name]
    for seed in (11, 12):
        source = tmp_path / f"s{seed}.csv.gz"
        source.write_bytes(ticks.generate(seed, 5, 35.0).data)
        assert main(["ingest", str(source), "--out-dir", str(tmp_path)]) == 0
        assert main(["fit", str(tmp_path / f"s{seed}.bars.csv"), "--pooled", "--model", "sshape",
                     "--out-dir", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / f"s{seed}.bars.fits.json").read_text())["pooled"]["sshape"]
        assert fit["converged"]
        for name, truth in (("ell", ticks.ELL), ("p", ticks.P), ("q", ticks.Q)):
            assert abs(fit["param_hats"][name] - truth) <= 3.0 * fit["ses"][name], (seed, name, fit)
    capsys.readouterr()


def test_compare_single_model_no_ttests(tmp_path):
    days = [f"2024-02-{i:02d}" for i in range(1, 4)]
    rows = [(d, make_fit("sshape")) for d in days]
    fits_csv = tmp_path / "cl.fits.csv"
    write_daily_fits_csv(rows, fits_csv)
    out = tmp_path / "out"
    assert main(["compare", "--fits", str(fits_csv), "--out-dir", str(out)]) == 0
    lines = (out / "ttests.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    doc = json.loads((out / "report.json").read_text())
    assert doc["contracts"]["cl"]["t_tests"] == []


def test_compare_takes_panel_csv_as_bars_without_sizes(tmp_path, capsys):
    """A day,bar,x,r panel carries no quote sizes, so depth reports the inflection only."""
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0), n_days=3, bars_per_day=20, seed=3)
    panel_csv = tmp_path / "cl.csv"
    panel.write_csv(panel_csv)
    fits_csv = tmp_path / "cl.fits.csv"
    write_daily_fits_csv([(d, make_fit("sshape")) for d in panel.days], fits_csv)
    out = tmp_path / "out"
    assert main(["compare", "--fits", str(fits_csv), "--bars", str(panel_csv), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    with open(out / "depth.csv", newline="") as fh:
        depth = list(csv.DictReader(fh))
    assert [(r["contract"], r["series"], r["days_included"]) for r in depth] == [("cl", "inflection", "3")]


@pytest.mark.parametrize("edit, hint", [
    (lambda cells: cells[:5], "expected 13 fields"),
    (lambda cells: cells[:10] + ["abc"] + cells[11:], "bad number 'abc'"),
    (lambda cells: cells[:6] + [""] + cells[7:], "converged sshape fit lacks ell"),
    (lambda cells: cells[:6] + ["-1e-05"] + cells[7:], "ell must be positive, got -1e-05"),
    (lambda cells: ["2024-02-01"] + cells[1:], "second sshape row for 2024-02-01"),
    (lambda cells: cells[:2] + ["yes"] + cells[3:], "converged must be 0 or 1, got 'yes'"),
    (lambda cells: cells[:10] + [""] + cells[11:], "converged sshape fit lacks rss"),
    (lambda cells: cells[:7] + ["nan"] + cells[8:], "p must be finite, got nan"),
], ids=["short-row", "bad-number", "sshape-without-ell", "sshape-negative-ell", "repeated-date-and-model",
        "converged-yes", "sshape-without-rss", "sshape-nan-p"])
def test_compare_malformed_fits_row(tmp_path, capsys, edit, hint):
    days = [f"2024-02-{i:02d}" for i in range(1, 4)]
    fits_csv = tmp_path / "cl.fits.csv"
    write_daily_fits_csv([(d, make_fit(m)) for d in days for m in ("sshape", "linear")], fits_csv)
    lines = fits_csv.read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))  # line 4: the second day's S-shape fit
    fits_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["compare", "--fits", str(fits_csv), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {fits_csv}:4: {hint}" in err
    assert "Traceback" not in err


def test_compare_names_file_and_pair_without_shared_dates(tmp_path, capsys):
    fits_csv = tmp_path / "cl.fits.csv"
    write_daily_fits_csv([("2024-02-01", make_fit(m)) for m in ("sshape", "linear")], fits_csv)
    assert main(["compare", "--fits", str(fits_csv), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {fits_csv}: linear vs sshape: need at least 2 shared dates, got 1\n")


@pytest.mark.parametrize("flag, names", [("--fits", ("es.fits.csv", "es.bars.fits.csv")),
                                         ("--bars", ("es.bars.csv", "es.csv"))])
def test_compare_refuses_two_files_of_one_contract(tmp_path, capsys, flag, names):
    fits_csv = tmp_path / "es.fits.csv"
    write_daily_fits_csv([(f"2024-02-0{d}", make_fit(m)) for d in (1, 2) for m in ("sshape", "linear")], fits_csv)
    bars = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                  flow=OUParams(c=0.1, m=5.0, eta=100.0), n_days=2, bars_per_day=20, seed=3).bars
    first, second = tmp_path / "a" / names[0], tmp_path / "b" / names[1]
    for path in (first, second):
        path.parent.mkdir()
        if flag == "--fits":
            shutil.copy(fits_csv, path)
        else:
            write_bars_csv(bars, path)
    given = [str(first), str(second)]
    args = ["--fits", *given] if flag == "--fits" else ["--fits", str(fits_csv), "--bars", *given]
    assert main(["compare", *args, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {first} and {second} are both contract 'es'\n"
    assert not any((tmp_path / "out").iterdir())


def test_fit_has_no_solver_keys(tmp_path, capsys):
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0), n_days=1, bars_per_day=20, seed=1)
    panel.write_csv(tmp_path / "nk.csv")
    for key in ("max_iter", "rss_rtol", "grad_atol", "margin_floor"):
        cfg = write_config(tmp_path, {key: 100})
        assert main(["fit", str(tmp_path / "nk.csv"), "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {key}: unknown config key for fit\n"


def test_compare_missing_file(tmp_path, capsys):
    assert main(["compare", "--fits", str(tmp_path / "nope.fits.csv"),
                 "--out-dir", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# settings echo: each .meta.json holds the command's options, inputs and that output's extras

ECHOES = {  # meta file, inputs, extras
    "ingest": ("bars/golden_ticks.bars.meta.json", {"files"}, {"input"}),
    "fit": ("fits/golden_ticks.bars.fits.meta.json", {"files"}, {"input"}),
    "curves": ("curves/curve.meta.json", {"fit_json", "date"}, {"param_hats"}),
    "compare": ("reports/ttests.meta.json", {"fits", "bars"}, set()),
}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """ingest, fit, curves and compare on the golden ticks, each with default settings."""
    out = tmp_path_factory.mktemp("echo")
    bars = out / "bars" / "golden_ticks.bars.csv"
    fits = out / "fits" / "golden_ticks.bars.fits.csv"
    for argv in (["ingest", str(DATA / "golden_ticks.csv"), "--out-dir", str(bars.parent)],
                 ["fit", str(bars), "--model", "linear", "--out-dir", str(fits.parent)],
                 ["curves", str(fits.with_suffix(".json")), "--model", "linear", "--out-dir", str(out / "curves")],
                 ["compare", "--fits", str(fits), "--out-dir", str(out / "reports")]):
        assert main(argv) == 0
    return out


@pytest.mark.parametrize("command", list(ECHOES))
def test_meta_echoes_options_inputs_and_extras(pipeline_out, command):
    meta_file, inputs, extras = ECHOES[command]
    meta = json.loads((pipeline_out / meta_file).read_text())
    assert meta["command"] == command
    assert set(meta["config"]) == {key for key, *_ in cli.OPTIONS[command]} | inputs | extras
    assert meta["config"]["out_dir"] == str(pipeline_out / Path(meta_file).parent)
    if command == "compare":
        assert meta["config"]["bars"] is None  # no --bars given


# ---------------------------------------------------------------------------
# no-traceback property: corrupted inputs exit 0 or 1, never with a traceback

FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "-0", "0", "-1", "1e-320", "T", "Q",
                     "2024-02-30 09:01:00", "2024-03-15 24:00:00", "9" * 30, '"', " 1 ", "1,2"]),
    st.text(max_size=6))
# JSON values for config and fit-file corruptions; no size in between, so a
# corrupted count stays small or is rejected, and nothing large is allocated.
FUZZ_VALUES = st.sampled_from([None, True, False, 0, 1, -1, 2.5, 1e308, -1e308, math.nan, math.inf, "",
                               "x", "09:00", "sshape", [], {}, [[1, 2]], [[0.0, -1.0]], ["a"]])


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid input files by name, and for each corruptible one the argv that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    panel = synth_regression_panel(a=1e-6, impact=SShapeParams(1.3e-5, -0.0034, 8.15e-5),
                                   flow=OUParams(c=0.1, m=5.0, eta=100.0),
                                   n_days=2, bars_per_day=12, noise_sd=5e-4, seed=1)
    panel.write_csv(root / "nk.csv")
    write_bars_csv(panel.bars, root / "es.bars.csv")
    write_daily_fits_csv([(f"2024-03-1{d}", make_fit(m)) for d in range(3) for m in ("sshape", "linear")],
                         root / "es.fits.csv")
    configs = {
        "ingest": {"session_start": "09:00", "session_end": "09:05", "bar_seconds": 60, "tick_size": 0.01},
        "fit": {"model": "all", "pooled": True, "grid": [[-3e-3, 8e-5]]},
        "simulate": SIM_CONFIG,
        "panel": {"mode": "panel", "seed": 5, "impact": SIM_CONFIG["impact"],
                  "panel": {"a": 1e-6, "flow": {"c": 0.1, "m": 5.0, "eta": 100.0}, "n_days": 2,
                            "bars_per_day": 20, "noise_sd": 5e-4}},
        "curves": {"model": "sshape", "x_min": -400.0, "x_max": 400.0, "n_points": 51},
        "compare": {},
    }
    for command, cfg in configs.items():
        write_config(root, cfg, f"{command}.json")
    shutil.copy(DATA / "golden_ticks.csv", root / "es.csv")
    assert main(["fit", str(root / "nk.csv"), "--config", str(root / "fit.json"), "--out-dir", str(root)]) == 0
    shutil.copy(root / "nk.fits.json", root / "es.fits.json")
    files = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}
    argv = {
        "ingest": ["ingest", "es.csv", "--config", "ingest.json"],
        "fit": ["fit", "es.bars.csv", "--config", "fit.json"],
        "simulate": ["simulate", "--config", "simulate.json"],
        "panel": ["simulate", "--config", "panel.json"],
        "curves": ["curves", "es.fits.json", "--config", "curves.json"],
        "compare": ["compare", "--fits", "es.fits.csv", "--bars", "es.bars.csv", "--config", "compare.json"],
    }
    targets = {"es.csv": argv["ingest"], "es.bars.csv": argv["fit"], "es.fits.csv": argv["compare"],
               "es.fits.json": argv["curves"], "nk.csv": ["fit", "nk.csv", "--config", "fit.json"],
               **{f"{command}.json": args for command, args in argv.items()}}
    return files, targets


def _corrupt_bytes(data, raw: bytes) -> bytes:
    at = data.draw(st.integers(0, len(raw)))
    cut = data.draw(st.integers(0, 3))
    return raw[:at] + data.draw(st.binary(max_size=3)) + raw[at + cut:]


def _corrupt_csv(data, raw: bytes) -> bytes:
    lines = raw.decode("utf-8").split("\n")[:-1]
    how = data.draw(st.sampled_from(["cell", "row", "bytes", "header"]))
    if how == "bytes":
        return _corrupt_bytes(data, raw)
    i = 0 if how == "header" else data.draw(st.integers(1, len(lines) - 1))
    if how == "row":
        op = data.draw(st.sampled_from(["drop", "repeat", "cut", "swap"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "cut":
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])))]
        else:
            j = data.draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    elif how == "header" and data.draw(st.booleans()):
        del lines[0]
    else:
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(FUZZ_CELLS)
        lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _corrupt_json(data, raw: bytes) -> bytes:
    doc = json.loads(raw)
    how = data.draw(st.sampled_from(["value", "key", "bytes", "root"]))
    if how == "bytes":
        return _corrupt_bytes(data, raw)
    if how == "root":
        return json.dumps(data.draw(FUZZ_VALUES)).encode("utf-8")
    nodes = [(None, None, doc)]  # (parent, key, node) of every node, the root first
    for parent, key, node in nodes:
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        nodes.extend((node, k, v) for k, v in items)
    if how == "value" and len(nodes) > 1:
        parent, key, _ = data.draw(st.sampled_from(nodes[1:]))
        parent[key] = data.draw(FUZZ_VALUES)
    else:
        parent = data.draw(st.sampled_from([node for _, _, node in nodes if isinstance(node, dict)]))
        if parent and data.draw(st.booleans()):
            del parent[data.draw(st.sampled_from(sorted(parent)))]
        else:
            value = data.draw(FUZZ_VALUES)
            parent[data.draw(st.sampled_from(["x", "n_steps", "n_days", "grid", "model", "ell"]))] = value
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_corrupted_inputs_exit_cleanly(fuzz_inputs, data):
    """Cells, rows, bytes and headers of tick, bar, panel and fits CSVs, and values,
    keys and bytes of fit JSON and config files: main returns 0 or 1, never
    raises or prints a traceback, and says ``error:`` whenever it returns 1."""
    files, targets = fuzz_inputs
    name = data.draw(st.sampled_from(sorted(targets)))
    corrupt = _corrupt_json if name.endswith(".json") else _corrupt_csv
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file_name, raw in files.items():
            (root / file_name).write_bytes(raw)
        (root / name).write_bytes(corrupt(data, files[name]))
        argv = [str(root / a) if a in files else a for a in targets[name]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main([*argv, "--out-dir", str(root / "out")])
    err = err.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert any(line.startswith("error:") for line in err.splitlines()), err


# ---------------------------------------------------------------------------
# logging environment variable (subprocess: touches global logging state)

QUOTE_ONLY_TICKS = """ts,kind,price,size,bid,ask,bid_size,ask_size
2024-03-15 09:00:30,Q,,,99.98,100.02,50.0,40.0
2024-03-15 09:01:10,Q,,,99.97,100.01,60.0,30.0
"""

SHIM = "import sys; from liqimpact.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli_subprocess(args, level):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]  # this checkout's package first
    env = {**os.environ, "LIQIMPACT_LOG": level, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", SHIM, *args],
                          capture_output=True, text=True, env=env)


def test_log_level_gates_ingest_warning(tmp_path):
    src = tmp_path / "q.csv"
    src.write_text(QUOTE_ONLY_TICKS, encoding="utf-8")

    res = run_cli_subprocess(["ingest", str(src), "--out-dir", str(tmp_path / "w")],
                             "WARNING")
    assert res.returncode == 0
    assert "no in-session trades" in res.stderr

    res = run_cli_subprocess(["ingest", str(src), "--out-dir", str(tmp_path / "e")],
                             "ERROR")
    assert res.returncode == 0
    assert "no in-session trades" not in res.stderr


# ---------------------------------------------------------------------------
# what a fresh interpreter imports (subprocess: sys.modules is process-wide)

IMPORT_PROBE = """
import json, sys
from liqimpact import cli
loaded = ["scipy.signal" in sys.modules]
ticks, out, config = sys.argv[1:]
assert cli.main(["ingest", ticks, "--out-dir", out, "--session-end", "13:00", "--tick-size", "1e-6"]) == 0
assert cli.main(["fit", out + "/es.bars.csv", "--pooled", "--out-dir", out, "--config", config]) == 0
assert cli.main(["compare", "--fits", out + "/es.bars.fits.csv", "--bars", out + "/es.bars.csv",
                 "--out-dir", out]) == 0
loaded.append("scipy.signal" in sys.modules)
from liqimpact.sde import SimConfig, simulate_path
from liqimpact.impact import SShapeParams, StructuralParams
structural = StructuralParams(0.05, 0.2, 0.3, 0.2, 3.0, 80.0, 0.0, 0.0, 0.03, 0.0)
simulate_path(SimConfig(structural, SShapeParams(1.3e-5, -0.0034, 8.15e-5), n_steps=2, dt=0.01, seed=1))
loaded.append("scipy.signal" in sys.modules)
print(json.dumps(loaded))
"""


def test_cli_commands_that_do_not_simulate_never_import_scipy_signal(tmp_path):
    """scipy.signal takes about a second to import; only the simulator's flow
    filter uses it, so import, ingest, fit and compare leave it unloaded, and
    the first path of more than one step loads it."""
    _model_ticks(tmp_path / "es.csv")
    config = write_config(tmp_path, {"grid": [[-3e-3, 8e-5]]})
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "es.csv"), str(tmp_path / "out"),
                          str(config)], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [False, False, True]
