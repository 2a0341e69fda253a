"""Command-line entry point: reproducible batch runs over the library modules.

Subcommands mirror the pipeline: ``ingest`` (ticks to bars), ``simulate``
(paths or synthetic panels), ``fit`` (per-day and pooled model fits),
``curves`` (sampled impact curves from a fit), ``compare`` (cross-model and
cross-contract reports).  Each run reads an optional JSON config file; flags
given on the command line win over config values, and a config key the
command does not read is an error.  Every output file gets a
sibling ``.meta.json`` echoing the effective configuration (schema versioned,
no timestamps), so identical inputs produce byte-identical outputs.

Every command runs in a single thread: files, days and fit starts are
processed one after another.  ``simulate`` reads its curve with
:func:`liqimpact.impact.curve_from_dict`; path mode takes the sshape and
linear families, panel mode all three.

Verbosity comes from the LIQIMPACT_LOG environment variable (DEBUG, INFO,
WARNING, ERROR; default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from datetime import time
from pathlib import Path

import numpy as np

from ._common import SCHEMA_VERSION, write_json, write_table
from .impact import ParameterError, SShapeParams, StructuralParams, curve_from_dict, feasibility_margin
from .ingest import build_bars, read_bars_csv, read_ticks, write_bars_csv
from .sde import OUParams, SimConfig, SimulationError, _impact_f, simulate_path, synth_regression_panel
from .estimation import (
    EstimationError,
    FitResult,
    RegressionPanel,
    fit_ols,
    fit_result_to_dict,
    fit_sshape,
    read_daily_fits_csv,
    write_daily_fits_csv,
)
from .compare import (
    DailyMetricSeries,
    METRICS,
    depth_report,
    descriptives,
    paired_t_test,
    write_depth_csv,
    write_descriptives_csv,
    write_ttest_csv,
)

logger = logging.getLogger(__name__)

MODELS = ("sshape", "linear", "sqrt")
FIT_OPTIONS = {"max_iter": int, "rss_rtol": float, "grad_atol": float, "margin_floor": float}
# Every config key each command reads; any other key is an error, not a silent no-op.
FIT_KEYS = ("out_dir", "model", "pooled", "grid", *FIT_OPTIONS)
INGEST_KEYS = ("out_dir", "session_start", "session_end", "bar_seconds", "tick_size")
SIMULATE_KEYS = ("out_dir", "mode", "seed", "structural", "impact", "n_steps", "dt", "x0", "s0", "measure",
                 "panel")
CURVES_KEYS = ("out_dir", "model", "x_min", "x_max", "n_points")
COMPARE_KEYS = ("out_dir",)


def _setup_logging() -> None:
    level = os.environ.get("LIQIMPACT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None, command: str, keys: tuple[str, ...]) -> dict:
    """The config file's object; a key outside ``command``'s ``keys`` raises ValueError."""
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    with p.open(encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object: {p}")
    for key in cfg:
        if key not in keys:
            raise ValueError(f"{key}: unknown config key for {command}")
    return cfg


def _pick(flag_value, config: dict, key: str, default, kind=None):
    """Flag wins over config wins over default; flags parse with default None.

    ``kind`` converts the value; a value it rejects raises ValueError naming ``key``.
    """
    value = flag_value if flag_value is not None else config.get(key, default)
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _clock(value: str) -> str:
    """The session clock time as given, once ``time.fromisoformat`` accepts it."""
    time.fromisoformat(value)
    return value


def _grid(value) -> list[tuple[float, float]] | None:
    if value is None:
        return None
    pairs = [tuple(map(float, pair)) for pair in value]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected a list of [p, q] pairs")
    return pairs


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _seed(value) -> int | None:
    """A seed as given: None (one is drawn) or a non-negative int, not a bool."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _choice(*choices: str):
    def check(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return check


def _inputs(paths) -> list[Path]:
    """The paths as Paths; FileNotFoundError names the first that is not a file."""
    files = [Path(p) for p in paths]
    for f in files:
        if not f.is_file():
            raise FileNotFoundError(f"input file not found: {f}")
    return files


def _meta_path(out_file: Path) -> Path:
    name = out_file.name
    if name.endswith(".csv"):
        name = name[: -len(".csv")]
    return out_file.with_name(name + ".meta.json")


def _write_meta(out_file: Path, command: str, effective: dict) -> None:
    write_json(_meta_path(out_file), {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": effective,
    })


def _out_dir(args, config: dict) -> Path:
    d = _pick(args.out_dir, config, "out_dir", ".", Path)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _stem(path: Path) -> str:
    name = path.name
    for suffix in (".csv.gz", ".csv", ".gz", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _contract(path: Path) -> str:
    """Contract name of a fits or bars file: es.bars.fits.csv, es.fits.csv and es.bars.csv give es."""
    return _stem(path).removesuffix(".fits").removesuffix(".bars")


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    config = _load_config(args.config, "ingest", INGEST_KEYS)
    session_start = _pick(args.session_start, config, "session_start", "09:00", _clock)
    session_end = _pick(args.session_end, config, "session_end", "15:00", _clock)
    bar_seconds = _pick(args.bar_seconds, config, "bar_seconds", 60, int)
    tick_size = _pick(args.tick_size, config, "tick_size", 0.01, float)
    out_dir = _out_dir(args, config)
    files = _inputs(args.files)
    effective = {
        "session_start": session_start, "session_end": session_end,
        "bar_seconds": bar_seconds, "tick_size": tick_size,
        "out_dir": str(out_dir), "inputs": [str(f) for f in files],
    }

    for f in files:
        bars = build_bars(read_ticks(f), session_start, session_end, bar_seconds, tick_size)
        dest = out_dir / f"{_stem(f)}.bars.csv"
        write_bars_csv(bars, dest)
        _write_meta(dest, "ingest", {**effective, "input": str(f)})
        unsigned = int(bars.unsigned_count.sum())
        total = int(bars.signed_count.sum()) + unsigned
        pct = 100.0 * unsigned / total if total else 0.0
        print(f"{dest}: {len(bars.days)} day(s), {len(bars)} bars, {total} trades, {pct:.1f}% unsigned")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _structural_from(config: dict) -> StructuralParams:
    block = config.get("structural")
    if not isinstance(block, dict):
        raise ValueError("config needs a 'structural' object")
    return StructuralParams(**block)


def cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate", SIMULATE_KEYS)
    out_dir = _out_dir(args, config)
    mode = _pick(args.mode, config, "mode", "path", _choice("path", "panel"))
    seed = _pick(args.seed, config, "seed", None, _seed)
    try:
        if mode == "path":
            sim_cfg = SimConfig(
                structural=_structural_from(config),
                impact=curve_from_dict(config.get("impact") or {}),
                n_steps=_pick(None, config, "n_steps", 390, int),
                dt=_pick(None, config, "dt", 1.0, float),
                x0=_pick(None, config, "x0", 0.0, float),
                s0=_pick(None, config, "s0", 100.0, float),
                seed=seed,
                measure=config.get("measure", "physical"),
            )
            path = simulate_path(sim_cfg)
            dest = out_dir / "path.csv"
            path.write_csv(dest)
            write_json(out_dir / "path.meta.json", path.metadata())
            print(f"{dest}: {len(path)} samples, seed {path.seed_used}")
        else:
            block = config.get("panel")
            if not isinstance(block, dict):
                raise ValueError("config needs a 'panel' object for panel mode")
            flow = OUParams(**block.get("flow", {}))
            if seed is None:
                seed = int(np.random.SeedSequence().entropy)
            panel = synth_regression_panel(
                a=_pick(None, block, "a", 0.0, float),
                impact=curve_from_dict(config.get("impact") or {}),
                flow=flow,
                n_days=_pick(None, block, "n_days", 1, int),
                bars_per_day=_pick(None, block, "bars_per_day", 360, int),
                noise_sd=_pick(None, block, "noise_sd", 0.0, float),
                seed=seed,
            )
            dest = out_dir / "panel.csv"
            panel.write_csv(dest)
            write_json(out_dir / "panel.meta.json", panel.metadata())
            print(f"{dest}: {len(panel.bars)} bars over {len(panel.days)} day(s), seed {seed}")
    except (ParameterError, ValueError, TypeError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a float power such as sigma_s ** 2
        print(f"error: parameters overflow the float range: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# fit


def _fit_models(panel: RegressionPanel, models: list[str], grid, fit_kwargs: dict
                ) -> tuple[list[tuple[str, FitResult]], str]:
    """Fit each model on its own: the fits that succeed, and the others' errors as one message."""
    fits = []
    errors = []
    for model in models:
        try:
            fits.append((model, fit_sshape(panel, grid, **fit_kwargs) if model == "sshape"
                                else fit_ols(panel, model)))
        except EstimationError as exc:
            errors.append(f"{model}: {exc}")
    return fits, "; ".join(errors)


def cmd_fit(args) -> int:
    config = _load_config(args.config, "fit", FIT_KEYS)
    out_dir = _out_dir(args, config)
    model_flag = _pick(args.model, config, "model", "all", _choice(*MODELS, "all"))
    models = list(MODELS) if model_flag == "all" else [model_flag]
    pooled = _pick(args.pooled, config, "pooled", False, _boolean)
    grid = _pick(None, config, "grid", None, _grid)
    fit_kwargs = {k: _pick(None, config, k, None, kind) for k, kind in FIT_OPTIONS.items() if k in config}
    files = _inputs(args.files)
    effective = {
        "model": model_flag, "pooled": pooled,
        "grid": grid, "fit_options": fit_kwargs,
        "out_dir": str(out_dir), "inputs": [str(f) for f in files],
    }

    total_days = 0
    failed_days = 0
    for f in files:
        table = read_bars_csv(f)
        # Day codes in label order, so the pooled panel lists the days as the day fits do.
        labels = sorted(table.days)
        rank = {day: i for i, day in enumerate(labels)}
        recode = np.array([rank[day] for day in table.days], dtype=np.int64)
        table = replace(table, days=tuple(labels), day=recode[table.day])

        panels = [(day, table.take(table.day == code)) for code, day in enumerate(labels)]
        if pooled:
            panels.append(("pooled", table))
        fitted: list[tuple[str, list[tuple[str, FitResult]]]] = []
        failures: dict[str, str] = {}
        for label, bars in panels:
            try:
                fits, errors = _fit_models(RegressionPanel.from_bars(bars), models, grid, fit_kwargs)
            except EstimationError as exc:
                fits, errors = [], str(exc)
            if errors:
                failures[label] = errors
            fitted.append((label, fits))

        pooled_block = {model: fit_result_to_dict(fr) for model, fr in fitted.pop()[1]} if pooled else {}
        json_days = {day: {model: fit_result_to_dict(fr) for model, fr in fits} for day, fits in fitted if fits}
        total_days += len(fitted)
        failed_days += len(fitted) - len(json_days)

        stem = _stem(f)
        csv_dest = out_dir / f"{stem}.fits.csv"
        write_daily_fits_csv([(day, fr) for day, fits in fitted for _, fr in fits], csv_dest)
        _write_meta(csv_dest, "fit", {**effective, "input": str(f)})
        write_json(out_dir / f"{stem}.fits.json", {
            "schema_version": SCHEMA_VERSION,
            "config": {**effective, "input": str(f)},
            "days": json_days,
            "pooled": pooled_block,
            "failures": failures,
        })
        print(f"{csv_dest}: {len(json_days)}/{len(labels)} day(s) fit, models {'+'.join(models)}"
              + (f", {len(failures)} failure(s)" if failures else ""))
        for day, msg in sorted(failures.items()):
            print(f"  failed {day}: {msg}")

    if total_days > 0 and failed_days == total_days:
        print("error: all days failed to fit", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args) -> int:
    config = _load_config(args.config, "curves", CURVES_KEYS)
    out_dir = _out_dir(args, config)
    model = _pick(args.model, config, "model", "sshape", _choice(*MODELS, "all"))
    if model == "all":
        print("error: curves needs a single --model", file=sys.stderr)
        return 1
    x_min = _pick(args.x_min, config, "x_min", -400.0, float)
    x_max = _pick(args.x_max, config, "x_max", 400.0, float)
    n_points = _pick(args.n_points, config, "n_points", 201, int)
    if n_points < 2 or not x_max > x_min:
        print("error: need n_points >= 2 and x_max > x_min", file=sys.stderr)
        return 1

    (fit_path,) = _inputs([args.fit_json])
    doc = json.loads(fit_path.read_text(encoding="utf-8"))
    try:
        fit_dict = _select_fit(doc, model, args.date)
        curve = curve_from_dict({**fit_dict["param_hats"], "family": model})
        if isinstance(curve, SShapeParams) and not feasibility_margin(curve) > 0:
            raise ParameterError("fit parameters are infeasible; curve undefined on the real line")
        xs = np.linspace(x_min, x_max, n_points)
        f_bps = 1e4 * _impact_f(curve, xs)
    except (ParameterError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    dest = out_dir / "curve.csv"
    write_table(dest, ["x", "f_bps"], zip(xs.tolist(), f_bps.tolist()))
    _write_meta(dest, "curves", {
        "fit_json": str(fit_path), "model": model, "date": args.date,
        "x_min": x_min, "x_max": x_max, "n_points": n_points,
        "param_hats": fit_dict["param_hats"],
    })
    print(f"{dest}: {n_points} points over [{x_min}, {x_max}]")
    return 0


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _select_fit(doc, model: str, date: str | None) -> dict:
    """Find the fit block for the model in a fits.json (or bare FitResult) document."""
    doc = _object(doc, "fit JSON")
    if "param_hats" in doc:
        if doc.get("model") != model:
            raise ValueError(f"fit JSON holds model {doc.get('model')!r}, not {model!r}")
        return doc
    days = _object(doc.get("days", {}), "fit JSON days")
    if date is not None:
        if date not in days or model not in days[date]:
            raise ValueError(f"no {model} fit for date {date!r} in fit JSON")
        return days[date][model]
    pooled = doc.get("pooled", {})
    if model in pooled:
        return pooled[model]
    if len(days) == 1:
        (only,) = days.values()
        if model in only:
            return only[model]
    raise ValueError("fit JSON has no pooled fit for this model; pass --date")


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    config = _load_config(args.config, "compare", COMPARE_KEYS)
    out_dir = _out_dir(args, config)
    fit_files = _inputs(args.fits)
    bar_files = _inputs(args.bars or [])

    ttest_rows = []
    desc_rows = []
    depth_reports = []
    report: dict = {"schema_version": SCHEMA_VERSION, "contracts": {}}

    bars_by_contract = {_contract(f): read_bars_csv(f) for f in bar_files}

    for f in fit_files:
        contract = _contract(f)
        rows = read_daily_fits_csv(f)
        models_present = sorted({r["model"] for r in rows})
        series = {m: DailyMetricSeries.from_fit_rows(contract, m, rows) for m in models_present}
        block: dict = {"models": models_present, "t_tests": [], "descriptives": {},
                       "excluded": {m: series[m].n_excluded for m in models_present}}

        for i, ma in enumerate(models_present):
            for mb in models_present[i + 1:]:
                for metric in METRICS:
                    res = paired_t_test(series[ma], series[mb], metric)
                    ttest_rows.append((contract, ma, mb, res))
                    block["t_tests"].append({"model_a": ma, "model_b": mb, **asdict(res)})

        sshape_rows = [r for r in rows if r["model"] == "sshape" and r["converged"]]
        if sshape_rows:
            for label, key in (("ell", "ell"), ("p", "p"), ("q", "q"), ("a", "a_hat"), ("adj_r2", "adj_r2")):
                vals = [r[key] for r in sshape_rows if r[key] is not None]
                if vals:
                    d = descriptives(vals)
                    desc_rows.append((contract, label, d))
                    block["descriptives"][label] = {
                        "n": d.n, "mean": d.mean, "sd": d.sd,
                        "percentiles": {str(k): v for k, v in d.percentiles.items()},
                    }
            curves = {r["date"]: SShapeParams(r["ell"], r["p"], r["q"]) if r["converged"] else None
                      for r in rows if r["model"] == "sshape"}
            rep = depth_report(curves, bars_by_contract.get(contract), contract=contract)
            depth_reports.append(rep)
            block["depth"] = {
                "daily_inflection": rep.daily_inflection,
                "n_included": rep.n_included, "n_excluded": rep.n_excluded,
            }
        report["contracts"][contract] = block

    t_dest = out_dir / "ttests.csv"
    write_ttest_csv(ttest_rows, t_dest)
    d_dest = out_dir / "descriptives.csv"
    write_descriptives_csv(desc_rows, d_dest)
    dep_dest = out_dir / "depth.csv"
    write_depth_csv(depth_reports, dep_dest)
    write_json(out_dir / "report.json", report)
    effective = {"fits": [str(f) for f in fit_files], "bars": [str(f) for f in bar_files],
                 "out_dir": str(out_dir)}
    for dest in (t_dest, d_dest, dep_dest):
        _write_meta(dest, "compare", effective)
    print(f"{out_dir}: ttests.csv ({len(ttest_rows)} rows), descriptives.csv ({len(desc_rows)} rows), "
          f"depth.csv ({len(depth_reports)} contract(s)), report.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liqimpact", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", help="output directory (default: current directory)")

    p_ing = sub.add_parser("ingest", help="parse tick CSVs into minute bars")
    p_ing.set_defaults(run=cmd_ingest)
    common(p_ing)
    p_ing.add_argument("files", nargs="+", help="tick CSV files (plain or gzip)")
    p_ing.add_argument("--session-start", help="session open clock time (default 09:00)")
    p_ing.add_argument("--session-end", help="session close clock time (default 15:00)")
    p_ing.add_argument("--bar-seconds", type=int, help="bar width in seconds (default 60)")
    p_ing.add_argument("--tick-size", type=float, help="price tick for midpoint comparison (default 0.01)")

    p_sim = sub.add_parser("simulate", help="simulate a price/flow path or synthetic panel")
    p_sim.set_defaults(run=cmd_simulate)
    common(p_sim)
    p_sim.add_argument("--mode", choices=["path", "panel"], help="what to generate (default path)")
    p_sim.add_argument("--seed", type=int, help="RNG seed (omitted: drawn and recorded)")

    p_fit = sub.add_parser("fit", help="fit impact models to bar/panel CSVs per day")
    p_fit.set_defaults(run=cmd_fit)
    common(p_fit)
    p_fit.add_argument("files", nargs="+", help="bar CSVs or day,bar,x,r panel CSVs")
    p_fit.add_argument("--model", choices=[*MODELS, "all"], help="model to fit (default all)")
    p_fit.add_argument("--pooled", action="store_true", default=None,
                       help="also fit the pooled panel across days")

    p_cur = sub.add_parser("curves", help="sample a fitted impact curve to CSV")
    p_cur.set_defaults(run=cmd_curves)
    common(p_cur)
    p_cur.add_argument("fit_json", help="fits.json from the fit command (or a bare fit object)")
    p_cur.add_argument("--model", choices=list(MODELS), help="which model's fit to sample (default sshape)")
    p_cur.add_argument("--date", help="sample a specific day's fit instead of the pooled one")
    p_cur.add_argument("--x-min", type=float, help="left end of the flow range (default -400)")
    p_cur.add_argument("--x-max", type=float, help="right end of the flow range (default 400)")
    p_cur.add_argument("--n-points", type=int, help="number of samples (default 201)")

    p_cmp = sub.add_parser("compare", help="cross-model t tests, descriptives, and depth reports")
    p_cmp.set_defaults(run=cmd_compare)
    common(p_cmp)
    p_cmp.add_argument("--fits", nargs="+", required=True, help="daily fits.csv files, one per contract")
    p_cmp.add_argument("--bars", nargs="*", help="bar CSVs matching the contracts (for depth quote sizes)")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    # The parser is built on every call, so each subcommand runs the cmd_* function bound at that time.
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
