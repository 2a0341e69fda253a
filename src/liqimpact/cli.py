"""Command-line entry point: reproducible batch runs over the library modules.

Subcommands mirror the pipeline: ``ingest`` (ticks to bars), ``simulate``
(paths or synthetic panels), ``fit`` (per-day and pooled model fits),
``curves`` (sampled impact curves from a fit), ``compare`` (cross-model and
cross-contract reports).  Each run reads an optional JSON config file; flags
given on the command line win over config values, and a config key the
command does not read is an error.  Every output file gets a sibling
``.meta.json`` echoing the run's settings, or for ``simulate`` the library's
metadata (schema versioned, no timestamps), so identical inputs produce
byte-identical outputs.  ``fit`` has no solver settings: every S-shape fit
takes ``estimation``'s fixed tolerances.  ``compare`` takes one fits file,
and at most one bars file, per contract.

Every command runs in a single thread: files, days and fit starts are
processed one after another.  ``simulate`` path mode takes the sshape and
linear curve families, panel mode all three.  There is one error path: the
option tables check every value, parameter blocks field by field, and only
:func:`main` prints a failure, as one ``error: ...`` line, and exits 1.

Verbosity comes from the LIQIMPACT_LOG environment variable (DEBUG, INFO,
WARNING, ERROR; default WARNING).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from datetime import time
from pathlib import Path

import numpy as np

from ._common import SCHEMA_VERSION, read_json, write_json, write_table
from .impact import ParameterError, SShapeParams, StructuralParams, curve_class, feasibility_margin
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

MODELS = ("sshape", "linear", "sqrt")


def _setup_logging() -> None:
    level = os.environ.get("LIQIMPACT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> dict:
    """The config file's object, or {} without a file."""
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    cfg = read_json(p)
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object: {p}")
    return cfg


class _KeyedError(ValueError):
    """A rejected input whose message already names its key or block."""


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise _KeyedError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _clock(value: str) -> str:
    """The session clock time as given, once ``time.fromisoformat`` accepts it."""
    time.fromisoformat(value)
    return value


def _grid(value) -> list[tuple[float, float]] | None:
    if value is None:
        return None
    pairs = [tuple(map(_real, pair)) for pair in value]
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


def _count(value) -> int:
    """A JSON integer, not a bool: 2.9 and true are errors, not 2 and 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A finite JSON number, not a bool or a string, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value := float(value)):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _choice(*choices: str):
    def check(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    check.choices = choices
    return check


# How argparse reads the flag of each kind; a flag of another kind keeps its string.
_FLAG_ARGS = {_boolean: {"action": "store_true"}, _count: {"type": int}, _seed: {"type": int},
              _real: {"type": float}}

# One row (config key, default, kind, help, flag or None) per option of a command.
OUT_DIR = ("out_dir", ".", Path, "output directory", "--out-dir")
PANEL = (
    ("a", 0.0, _real, "constant of the return regression", None),
    ("n_days", 1, _count, "days to simulate", None),
    ("bars_per_day", 360, _count, "bars in each day", None),
    ("noise_sd", 0.0, _real, "standard deviation of the return noise", None),
    ("flow", {}, OUParams, "OU flow parameters c, m and eta", None),
)
OPTIONS = {
    "ingest": (
        OUT_DIR,
        ("session_start", "09:00", _clock, "session open clock time", "--session-start"),
        ("session_end", "15:00", _clock, "session close clock time", "--session-end"),
        ("bar_seconds", 60, _count, "bar width in seconds", "--bar-seconds"),
        ("tick_size", 0.01, _real, "price tick for midpoint comparison", "--tick-size"),
    ),
    "simulate": (
        OUT_DIR,
        ("mode", "path", _choice("path", "panel"), "what to generate", "--mode"),
        ("seed", None, _seed, "RNG seed (omitted: drawn and recorded)", "--seed"),
        ("structural", None, StructuralParams, "model primitives (path mode)", None),
        ("impact", None, curve_class, "impact curve parameters and family", None),
        ("n_steps", 390, _count, "path steps", None),
        ("dt", 1.0, _real, "step width", None),
        ("x0", 0.0, _real, "initial flow", None),
        ("s0", 100.0, _real, "initial price", None),
        ("measure", "physical", _choice("physical", "risk-neutral"), "measure of the path", None),
        ("panel", None, PANEL, "synthetic panel settings (panel mode)", None),
    ),
    "fit": (
        OUT_DIR,
        ("model", "all", _choice(*MODELS, "all"), "model to fit", "--model"),
        ("pooled", False, _boolean, "also fit the pooled panel across days", "--pooled"),
        ("grid", None, _grid, "start grid of [p, q] pairs", None),
    ),
    "curves": (
        OUT_DIR,
        ("model", "sshape", _choice(*MODELS), "which model's fit to sample", "--model"),
        ("x_min", -400.0, _real, "left end of the flow range", "--x-min"),
        ("x_max", 400.0, _real, "right end of the flow range", "--x-max"),
        ("n_points", 201, _count, "number of samples", "--n-points"),
    ),
    "compare": (OUT_DIR,),
}


def _resolve(rows, config: dict, command: str, prefix: str = "") -> dict:
    """Each row's kind applied to the config's value, else to its default (a None default stays None).

    The rows may be a parameter dataclass: a finite number per field, required unless it has a default.
    A kind that is a table reads a nested object, and so does a dataclass, built from the numbers as
    given once they pass; for ``curve_class`` the object's ``family`` (default sshape) picks the class.
    An unknown, missing or rejected value raises ValueError naming its key."""
    if is_dataclass(rows):
        rows = tuple((f.name, f.default, _real, "", None) for f in fields(rows))
    for key in config:
        if key not in {row[0] for row in rows}:
            raise _KeyedError(f"{prefix}{key}: unknown config key for {command}")
    values = {}
    for key, default, kind, _help, _flag in rows:
        name, value = prefix + key, config.get(key, default)
        try:
            if key not in config and default is None:
                values[key] = None
            elif value is MISSING:
                raise _KeyedError(f"{name}: missing")
            elif isinstance(kind, tuple):
                values[key] = _resolve(kind, _object(value, name), command, name + ".")
            elif is_dataclass(kind) or kind is curve_class:
                block = dict(_object(value, name))
                cls = curve_class(block.pop("family", "sshape")) if kind is curve_class else kind
                values[key] = cls(**{**_resolve(cls, block, command, name + "."), **block})
            else:
                values[key] = kind(value)
        except _KeyedError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise _KeyedError(f"{name}: {exc}") from None
    return values


def _inputs(paths) -> list[Path]:
    """The paths as Paths; FileNotFoundError names the first that is not a file."""
    files = [Path(p) for p in paths]
    for f in files:
        if not f.is_file():
            raise FileNotFoundError(f"input file not found: {f}")
    return files


def _echo(args) -> dict:
    """The run's settings: each option of the command as resolved and its inputs as given, a Path as a str."""
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in vars(args).items() if key not in ("command", "config", "run")}


def _write_meta(out_file: Path, args, **extra) -> None:
    """out_file's sibling .meta.json, the run's settings and extra: es.bars.csv gets es.bars.meta.json."""
    write_json(out_file.with_name(out_file.name.removesuffix(".csv") + ".meta.json"),
               {"schema_version": SCHEMA_VERSION, "command": args.command, "config": {**_echo(args), **extra}})


def _stem(path: Path) -> str:
    name = path.name
    for suffix in (".csv.gz", ".csv", ".gz", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _contract(path: Path) -> str:
    """Contract name of a fits or bars file: es.bars.fits.csv, es.fits.csv and es.bars.csv give es."""
    return _stem(path).removesuffix(".fits").removesuffix(".bars")


def _by_contract(files: list[Path], flag: str) -> dict[str, Path]:
    """Each file by its contract name; ValueError names two files of one contract."""
    found: dict[str, Path] = {}
    for f in files:
        if (contract := _contract(f)) in found:
            raise ValueError(f"{flag}: {found[contract]} and {f} are both contract {contract!r}")
        found[contract] = f
    return found


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    for f in _inputs(args.files):
        bars = build_bars(read_ticks(f), args.session_start, args.session_end, args.bar_seconds,
                          args.tick_size)
        dest = args.out_dir / f"{_stem(f)}.bars.csv"
        write_bars_csv(bars, dest)
        _write_meta(dest, args, input=str(f))
        unsigned = int(bars.unsigned_count.sum())
        total = int(bars.signed_count.sum()) + unsigned
        pct = 100.0 * unsigned / total if total else 0.0
        print(f"{dest}: {len(bars.days)} day(s), {len(bars)} bars, {total} trades, {pct:.1f}% unsigned")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    for key in ("structural", "impact") if args.mode == "path" else ("panel", "impact"):
        if getattr(args, key) is None:
            raise ValueError(f"config needs a {key!r} object for {args.mode} mode")
    if args.mode == "path":
        path = simulate_path(SimConfig(
            structural=args.structural, impact=args.impact, n_steps=args.n_steps, dt=args.dt,
            x0=args.x0, s0=args.s0, seed=args.seed, measure=args.measure))
        dest = args.out_dir / "path.csv"
        path.write_csv(dest)
        write_json(args.out_dir / "path.meta.json", path.metadata())
        print(f"{dest}: {len(path)} samples, seed {path.seed_used}")
    else:
        panel = synth_regression_panel(impact=args.impact, seed=args.seed, **args.panel)
        dest = args.out_dir / "panel.csv"
        panel.write_csv(dest)
        write_json(args.out_dir / "panel.meta.json", panel.metadata())
        print(f"{dest}: {len(panel.bars)} bars over {len(panel.days)} day(s), seed {panel.truth['rng']['seed']}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _fit_models(panel: RegressionPanel, models: list[str], grid) -> tuple[list[tuple[str, FitResult]], str]:
    """Fit each model on its own: the fits that succeed, and the others' errors as one message."""
    fits = []
    errors = []
    for model in models:
        try:
            fits.append((model, fit_sshape(panel, grid) if model == "sshape" else fit_ols(panel, model)))
        except EstimationError as exc:
            errors.append(f"{model}: {exc}")
    return fits, "; ".join(errors)


def cmd_fit(args) -> int:
    models = list(MODELS) if args.model == "all" else [args.model]
    total_days = 0
    failed_days = 0
    for f in _inputs(args.files):
        table = read_bars_csv(f)
        # Day codes in label order, so the pooled panel lists the days as the day fits do.
        labels = sorted(table.days)
        rank = {day: i for i, day in enumerate(labels)}
        recode = np.array([rank[day] for day in table.days], dtype=np.int64)
        table = replace(table, days=tuple(labels), day=recode[table.day])

        panels = [(day, table.take(table.day == code)) for code, day in enumerate(labels)]
        if args.pooled:
            panels.append(("pooled", table))
        fitted: list[tuple[str, list[tuple[str, FitResult]]]] = []
        failures: dict[str, str] = {}
        for label, bars in panels:
            try:
                fits, errors = _fit_models(RegressionPanel.from_bars(bars), models, args.grid)
            except EstimationError as exc:
                fits, errors = [], str(exc)
            if errors:
                failures[label] = errors
            fitted.append((label, fits))

        pooled_block = {model: fit_result_to_dict(fr) for model, fr in fitted.pop()[1]} if args.pooled else {}
        json_days = {day: {model: fit_result_to_dict(fr) for model, fr in fits} for day, fits in fitted if fits}
        total_days += len(fitted)
        failed_days += len(fitted) - len(json_days)

        stem = _stem(f)
        csv_dest = args.out_dir / f"{stem}.fits.csv"
        write_daily_fits_csv([(day, fr) for day, fits in fitted for _, fr in fits], csv_dest)
        _write_meta(csv_dest, args, input=str(f))
        write_json(args.out_dir / f"{stem}.fits.json", {
            "schema_version": SCHEMA_VERSION,
            "config": {**_echo(args), "input": str(f)},
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
    if args.n_points < 2 or not args.x_max > args.x_min:
        raise ValueError("need n_points >= 2 and x_max > x_min")
    if not math.isfinite(args.x_max - args.x_min):
        raise ValueError(f"x_min, x_max: the range from {args.x_min} to {args.x_max} is wider than a float")

    (fit_path,) = _inputs([args.fit_json])
    hats = _select_fit(read_json(fit_path), args.model, args.date)
    cls = curve_class(args.model)
    curve = cls(**_resolve(cls, hats, "curves", "param_hats."))
    if isinstance(curve, SShapeParams) and not feasibility_margin(curve) > 0:
        raise ParameterError("fit parameters are infeasible; curve undefined on the real line")
    try:
        xs = np.linspace(args.x_min, args.x_max, args.n_points)
    except (ValueError, IndexError, MemoryError) as exc:  # numpy's limits on the size, or the allocation
        raise ParameterError(f"n_points: {args.n_points} points do not fit in memory ({exc})") from None
    f_bps = 1e4 * _impact_f(curve, xs)

    dest = args.out_dir / "curve.csv"
    write_table(dest, ["x", "f_bps"], zip(xs.tolist(), f_bps.tolist()))
    _write_meta(dest, args, param_hats=hats)
    print(f"{dest}: {args.n_points} points over [{args.x_min}, {args.x_max}]")
    return 0


def _select_fit(doc, model: str, date: str | None) -> dict:
    """The param_hats object of the model's fit in a fits.json (or bare FitResult) document."""
    fit = _object(doc, "fit JSON")
    if "param_hats" not in fit:
        days = _object(fit.get("days", {}), "fit JSON days")
        where = "pooled" if date is None else f"days.{date}"
        fits = _object(fit.get("pooled", {}) if date is None else days.get(date, {}), f"fit JSON {where}")
        if date is None and model not in fits and len(days) == 1:
            ((day, fits),) = days.items()
            where, fits = f"days.{day}", _object(fits, f"fit JSON days.{day}")
        if model not in fits:
            raise ValueError("fit JSON has no pooled fit for this model; pass --date" if date is None
                             else f"no {model} fit for date {date!r} in fit JSON")
        fit = _object(fits[model], f"fit JSON {where}.{model}")
    elif fit.get("model") != model:
        raise ValueError(f"fit JSON holds model {fit.get('model')!r}, not {model!r}")
    return _object(fit.get("param_hats"), "param_hats")


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    fit_files = _by_contract(_inputs(args.fits), "--fits")

    ttest_rows = []
    desc_rows = []
    depth_reports = []
    report: dict = {"schema_version": SCHEMA_VERSION, "contracts": {}}

    bars_files = _by_contract(_inputs(args.bars or []), "--bars")
    bars_by_contract = {contract: read_bars_csv(f) for contract, f in bars_files.items()}

    for contract, f in fit_files.items():
        rows = read_daily_fits_csv(f)
        models_present = sorted({r["model"] for r in rows})
        series = {m: DailyMetricSeries.from_fit_rows(contract, m, rows) for m in models_present}
        block: dict = {"models": models_present, "t_tests": [], "descriptives": {},
                       "excluded": {m: series[m].n_excluded for m in models_present}}

        for i, ma in enumerate(models_present):
            for mb in models_present[i + 1:]:
                for metric in METRICS:
                    try:
                        res = paired_t_test(series[ma], series[mb], metric)
                    except ValueError as exc:
                        raise ValueError(f"{f}: {ma} vs {mb}: {exc}") from None
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

    t_dest = args.out_dir / "ttests.csv"
    write_ttest_csv(ttest_rows, t_dest)
    d_dest = args.out_dir / "descriptives.csv"
    write_descriptives_csv(desc_rows, d_dest)
    dep_dest = args.out_dir / "depth.csv"
    write_depth_csv(depth_reports, dep_dest)
    write_json(args.out_dir / "report.json", report)
    for dest in (t_dest, d_dest, dep_dest):
        _write_meta(dest, args)
    print(f"{args.out_dir}: ttests.csv ({len(ttest_rows)} rows), descriptives.csv ({len(desc_rows)} rows), "
          f"depth.csv ({len(depth_reports)} contract(s)), report.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liqimpact", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, default, kind, help, flag in OPTIONS[name]:
            if flag:
                p.add_argument(flag, dest=key, default=None,
                               **_FLAG_ARGS.get(kind, {"choices": getattr(kind, "choices", None)}),
                               help=help if default is None else f"{help} (default {default})")
        return p

    command("ingest", cmd_ingest, "parse tick CSVs into minute bars").add_argument(
        "files", nargs="+", help="tick CSV files (plain or gzip)")
    command("simulate", cmd_simulate, "simulate a price/flow path or synthetic panel")
    command("fit", cmd_fit, "fit impact models to bar/panel CSVs per day").add_argument(
        "files", nargs="+", help="bar CSVs or day,bar,x,r panel CSVs")
    p_cur = command("curves", cmd_curves, "sample a fitted impact curve to CSV")
    p_cur.add_argument("fit_json", help="fits.json from the fit command (or a bare fit object)")
    p_cur.add_argument("--date", help="sample a specific day's fit instead of the pooled one")
    p_cmp = command("compare", cmd_compare, "cross-model t tests, descriptives, and depth reports")
    p_cmp.add_argument("--fits", nargs="+", required=True, help="daily fits.csv files, one per contract")
    p_cmp.add_argument("--bars", nargs="*", help="bar CSVs matching the contracts (for depth quote sizes)")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    # The parser is built on every call, so each subcommand runs the cmd_* function bound at that time.
    args = build_parser().parse_args(argv)
    rows = OPTIONS[args.command]
    flags = {key: getattr(args, key) for key, *_, flag in rows if flag and getattr(args, key) is not None}
    try:
        vars(args).update(_resolve(rows, {**_load_config(args.config), **flags}, args.command))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        return args.run(args)
    except (OSError, ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
