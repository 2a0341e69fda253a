"""Per-layer metrics of a traced run, one value per metric per workload.

Times are per operation: the median over the traced operations of the time
the named spans took in each.  Counts come from the first traced operation,
which the seed fixes, so they repeat exactly on a rerun with the same seed.
A layer the workload does not exercise reads 0; a layer it must exercise and
did not is an error, raised before any value is reported.
"""

from __future__ import annotations

from typing import Callable

from .tracer import OpTrace, TraceError, median

LAYERS = ("cli", "ingest", "estimation", "impact", "sde", "compare", "bench")

Metric = tuple[str, str, Callable[[list[OpTrace]], float]]


def _time(name: str):
    return lambda ops: median(op.total.get(name, 0.0) for op in ops)


def _self(name: str):
    return lambda ops: median(op.self_time.get(name, 0.0) for op in ops)


def _calls(name: str):
    return lambda ops: float(ops[0].calls(name))


def _count(name: str, key: str):
    return lambda ops: float(ops[0].count(name, key))


def _rate(name: str, key: str):
    return lambda ops: median(op.count(name, key) / op.total[name] for op in ops if op.total.get(name))


def _fit_durations(op: OpTrace, pooled: int) -> list[float]:
    return [d for d, c in op.items.get("estimation.fit_sshape", ()) if c and c["pooled"] == pooled]


def _converged_ratio(ops):
    calls = ops[0].calls("estimation.fit_sshape")
    return ops[0].count("estimation.fit_sshape", "converged") / calls if calls else 0.0


def _out_of_session(ops):
    op = ops[0]
    return op.count("ingest.read_ticks", "trades") - op.count("ingest.build_bars", "signed") \
        - op.count("ingest.build_bars", "unsigned")


def _span_p50_us(name: str):
    return lambda ops: median(d for op in ops for d, _ in op.items.get(name, ())) * 1e6


def _paths(op: OpTrace, long: bool) -> list[tuple[float, int]]:
    return [(d, c["steps"]) for d, c in op.items.get("sde.simulate_path", ()) if c and (c["steps"] > 1) == long]


def _long_steps_per_s(ops):
    return median(sum(n for _, n in _paths(op, True)) / sum(d for d, _ in _paths(op, True))
                  for op in ops if _paths(op, True))


def _layer(layer: str):
    return lambda ops: median(op.layer_self(layer) for op in ops)


PER_LAYER: list[Metric] = [
    ("ingest.read_ticks.s", "s", _time("ingest.read_ticks")),
    ("ingest.read_ticks.rows_per_s", "1/s", _rate("ingest.read_ticks", "rows")),
    ("ingest.build_bars.s", "s", _time("ingest.build_bars")),
    ("ingest.build_bars.rows_per_s", "1/s", _rate("ingest.build_bars", "rows_in")),
    ("ingest.write_bars_csv.s", "s", _time("ingest.write_bars_csv")),
    ("ingest.read_bars_csv.s", "s", _time("ingest.read_bars_csv")),
    ("ingest.rows", "count", _count("ingest.read_ticks", "rows")),
    ("ingest.trades_signed", "count", _count("ingest.build_bars", "signed")),
    ("ingest.trades_unsigned", "count", _count("ingest.build_bars", "unsigned")),
    ("ingest.trades_out_of_session", "count", _out_of_session),
    ("ingest.bars", "count", _count("ingest.build_bars", "bars")),
    ("estimation.fit_sshape.calls", "count", _calls("estimation.fit_sshape")),
    ("estimation.fit_sshape.s", "s", _time("estimation.fit_sshape")),
    ("estimation.fit_sshape.day_p50_ms", "ms",
     lambda ops: median(median(_fit_durations(op, 0)) for op in ops) * 1e3),
    ("estimation.fit_sshape.pooled_s", "s", lambda ops: median(sum(_fit_durations(op, 1)) for op in ops)),
    ("estimation.fit_sshape.starts", "count", _count("estimation.fit_sshape", "starts")),
    ("estimation.fit_sshape.converged_ratio", "ratio", _converged_ratio),
    ("estimation.fit_sshape.nonfinite_se", "count", _count("estimation.fit_sshape", "bad_se")),
    ("estimation.fit_ols.s", "s", _time("estimation.fit_ols")),
    ("estimation.from_bars.s", "s", _time("estimation.from_bars")),
    ("estimation.read_daily_fits_csv.s", "s", _time("estimation.read_daily_fits_csv")),
    ("impact.big_phi.calls", "count", _calls("impact.big_phi")),
    ("impact.big_phi.points", "count", _count("impact.big_phi", "points")),
    ("impact.big_phi.s", "s", _time("impact.big_phi")),
    ("impact.phi.points", "count", _count("impact.phi", "points")),
    ("impact.f_sshape.calls", "count", _calls("impact.f_sshape")),
    ("impact.f_sshape.s", "s", _time("impact.f_sshape")),
    ("impact.g_sshape.calls", "count", _calls("impact.g_sshape")),
    ("impact.g_sshape.s", "s", _time("impact.g_sshape")),
    ("impact.feasibility_margin.calls", "count", _calls("impact.feasibility_margin")),
    ("impact.feasibility_margin.s", "s", _time("impact.feasibility_margin")),
    ("sde.simulate_path.calls", "count", _calls("sde.simulate_path")),
    ("sde.simulate_path.s", "s", _time("sde.simulate_path")),
    ("sde.simulate_path.one_step_us_p50", "us",
     lambda ops: median(d for op in ops for d, _ in _paths(op, False)) * 1e6),
    ("sde.simulate_path.long_steps_per_s", "1/s", _long_steps_per_s),
    ("sde.replace_config.us_p50", "us", _span_p50_us("sde.replace_config")),
    ("sde.synth_regression_panel.s", "s", _time("sde.synth_regression_panel")),
    ("sde.synth_regression_panel.bars_per_s", "1/s", _rate("sde.synth_regression_panel", "bars")),
    ("compare.paired_t_test.calls", "count", _calls("compare.paired_t_test")),
    ("compare.paired_t_test.s", "s", _time("compare.paired_t_test")),
    ("compare.descriptives.s", "s", _time("compare.descriptives")),
    ("compare.depth_report.s", "s", _time("compare.depth_report")),
    ("compare.depth_missing_quote_sizes", "count", _count("compare.depth_report", "missing")),
    ("cli.cmd_ingest.s", "s", _time("cli.cmd_ingest")),
    ("cli.cmd_ingest.self_s", "s", _self("cli.cmd_ingest")),
    ("cli.cmd_fit.s", "s", _time("cli.cmd_fit")),
    ("cli.cmd_fit.self_s", "s", _self("cli.cmd_fit")),
    ("cli.cmd_compare.s", "s", _time("cli.cmd_compare")),
    ("cli.cmd_compare.self_s", "s", _self("cli.cmd_compare")),
    *((f"{layer}.self_s", "s", _layer(layer)) for layer in LAYERS),
    ("trace.op_s", "s", lambda ops: median(op.wall for op in ops)),
]

# Filled from the workload outcome rather than from spans.
EXTRA = [("trace.overhead", "ratio"), ("sim_call_p99_us", "us")]


def names() -> list[tuple[str, str]]:
    return [(n, u) for n, u, _ in PER_LAYER] + EXTRA


def compute(ops: list[OpTrace], required: tuple[str, ...]) -> dict[str, float]:
    if not ops:
        raise TraceError("no traced operation ran")
    missing = [name for name in required if any(op.calls(name) == 0 for op in ops)]
    if missing:
        raise TraceError("required layer calls missing from traced operations: " + ", ".join(missing))
    return {name: float(fn(ops)) for name, _, fn in PER_LAYER}


def accounting(ops: list[OpTrace]) -> dict[str, float]:
    """Share of the traced operations' wall time spent in each layer's own code.

    The shares add up to 1: every instant of an operation lies in exactly one
    innermost span, the root span ``bench.op`` standing for the harness itself.
    """
    wall = sum(op.wall for op in ops)
    return {layer: sum(op.layer_self(layer) for op in ops) / wall for layer in LAYERS}

