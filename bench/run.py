"""liqimpact benchmark: time the library end to end and per layer on seeded inputs.

Run one workload, or all three one after the other (from the repository root):

    python3 bench/run.py --workload tick_pipeline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics, every time among them
rescaled to reference machine speed (``liqbench/speed.py``); ``--trace 1``
repeats every operation with spans around the library's public functions and
reports the per-layer metrics instead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, machine context included, is also written
to ``bench/results/``.  The exit code is 0 only when every correctness check
passes.

Compare a parent and a change from the result files of alternating runs in
their two checkouts (see ``bench/README.md``):

    python3 bench/run.py --compare PARENT/bench/results CHANGE/bench/results
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from liqbench import layers, machine
from liqbench.tracer import TraceError, Tracer, median
from liqbench.workloads import WORKLOADS, load_library

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"), ("ops_per_s", "1/s"),
              ("stage_p50_ms", "ms"), ("items_per_s", "1/s")]

# The speed probe runs after the import, in the same interpreter, so numpy's
# import still counts as the library's.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
                "import liqimpact.cli; s = time.perf_counter() - t; "
                "from liqbench import speed; p = speed.probe(); print(s * speed.scale(p, p, 'python', 'arrays'))")


def import_seconds(src: Path, repeats: int = 3) -> float:
    """Median time to import the library in a fresh interpreter, at reference speed."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(BENCH_DIR)], capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def check_declared() -> None:
    """The metric names printed must be the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]],
                sorted(w["name"] for w in spec["workloads"]))
    if declared != (END_TO_END, layers.names(), sorted(WORKLOADS)):
        raise SystemExit("error: BENCHMARK.json does not match the metrics and workloads bench/run.py reports")


def run_workload(args) -> int:
    src = ROOT / "src"
    package = src / "liqimpact"
    if not (package / "__init__.py").is_file():
        print(f"error: liqimpact sources not found under {src}", file=sys.stderr)
        return 2
    check_declared()
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    lib = load_library()
    if Path(lib.cli.__file__).resolve().parent != package.resolve():
        print(f"error: imported liqimpact from {lib.cli.__file__}, not {package}", file=sys.stderr)
        return 2

    context = machine.context(package)
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   started_at=time.time())
    tracer = Tracer() if args.trace else None
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        outcome = WORKLOADS[args.workload](lib, args.seed, args.seconds, tracer)
        per_layer = None
        if tracer is not None:
            ops = tracer.ops()
            per_layer = layers.compute(ops, outcome.required)
            per_layer["trace.overhead"] = median(outcome.overhead)
            per_layer["sim_call_p99_us"] = outcome.info.get("sim_call_p99_us", 0.0)
            shares = layers.accounting(ops)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_end"] = machine.loadavg()

    e2e = {"setup_s": import_s + median(outcome.setup), "peak_rss_mb": machine.peak_rss_mb(), **outcome.e2e}
    correct = all(c.ok for c in outcome.checks)

    print(f"liqimpact benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    for c in outcome.checks:
        print(f"check {'PASS' if c.ok else 'FAIL'}: {c.name}" + (f" ({c.detail})" if c.detail else ""))
    print(f"setup_s = {e2e['setup_s']:.4f} s (import {import_s:.4f} s + median of "
          + ", ".join(f"{s:.4f}" for s in outcome.setup) + " s of input generation and warm-up)")
    for name, (value, unit, note) in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
    print(f"failed_ratio = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    print("info " + json.dumps(outcome.info, sort_keys=True, default=float))
    if per_layer is None:
        for name, unit in END_TO_END:
            print(f"metric {name} = {e2e[name]:.6g} {unit}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        print("time share by layer (own code, traced operations): "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.names()}

    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(context['started_at'] * 1000)}"
    doc = {"context": context, "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
           "end_to_end": e2e, "named": {k: {"value": v, "unit": u} for k, (v, u, _) in outcome.named.items()},
           "checks": [vars(c) for c in outcome.checks], "info": outcome.info,
           "setup_repeats_s": outcome.setup, "import_s": import_s, "per_layer": per_layer}
    (results / f"{stem}.json").write_text(json.dumps(doc, sort_keys=True, indent=1, default=float) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        tracer.dump(results / f"{stem}.spans.csv.gz")

    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other; 1 if any of them fails."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, min(subprocess.run(cmd, timeout=900).returncode, 1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="workload to run; all runs each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        help="compare two directories of result files")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.compare:
        from liqbench import ab
        return ab.compare_dirs(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
    if not args.workload:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
