"""Parent versus change: the gain / no-regression rule over two sets of results.

``compare_dirs`` reads the untraced result files that each side's own
``bench/run.py`` wrote, pairs them in start order (the sides alternating which
runs first, one seed per pair) and gives every (metric, workload) pair its
own row:

* ``improved`` -- the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  spread;
* ``worse`` -- the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
* ``unresolved`` -- the parent's own spread is wider than the bound, and not
  every change run beats every parent run; also when there are fewer than ten
  pairs or the pairs did not alternate;
* ``unchanged within bound`` -- otherwise.

``failed_ratio`` (failed over attempted operations) is compared the same way
with lower better and no bound: any higher median is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        ctx = doc.get("context", {})
        if ctx.get("trace") == 0 and doc.get("correct"):
            by_workload.setdefault(ctx["workload"], []).append(doc)
    for docs in by_workload.values():
        docs.sort(key=lambda d: d["context"]["started_at"])
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_better: bool, bound: float | None,
            alternated: bool) -> tuple[str, int]:
    """Row verdict and the change's pair wins, for paired samples of one metric."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    n = len(parent)
    if n < MIN_PAIRS or not alternated:
        return "unresolved", wins
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    better_by = sign * (cm - pm)
    if wins >= WIN_SHARE * n and better_by > p3 - p1:
        return "improved", wins
    if bound is None:
        return ("worse" if better_by < 0 else "unchanged"), wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not every_run_better:
        return "unresolved", wins
    if pm != 0 and -better_by / abs(pm) > bound:
        return "worse", wins
    return "unchanged within bound", wins


def compare_dirs(parent_dir: Path, change_dir: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parent, change = _load(parent_dir), _load(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_docs, c_docs = parent[workload], change[workload]
        n = min(len(p_docs), len(c_docs))
        p_docs, c_docs = p_docs[:n], c_docs[:n]
        firsts = [p["context"]["started_at"] < c["context"]["started_at"] for p, c in zip(p_docs, c_docs)]
        alternated = all(a != b for a, b in zip(firsts, firsts[1:]))
        metrics = [(m["name"], m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]]
        metrics.append(("failed_ratio", False, None))
        for name, higher, bound in metrics:
            if name == "failed_ratio":
                pv = [d["failed"] / d["attempted"] for d in p_docs]
                cv = [d["failed"] / d["attempted"] for d in c_docs]
            else:
                pv = [d["end_to_end"][name] for d in p_docs]
                cv = [d["end_to_end"][name] for d in c_docs]
            v, wins = verdict(pv, cv, higher, bound, alternated)
            rows.append((workload, name, _quartiles(pv), _quartiles(cv), wins, n, v))
        if not alternated:
            print(f"note: {workload} pairs did not alternate which side ran first")
    if not rows:
        print("error: no workload has correct untraced results on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<40} {'change median [q1, q3]':<40}"
          f" {'wins':>7}  verdict")
    for workload, name, (p1, pm, p3), (c1, cm, c3), wins, n, v in rows:
        p_col = f"{pm:.6g} [{p1:.6g}, {p3:.6g}]"
        c_col = f"{cm:.6g} [{c1:.6g}, {c3:.6g}]"
        print(f"{workload:<14} {name:<14} {p_col:<40} {c_col:<40} {wins:>3}/{n:<3}  {v}")
    return 0

