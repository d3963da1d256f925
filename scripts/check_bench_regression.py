#!/usr/bin/env python3
"""Guard bench throughput against the recorded baselines.

Compares fresh google-benchmark JSON dumps (``--benchmark_out`` with
``--benchmark_repetitions=N --benchmark_report_aggregates_only=true``)
against hand-recorded medians in BENCH_*.json baseline files ("after"
column, M items/s).  Fails if any benchmark's median items/s falls more
than ``--tolerance`` below its baseline.

Multiple suites are checked in one invocation by repeating --baseline and
giving one results file per baseline, in the same order:

  check_bench_regression.py --baseline BENCH_a.json \
                            --baseline BENCH_b.json \
                            BENCH_a_ci.json BENCH_b_ci.json

With a single (or default) baseline the original one-positional form is
unchanged.

The baseline host notes document run-to-run CV up to ~12% on the shared
1-core CI container, so CI passes an explicit --tolerance sized for that
noise; the default is the 5% budget the telemetry-off hot path must meet
on a quiet machine.  A baseline entry may carry its own "tolerance" to
pin a number tighter (or looser) than the global budget.
"""

import argparse
import json
import re
import sys


def snake(name: str) -> str:
    """BM_EventsPerSec/64 -> events_per_sec/64 (baseline naming)."""
    base, _, arg = name.partition("/")
    base = re.sub(r"^BM_", "", base)
    base = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", base).lower()
    return base + ("/" + arg if arg else "")


def load_medians(bench_json: dict) -> dict:
    """Median items/s per benchmark from google-benchmark JSON output."""
    out = {}
    for b in bench_json.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b["name"]
        name = re.sub(r"_median$", "", name)
        name = re.sub(r"/real_time$", "", name)
        ips = b.get("items_per_second")
        if ips is None:
            continue
        out[snake(name)] = float(ips)
    return out


def check_suite(baseline_path: str, results_path: str, tolerance: float) -> bool:
    """Checks one baseline/results pair; returns True on failure."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    if not str(baseline.get("schema", "")).startswith("daosim-bench-"):
        print(f"error: {baseline_path} is not a daosim-bench baseline",
              file=sys.stderr)
        return True
    with open(results_path) as f:
        medians = load_medians(json.load(f))
    if not medians:
        print(f"error: no items_per_second medians found in {results_path}",
              file=sys.stderr)
        return True

    failed = False
    missing = []
    print(f"[{baseline_path} vs {results_path}]")
    print(f"{'benchmark':<30} {'baseline':>10} {'measured':>10} {'delta':>8}")
    for entry in baseline["benchmarks"]:
        name = entry["name"]
        want = float(entry["after"]) * 1e6  # baseline unit is M items/s
        tol = float(entry.get("tolerance", tolerance))
        got = medians.get(name)
        if got is None:
            # A baseline entry the current bench binary no longer emits is a
            # coverage gap (a filter changed, a bench was renamed), not a
            # throughput regression: warn loudly, keep the gate green.
            print(f"{name:<30} {'':>10} {'MISSING':>10}")
            missing.append(name)
            continue
        delta = got / want - 1.0
        mark = ""
        if delta < -tol:
            mark = "  << REGRESSION"
            failed = True
        print(f"{name:<30} {want / 1e6:>9.2f}M {got / 1e6:>9.2f}M "
              f"{delta:>+7.1%}{mark}")
    if missing:
        print(f"warning: {len(missing)} baseline entr"
              f"{'y' if len(missing) == 1 else 'ies'} missing from "
              f"{results_path} (not failing the gate): {', '.join(missing)}",
              file=sys.stderr)
    print()
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("results", nargs="+",
                    help="google-benchmark JSON output, one per --baseline")
    ap.add_argument("--baseline", action="append", default=None,
                    help="baseline BENCH_*.json (repeatable, paired with the "
                         "results positionals in order; default "
                         "BENCH_kernel.json)")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional regression (default 0.05)")
    args = ap.parse_args()

    baselines = args.baseline if args.baseline else ["BENCH_kernel.json"]
    if len(baselines) != len(args.results):
        print(f"error: {len(baselines)} baseline(s) but {len(args.results)} "
              "results file(s); they pair up in order", file=sys.stderr)
        return 2

    failed = False
    for baseline_path, results_path in zip(baselines, args.results):
        failed |= check_suite(baseline_path, results_path, args.tolerance)

    if failed:
        print("\nFAIL: throughput regressed below the baseline median "
              "tolerance", file=sys.stderr)
        return 1
    print("OK: all benchmarks within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
