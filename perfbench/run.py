#!/usr/bin/env python3
"""End-to-end host-cost benchmark of daosim.

Builds perfbench_driver (perfbench/CMakeLists.txt, which compiles the
daosim library from src/) and perfbench_ref, then runs one workload for
about --seconds:

  --trace 0  one driver process per sample, each running the workload once
             (deploy, run, verify, teardown), then timing extra deploys;
             prints the end-to-end metrics as medians over the samples.
  --trace 1  one sample with layer replays, plain samples while time
             remains, then one with an obs::Observer attached; prints the
             per-layer metrics and writes every sample's host-time spans to
             <build dir>/spans/<workload>-<seed>.json.

perfbench_ref, a fixed workload that does not link daosim, runs before the
first sample and after each one. The end-to-end times are given at a fixed
host speed, the one at which perfbench_ref takes REF_S seconds: each
sample's host times are scaled by REF_S over the mean of the two reference
times around it. The per-layer times are not scaled.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every output check passed.

Usage: python3 perfbench/run.py --workload ior_bulk --seed 7 --seconds 30 \
           --trace 0
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ior_bulk", "fdb_kv", "ior_scale")
MIN_SAMPLES = 5
SAMPLE_TIMEOUT_S = 150
REF_S = 0.1  # perfbench_ref seconds at the reference host speed
CATEGORIES = ("client", "net_request", "server_queue", "service", "device",
              "net_response", "other")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the project; returns the driver's and the
    reference's paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: daosim sources (src/) not found under", ROOT)
        sys.exit(3)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return (os.path.join(bdir, "perfbench_driver"),
            os.path.join(bdir, "perfbench_ref"))


def child_env():
    # DAOSIM_TRACE & co. would attach observers inside apps::runSpmd.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("DAOSIM_")}


def reference(ref):
    """Seconds perfbench_ref takes at the host's current speed."""
    p = subprocess.run([ref], capture_output=True, text=True, check=True,
                       timeout=SAMPLE_TIMEOUT_S)
    return float(p.stdout.split()[0])


def sample(driver, workload, seed, *flags):
    """Runs one driver process; returns its JSON record, or None if it
    crashed or printed no record."""
    cmd = [driver, workload, "--seed", str(seed), *flags]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SAMPLE_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        log("perfbench: sample timed out:", " ".join(cmd))
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log("perfbench: sample failed with code", p.returncode, p.stderr)
        return None
    rec = json.loads(lines[-1])
    for err in rec["errors"]:
        log("perfbench: check failed:", err)
    return rec


def describe(rec):
    if rec is None:
        return "  sample crashed"
    w, r = rec["write"], rec["read"]
    scale = (", host time x%.3f" % rec["scale"]) if "scale" in rec else ""
    return ("  seed %d: write %.2f GiB/s p50/p95/p99 %.1f/%.1f/%.1f us, "
            "read %.2f GiB/s p50/p95/p99 %.1f/%.1f/%.1f us, run %.3f s, "
            "wall %.3f s%s, %s" % (
                rec["seed"], w["gibps"], w["p50_us"], w["p95_us"],
                w["p99_us"], r["gibps"], r["p50_us"], r["p95_us"],
                r["p99_us"], rec["run_s"], rec["wall_s"], scale,
                "ok" if rec["ok"] else "FAILED"))


def accounting(records, attempted_per_sample):
    """(correct, attempted, failed) over the samples. A sample whose checks
    failed, or that crashed, counts all of its ops as failed."""
    attempted = failed = 0
    for rec in records:
        attempted += attempted_per_sample
        if rec is None or not rec["ok"]:
            failed += attempted_per_sample
        else:
            failed += rec["attempted_ops"] - rec["completed_ops"]
    correct = all(rec is not None and rec["ok"] for rec in records)
    return correct, attempted, failed


def collect(driver, ref, args, *first_flags):
    """Samples until --seconds is used up, and at least MIN_SAMPLES times;
    the first sample gets first_flags. Each record gets "scale", the factor
    that brings its host times to the reference host speed."""
    deadline = time.monotonic() + args.seconds
    records = []
    flags = first_flags
    before = reference(ref)
    while True:
        t0 = time.monotonic()
        rec = sample(driver, args.workload, args.seed, *flags)
        after = reference(ref)
        if rec is not None:
            rec["scale"] = 2 * REF_S / (before + after)
        before = after
        records.append(rec)
        print(describe(rec), flush=True)
        flags = ()
        took = time.monotonic() - t0
        if len(records) >= MIN_SAMPLES and time.monotonic() + took > deadline:
            return records


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records):
    ok = [r for r in records if r is not None]
    if not ok:
        return {}
    return {
        "wall_s": metric(
            statistics.median(r["wall_s"] * r["scale"] for r in ok), "s"),
        "setup_s": metric(
            statistics.median(s * r["scale"] for r in ok
                              for s in r["deploy_s"]), "s"),
        "sim_ops_per_s": metric(
            statistics.median(r["completed_ops"] / (r["run_s"] * r["scale"])
                              for r in ok), "ops/s"),
        "peak_rss_mb": metric(
            statistics.median(r["rss_kb"]["run"] / 1024 for r in ok), "MB"),
    }


def per_layer(base, traced, plain):
    """Per-layer metrics from the replay sample `base`, the observed sample
    `traced` and the plain samples (base included)."""
    c, rp, rss = base["counters"], base["replay"], base["rss_kb"]
    run_s = statistics.median(r["run_s"] for r in plain)
    run_ns = run_s * 1e9
    total_ops = base["completed_ops"]
    grown_kb = rss["run"] - rss["deploy"]
    vos_ns = (c["extent_writes"] * rp["extent_write_ns"] +
              c["extent_reads"] * rp["extent_read_ns"] +
              c["value_puts"] * rp["value_put_ns"] +
              c["value_gets"] * rp["value_get_ns"])
    m = {
        "sim.events": metric(c["events"], "count"),
        "sim.events_per_s": metric(c["events"] / run_s, "1/s"),
        "hw.messages": metric(c["messages"], "count"),
        "hw.bytes_sent": metric(c["bytes_sent"], "B"),
        "hw.nvme_ops": metric(c["nvme_ops"], "count"),
        "hw.send_ns": metric(rp["send_ns"], "ns"),
        "hw.run_share": metric(c["messages"] * rp["send_ns"] / run_ns,
                               "ratio"),
        "net.rpc_requests": metric(c["rpc_requests"], "count"),
        "net.rpc_failures": metric(c["rpc_failures"], "count"),
        "placement.layouts": metric(base["layouts"], "count"),
        "placement.layout_ns": metric(rp["layout_ns"], "ns"),
        "placement.layout_bytes": metric(rp["layout_bytes"], "B"),
        "placement.run_share": metric(
            base["layouts"] * rp["layout_ns"] / run_ns, "ratio"),
        "vos.extent_writes": metric(c["extent_writes"], "count"),
        "vos.extent_reads": metric(c["extent_reads"], "count"),
        "vos.value_puts": metric(c["value_puts"], "count"),
        "vos.value_gets": metric(c["value_gets"], "count"),
        "vos.extent_write_ns": metric(rp["extent_write_ns"], "ns"),
        "vos.extent_read_ns": metric(rp["extent_read_ns"], "ns"),
        "vos.value_put_ns": metric(rp["value_put_ns"], "ns"),
        "vos.value_get_ns": metric(rp["value_get_ns"], "ns"),
        "vos.bytes_per_record": metric(rp["bytes_per_record"], "B"),
        "vos.run_share": metric(vos_ns / run_ns, "ratio"),
        "daos.xstream_ops": metric(c["xstream_ops"], "count"),
        "daos.xstream_wait_s": metric(c["xstream_wait_ns"] / 1e9, "s"),
        "daos.poolsvc_ops": metric(c["poolsvc_ops"], "count"),
        "daos.poolsvc_wait_s": metric(c["poolsvc_wait_ns"] / 1e9, "s"),
        "apps.deploy_s": metric(base["deploy_s"][0], "s"),
        "apps.run_s": metric(run_s, "s"),
        "apps.verify_s": metric(base["verify_s"], "s"),
        "apps.teardown_s": metric(base["teardown_s"], "s"),
        "apps.deploy_mb": metric((rss["deploy"] - rss["start"]) / 1024, "MB"),
        "apps.kb_per_proc": metric(grown_kb / base["procs"], "kB"),
        "apps.bytes_per_op": metric(grown_kb * 1024 / total_ops, "B"),
        "obs.trace_overhead": metric(traced["run_s"] / run_s - 1, "ratio"),
        "obs.trace_mb": metric(
            (traced["rss_kb"]["run"] - rss["run"]) / 1024, "MB"),
    }
    latency = traced["latency_ns"]
    for cat in CATEGORIES:
        m["obs.share." + cat] = metric(traced["cat_ns"][cat] / latency,
                                       "ratio")
    return m


def write_spans(args, records):
    path = os.path.join(build_dir(), "spans")
    os.makedirs(path, exist_ok=True)
    path = os.path.join(path, "%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump([{"sample": i, "spans": r["spans"] if r else []}
                   for i, r in enumerate(records)], f)
    print("  host-time spans written to", os.path.relpath(path, ROOT))


def main(args):
    driver, ref = build()
    if args.trace:
        plain = collect(driver, ref, args, "--replay")
        traced = sample(driver, args.workload, args.seed, "--observe")
        print(describe(traced), flush=True)
        records = plain + [traced]
    else:
        records = collect(driver, ref, args)
    first = next((r for r in records if r is not None), None)
    attempted = first["attempted_ops"] if first else 1
    correct, attempted, failed = accounting(records, attempted)

    if args.trace:
        if correct:
            shares = sum(traced["cat_ns"].values()) / traced["latency_ns"]
            print("  category shares cover %.6f of op latency" % shares)
            if abs(shares - 1) >= 1e-9:
                correct = False
                failed += traced["attempted_ops"]
        metrics = per_layer(plain[0], traced, plain) if correct else {}
        write_spans(args, records)
    else:
        metrics = end_to_end(records)

    for name, m in metrics.items():
        print("  %-24s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-24s %16.6g %s" % ("op_fail_ratio", failed / attempted,
                                 "ratio"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


if __name__ == "__main__":
    sys.exit(main(parse_args()))
