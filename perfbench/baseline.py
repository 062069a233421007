#!/usr/bin/env python3
"""Records the benchmark baseline: perfbench/BASELINE.json.

Runs the command of BENCHMARK.json from the repository root, RUNS times per
workload with seeds FIRST..FIRST+RUNS-1 and tracing off, then once per
workload with tracing on. For every end-to-end metric it records the
median, the quartiles (as Python's statistics.quantiles(values, n=4) gives
them) and the spread (interquartile distance over the median) next to the
metric's bound; for the traced run, every per-layer value, which includes
the tracing overhead (traced over untraced ops_per_s).

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out FILE]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# Which end-to-end metric each per-layer metric should move, and on which
# workloads. Self times (self.*) follow their span; the workload.* metrics
# are benchmark overhead and move nothing.
LAYER_MAP = {
    "sim.busy_s": ("ops_per_s", ["sub-storm", "pub-match", "flash-ring"]),
    "sim.events": ("ops_per_s", ["sub-storm", "pub-match", "flash-ring"]),
    "sim.ns_per_event": ("ops_per_s", ["sub-storm", "pub-match", "flash-ring"]),
    "sim.queue_peak": ("peak_rss_mb", ["flash-ring"]),
    "overlay.build_s": ("setup_s", ["flash-ring"]),
    "overlay.msgs.subscription": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "overlay.msgs.publication": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "overlay.msgs.notification": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "overlay.msgs.collect": ("msgs_per_op", ["flash-ring"]),
    "overlay.hops_per_sub": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "overlay.hops_per_pub": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "overlay.mcast_split_ns": ("ops_per_s", ["sub-storm"]),
    "overlay.next_hop_ns": ("ops_per_s", ["pub-match", "flash-ring"]),
    "mapping.keys_per_sub": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "mapping.segments_per_sub": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "mapping.keys_per_pub": ("msgs_per_op", ["sub-storm", "pub-match", "flash-ring"]),
    "mapping.sk_ns": ("ops_per_s", ["sub-storm"]),
    "mapping.ek_ns": ("ops_per_s", ["pub-match"]),
    "store.inserts": ("ops_per_s", ["sub-storm"]),
    "store.insert_ns": ("ops_per_s", ["sub-storm"]),
    "store.purge_ns": ("ops_per_s", ["sub-storm"]),
    "store.dup_ratio": ("ops_per_s", ["sub-storm"]),
    "store.avg_stored": ("max_stored", ["sub-storm"]),
    "match.calls": ("ops_per_s", ["pub-match"]),
    "match.ns_per_call": ("ops_per_s", ["pub-match"]),
    "match.hits_per_call": ("ops_per_s", ["pub-match"]),
    "notify.messages": ("msgs_per_op", ["pub-match"]),
    "notify.batch_mean": ("msgs_per_op", ["pub-match"]),
    "notify.delivered": ("notify_p99_ms", ["flash-ring"]),
    "notify.dup_ratio": ("notify_p99_ms", ["flash-ring"]),
    "rendezvous.splits": ("notify_p99_ms", ["flash-ring"]),
    "rendezvous.merges": ("notify_p99_ms", ["flash-ring"]),
    "rendezvous.load_max_mean": ("notify_p99_ms", ["flash-ring"]),
    "trace.overhead": (None, []),
    "trace.coverage": (None, []),
    "workload.gen_s": (None, []),
    "workload.check_s": (None, []),
}


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(argv)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values, bound):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values),
           "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="perfbench/BASELINE.json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"schema": "cbps-perfbench-baseline/v1", "run_seconds": seconds,
              "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "workloads": {}}
    for name, why in ((w["name"], w["why"]) for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            full, summary = run(bench["command"], name, seed, seconds, 0)
            if not summary["correct"]:
                sys.exit(f"{name} seed {seed}: check failed: {full['check']}")
            runs.append((full, summary))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in summary["metrics"].items()),
                flush=True)
        host = runs[0][0]
        report.update(nproc=host["nproc"], rev=host["rev"])
        e2e = {}
        for metric in bounds:
            values = [s["metrics"][metric]["value"] for _, s in runs]
            e2e[metric] = summarize(values, bounds[metric])
            e2e[metric]["unit"] = runs[0][1]["metrics"][metric]["unit"]
        failed = [f["metrics"]["failed_frac"]["median"] for f, _ in runs]
        samples = [f["metrics"]["notify_samples"]["median"] for f, _ in runs]
        _, traced = run(bench["command"], name, args.first_seed, seconds, 1)
        report["workloads"][name] = {
            "why": why,
            "end_to_end": e2e,
            "failed_frac_max": max(failed),
            "suppressed_max": max(f["check"]["suppressed"] for f, _ in runs),
            "notify_samples_min": min(samples),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.machine())
    report["host"] = {"cpu": cpu, "cpus": os.cpu_count()}
    report["layer_map"] = {
        k: {"moves": m, "on": on} for k, (m, on) in LAYER_MAP.items()}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            if metric != "setup_s" and s.get("spread", 0) > s["bound"]:
                print(f"warning: {name} {metric} spread {s['spread']:.3f} "
                      f"exceeds its bound {s['bound']}", file=sys.stderr)


if __name__ == "__main__":
    main()
