#!/usr/bin/env python3
"""Steadiness report: run each workload on several seeds and summarise.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads venue_mix,...]
                                    [--seconds S] [--traced-seeds 2]
                                    [--out perfbench/steadiness.json]

End-to-end set: runs `perfbench/run.py --trace 0` once per seed (seeds
first-seed .. first-seed + runs - 1) and prints, for every end-to-end
metric, the median, the first and third quartile (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. --runs 0 skips it.

Traced repeats: runs `--trace 1` twice on each of the first --traced-seeds
seeds and checks that every count metric (unit "count") reads the same both
times. It also keeps both reads of trace.model_gap_pct and
trace.overhead_pct. --traced-seeds 0 skips it.

With --out, the results are appended to that file, which keeps the format
{"host", "run_seconds", "sets": [...], "traced": [...]}; each set and each
traced entry also carries the host line the benchmark printed. Run from the
repository root. Exits non-zero when a run fails or a count does not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         + done.stdout)
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")),
                "unknown")
    return host, result["metrics"]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def e2e_set(workloads, first_seed, runs, seconds, bounds):
    report = {}
    host = "unknown"
    for workload in workloads:
        rows = []
        for i in range(runs):
            host, metrics = run_once(workload, first_seed + i, seconds, 0)
            rows.append({k: v["value"] for k, v in metrics.items()})
        report[workload] = {
            name: summarise([r[name] for r in rows]) for name in rows[0]}
        print(f"{workload} ({runs} seeds from {first_seed})")
        for name, s in report[workload].items():
            bound = bounds.get(name, 0.0)
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else \
                "  <-- spread above a third of the bound"
            print(f"  {name:12s} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  "
                  f"spread {100 * s['spread']:6.2f}%  "
                  f"bound {100 * bound:5.1f}%{flag}")
        sys.stdout.flush()
    return {"host": host, "first_seed": first_seed, "runs": runs,
            "seconds": seconds, "workloads": report}


def traced_repeats(workloads, first_seed, seeds, seconds):
    entries = []
    for workload in workloads:
        for seed in range(first_seed, first_seed + seeds):
            reads = []
            tracing = []
            for _ in range(2):
                host, metrics = run_once(workload, seed, seconds, 1)
                reads.append({k: v["value"] for k, v in metrics.items()
                              if v["unit"] == "count"})
                tracing.append({k: v["value"] for k, v in metrics.items()
                                if k.startswith("trace.")})
            differing = sorted(k for k in reads[0]
                               if reads[0][k] != reads[1].get(k))
            entries.append({"host": host, "workload": workload,
                            "seed": seed, "repeats": 2,
                            "identical": not differing,
                            "differing": differing, "counts": reads[0],
                            "trace": tracing})
            print(f"{workload} seed {seed}: {len(reads[0])} counts "
                  + ("repeat exactly" if not differing
                     else "DIFFER: " + ", ".join(differing)))
            sys.stdout.flush()
    return entries


def main():
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced-seeds", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    report = {"host": "unknown", "run_seconds": spec["run_seconds"],
              "sets": [], "traced": []}
    if args.out and os.path.exists(args.out):
        report.update(json.load(open(args.out)))
    if args.runs > 0:
        done = e2e_set(workloads, args.first_seed, args.runs, args.seconds,
                       bounds)
        report["sets"].append(done)
        report["host"] = done["host"]
    entries = traced_repeats(workloads, args.first_seed, args.traced_seeds,
                             args.seconds)
    report["traced"].extend(entries)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if not all(e["identical"] for e in entries):
        sys.exit(1)


if __name__ == "__main__":
    main()
