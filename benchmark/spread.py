#!/usr/bin/env python3
"""Repeatability check: run every workload with ten different seeds and print,
for each end-to-end metric, the distance between the first and third quartile
of its ten values as a share of their median, beside the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]... [--save FILE]

Reads BENCHMARK.json for the command, the workloads, the metrics and their
bounds, so it checks exactly what the driver checks. Exits 1 when a spread
(other than setup_s) is wider than its bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    runs, too_wide = {}, False
    for name in names:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = manifest["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            start = time.time()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: output check failed: {result}")
            for metric, m in result["metrics"].items():
                values[metric].append(m["value"])
            print(f"  {name} seed {seed}: {time.time() - start:.1f} s", file=sys.stderr)
        runs[name] = values
        for m in manifest["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                flag = ""
            elif spread > m["bound"]:
                flag, too_wide = "WIDER THAN BOUND", True
            elif spread > m["bound"] / 3:
                flag = "over a third of the bound"
            else:
                flag = "ok"
            print(f"{name:<12} {m['name']:<16} median {med:>16.6f} {m['unit']:<4} "
                  f"spread {100 * spread:6.2f}%  bound {100 * m['bound']:5.1f}%  {flag}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    sys.exit(1 if too_wide else 0)


if __name__ == "__main__":
    main()
