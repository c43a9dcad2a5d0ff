"""Run the benchmark on several seeds and report how far its figures spread.

Usage, from the root of a checkout:

    python3 bench/spread.py [--out FILE]

For each workload in ``BENCHMARK.json`` it runs the file's command once
per seed in ``SEEDS``, one run at a time, and prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (Q3 - Q1) / median, beside the metric's bound.  Then it
makes one traced run per workload on seed 1.  ``--out`` writes all of
it, with the host's core count and Python version, as a JSON baseline.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in report["seeds"]]
        entry = {"end_to_end": {}}
        for metric in bounds:
            stats = quartiles([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bounds[metric] / 3 else "  <-- over a third of the bound"
            print(f"{name:18} {metric:12} median {stats['median']:10.4f}  "
                  f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
                  f"spread {stats['spread']:.3f} (bound {bounds[metric]}){flag}",
                  flush=True)
        entry["all_correct"] = all(r["correct"] for r in runs)
        traced = run_once(spec, name, report["seeds"][0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{name:18} trace.overhead_s {entry['per_layer']['trace.overhead_s']:.4f}",
              flush=True)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
