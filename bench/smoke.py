"""Smoke check of the benchmark itself, on tiny inputs (about a minute).

Usage, from the root of a checkout:

    python3 bench/smoke.py

It checks that every workload prints exactly the metrics that
``BENCHMARK.json`` names, with their units, on two seeds and in a traced
run; that a corrupted expectation shows up as a failed item; and that
the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench_command(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--small",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            proc = bench_command(ROOT, name, seed, trace)
            assert proc.returncode == 0, (name, seed, trace, proc.stdout, proc.stderr)
            last = json.loads(proc.stdout.splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
            assert last["correct"] and last["failed"] == 0, (name, seed, trace, proc.stdout)
            printed = {k: v["unit"] for k, v in last["metrics"].items()}
            assert printed == declared[trace], (name, trace, printed)
            assert "fail_frac 0 " in proc.stdout, proc.stdout
            print(f"ok  {name} seed {seed} trace {trace}: {len(printed)} metrics", flush=True)


def check_corrupted_expectation() -> None:
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            items = workload.make_items(1, workdir, True)
            with run.Clock() as clock:
                clean = run.run_pass(items, clock)
            assert clean["failures"] == [], (name, clean["failures"])
            first = items[0]
            key = next(iter(first.expect))
            items[0] = dataclasses.replace(first, expect={**first.expect, key: "corrupted"})
            with run.Clock() as clock:
                corrupted = run.run_pass(items, clock)
        fail_frac = len(corrupted["failures"]) / corrupted["attempted"]
        assert corrupted["failures"] == [first.label], (name, corrupted["failures"])
        assert fail_frac > 0
        print(f"ok  {name}: corrupted expectation gives fail_frac {fail_frac:.3f}", flush=True)


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_command(Path(bare), next(iter(WORKLOADS)), 1, 0)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  without sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_printed_metrics()
    check_corrupted_expectation()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
