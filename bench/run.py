"""Benchmark for centerpole: time to exact verdicts, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every pass over a workload's
inputs runs in a fresh single-threaded child process, so each pass pays
for imports and for caches that fill on the way, as a CLI user does.
Passes repeat, one after the other, until ``--seconds`` have gone by and
at least three have run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat the metrics for a reader.  The exit code is 1 if
any verdict missed or any result block or counter differed between
passes, and 2 if the benchmark cannot run at all.

``--trace 0`` reports the end-to-end metrics, as medians over passes:

* ``wall_s``: seconds from the first timed call to the last verdict.
* ``setup_s``: seconds from spawning the pass's process to its first
  timed call: interpreter start, imports, seeded inputs, input files.
  Its median is taken over at least nine set-ups: those of the passes,
  then set-up-only processes.
* ``peak_rss_mb``: the pass process's peak resident memory, read when
  the timed calls end, before the verdicts are checked.
* ``call_p50_ms`` and ``call_p99_ms``: nearest-rank percentiles of the
  per-call latency in one pass.  A call is one ``is_t_shaped`` on
  ``tshape_survey`` (1000 per pass) and one CLI command elsewhere.

The host this was written on is shared, and its speed flips between two
states about 1.8x apart every few seconds.  Times are therefore rescaled
to the fast state: every 25 ms an interval timer interrupts the pass and
times a fixed pure-Python reference loop, with the garbage collector off, and each stretch of work
between two such probes is scaled by ``REFERENCE_S`` over their mean
duration (see ``Clock``).  Probe time is not counted.  The unscaled wall
time is printed beside the scaled one.

``--trace 1`` alternates untraced passes with traced ones, in which
``tracing.py`` times calls into each module and counts their work.  It
reports every per-layer metric (median over traced passes), the call
count per pass, and ``trace.overhead_s``, traced minus untraced
``wall_s``.  Result blocks of traced and untraced passes must agree
byte for byte, and the counters of all traced passes must be equal.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_PASSES = 3
# set-ups whose median is setup_s: one per pass, then set-up-only processes
SETUP_SAMPLES = 9
# no new pass starts after this, so a run ends well within three minutes
LAST_START_S = 120.0
PROBE_EVERY_S = 0.025
# the reference loop's duration in the fast state of the shared 2-core
# x86-64 host (Python 3.11) the benchmark was tuned on
REFERENCE_S = 0.00065

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
}


def _reference() -> tuple:
    """Fixed interpreter work in the style of the program: tuples,
    dictionaries and small Fractions."""
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, 200):
        point = (i % 7 - 3, i % 5 - 2, i % 3 - 1)
        mirror = tuple(2 * c - v for c, v in zip((1, 0, -1), point))
        seen[mirror] = seen.get(mirror, 0) + 1
        total += Fraction(mirror[0] * point[1] + 1, i % 11 + 1)
    return total, len(seen)


def time_reference() -> float:
    """Seconds the reference loop takes now.  The garbage collector is
    off meanwhile, so a collection that the program's own allocations
    have made due runs later, in program time, and not in the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Work time, and its length rescaled to the host's fast state.

    While the clock runs, an interval timer interrupts the process every
    ``PROBE_EVERY_S`` and times the reference loop once.  ``now()`` reads
    a clock that stands still during probes.  ``scaled(a, b)`` is the
    fast-state length of the work between two readings: each stretch
    between consecutive probes counts its length times ``REFERENCE_S``
    over the mean duration of those two probes.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.probes: list[tuple[float, float]] = []  # (work time, seconds)
        self._in_probe = False

    def now(self) -> float:
        while True:  # retry if a probe lands between the two reads
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    def probe(self, *_signal) -> None:
        if self._in_probe:
            return
        self._in_probe = True
        started = time.perf_counter()
        took = time_reference()
        self.probes.append((started - self.paused, took))
        self.paused += took
        self._in_probe = False

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scaled(self, start: float, end: float) -> float:
        """Fast-state seconds between two readings; needs a probe after ``end``."""
        k = max(0, bisect.bisect_right(self.probes, (start, math.inf)) - 1)
        total = 0.0
        while k + 1 < len(self.probes) and self.probes[k][0] < end:
            (w1, r1), (w2, r2) = self.probes[k], self.probes[k + 1]
            overlap = min(w2, end) - max(w1, start)
            if overlap > 0:
                total += overlap * 2 * REFERENCE_S / (r1 + r2)
            k += 1
        return total


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_pass(items, clock: Clock, trace: bool = False) -> dict:
    """Time one pass over ``items`` on a running ``clock``, then gate
    its verdicts."""
    from tracing import Tracer, layer_values

    tracer = Tracer(clock.now) if trace else None
    outputs, spans, intervals = [], [], []
    if tracer:
        tracer.install()
    try:
        for item in items:
            started = clock.now()
            try:
                output = item.run()
            except (Exception, SystemExit) as err:  # a crash is a failed verdict
                output = err
            intervals.append((started, clock.now()))
            outputs.append(output)
            if tracer:
                spans.append(tracer.take())
        clock.probe()  # closes the stretch after the last periodic probe
        # taken before the checks, so it is the pass's own high-water mark
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()

    raw = [end - start for start, end in intervals]
    scaled = [clock.scaled(start, end) for start, end in intervals]
    call_ms = [1000 * s for s in scaled]
    failures, digests = [], []
    for item, output in zip(items, outputs):
        try:
            if isinstance(output, BaseException):
                raise output
            ok = item.check(output, item.expect)
            text = item.result(output)
        except (Exception, SystemExit) as err:
            ok, text = False, f"error: {err!r}"
        if not ok:
            failures.append(item.label)
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    result = {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(raw),
        "call_p50_ms": nearest_rank(call_ms, 50),
        "call_p99_ms": nearest_rank(call_ms, 99),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failures": failures,
        "digests": digests,
    }
    if tracer:
        # each call's spans take that call's rescaling
        seconds = {"total": {}, "self": {}}
        for taken, r, s in zip(spans, raw, scaled):
            factor = s / r if r > 0 else 1.0
            for kind, by_span in taken.items():
                for span, value in by_span.items():
                    seconds[kind][span] = seconds[kind].get(span, 0.0) + value * factor
        result["layers"] = layer_values(seconds, tracer.counts)
    return result


def child_main(args) -> int:
    """One pass, or only its set-up.  The clock starts before the
    program is imported, so its probes cover set-up as well as the
    timed calls."""
    entered = time.clock_gettime(time.CLOCK_MONOTONIC)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        with Clock() as clock:
            started = clock.now()
            from workloads import WORKLOADS

            items = WORKLOADS[args.workload].make_items(args.seed, workdir, args.small)
            setup_done = clock.now()
            result = {} if args.setup_only else run_pass(items, clock, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["entered"] = entered
    result["first_probe_s"] = clock.probes[0][1]
    result["setup_scaled_s"] = clock.scaled(started, setup_done)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def spawn_pass(args, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one pass, or only its set-up, in a fresh process.  Set-up time runs from the
    spawn, on the monotonic clock all processes share: interpreter start
    until the child's clock starts, rescaled by the probes on either
    side, plus the child's own rescaled set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    parent_probe = time_reference()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    scale = 2 * REFERENCE_S / (parent_probe + result["first_probe_s"])
    result["setup_s"] = (result["entered"] - spawned) * scale + result["setup_scaled_s"]
    result["traced"] = bool(trace)
    return result


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """The timed passes, and the extra set-up-only runs."""
    started = time.monotonic()
    deadline = started + 170.0
    passes: list[dict] = []

    def wanted() -> int:
        return MIN_PASSES if not args.trace else 2 * MIN_PASSES - 1

    while True:
        elapsed = time.monotonic() - started
        if len(passes) >= wanted() and elapsed >= args.seconds:
            break
        if passes and elapsed >= LAST_START_S:
            break
        # a traced run alternates untraced and traced passes
        trace = args.trace and len(passes) % 2 == 1
        passes.append(spawn_pass(args, int(trace), deadline))
    setups = []
    if not args.trace:
        while len(passes) + len(setups) < SETUP_SAMPLES:
            setups.append(spawn_pass(args, 0, deadline, setup_only=True))
    return passes, setups


def summarize(args, passes: list[dict], setups: list[dict]) -> tuple[dict, list, list]:
    """Metrics (name -> value and unit), human-readable lines, and errors."""
    from tracing import COUNTERS, LAYER_UNITS
    from workloads import WORKLOADS

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    median = statistics.median
    errors = []

    # every pass runs the same inputs, so every result block must repeat
    for n, p in enumerate(passes[1:], start=2):
        for i, (first, got) in enumerate(zip(passes[0]["digests"], p["digests"])):
            if first != got:
                p["failures"].append(f"item {i} of pass {n}: result differs from pass 1")

    metrics = {}
    if not args.trace:
        metrics = {
            "wall_s": median(p["wall_s"] for p in plain),
            "setup_s": median(p["setup_s"] for p in plain + setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "call_p50_ms": median(p["call_p50_ms"] for p in plain),
            "call_p99_ms": median(p["call_p99_ms"] for p in plain),
        }
        units = END_TO_END_UNITS
    else:
        first = traced[0]["layers"]
        for n, p in enumerate(traced[1:], start=2):
            for name in COUNTERS:
                if p["layers"][name] != first[name]:
                    errors.append(
                        f"traced pass {n}: {name} = {p['layers'][name]}, "
                        f"traced pass 1 had {first[name]}"
                    )
        for name in LAYER_UNITS:
            # counters repeat exactly; times take the median
            metrics[name] = first[name] if name in COUNTERS else median(
                p["layers"][name] for p in traced
            )
        metrics["trace.overhead_s"] = (
            median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
        )
        metrics["bench.calls"] = passes[0]["attempted"]
        units = {**LAYER_UNITS, "trace.overhead_s": "s", "bench.calls": "count"}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    lines = [
        f"workload {args.workload}  seed {args.seed} "
        f"({'used' if WORKLOADS[args.workload].seeded else 'not used'})  trace {args.trace}  "
        f"passes {len(passes)}  calls/pass {passes[0]['attempted']}",
        f"  raw wall_s (unscaled, median) {median(p['raw_wall_s'] for p in plain):.4f} s",
    ]
    lines += [f"  {name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for p in passes:
        lines += [f"  FAILED: {label}" for label in p["failures"][:5]]
    return {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}, lines, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the smoke check")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "centerpole" / "__init__.py").is_file():
        print(f"error: no centerpole sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics, lines, errors = summarize(args, passes, setups)
    failed = sum(len(p["failures"]) for p in passes)
    correct = failed == 0 and not errors
    for line in lines + [f"  ERROR: {e}" for e in errors]:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
