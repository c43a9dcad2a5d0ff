"""Survey the T-shape decision procedure across ambient dimensions.

Per dimension: seeded random sets one point below the known threshold
must all be coverable, and the moment-curve witness one point above it
must be refuted.  With ``--grid-draws N`` it also decides, for each
seed 1..N, the set of 19 draws from {-1,0,1}^4 made by
``random.Random(seed)``; it reports each verdict and, under the separate
``gridTiming`` key, the slowest seed and its seconds.  Emits one JSON
document; exit code 1 if any bound check fails or a certificate fails
its verification, 2 with one ``error:`` line if --out cannot be written.
A usage error exits 2 before any trial or draw runs: a --dims entry that
is not an integer, has no known t value (1 to 4) or is repeated, a
--trials count below 0 or above ``MAX_TSHAPE_TRIALS``, or a --grid-draws
count below 0 or above ``MAX_GRID_DRAWS``.

The row of dimension d is ``verify_t_value_bounds(d, trials, seed + d)``
plus its ``seconds``.  This script is the one runner of that check: the
``bounds`` report of the removed ``centerpole tshape --trials T --seed S
--bound-dim d`` is the row of d in a run with ``--dims d --trials T
--seed S-d``.

    python scripts/run_tshape_survey.py --grid-draws 100
"""
import argparse
import random
import time

from centerpole.cli import emit_document
from centerpole.tshape import check_bound_dim, is_t_shaped, verify_t_value_bounds

GRID_DRAWS = 19
GRID_DIM = 4

# The most trials one dimension runs.  Each trial decides one random set
# one point below the t value, so the time grows linearly with the count
# and steeply with the dimension: on a 2-core Xeon, 2^10 trials take
# about 0.06 s in dimension 2 and 0.3 s in dimension 3 (seed 1), and
# 4.8-7.1 s in dimension 4 (seeds 1-3, about 5-7 ms a trial).  A larger
# count is refused before any trial runs.
MAX_TSHAPE_TRIALS = 2**10

# The most grid draws one run decides.  The time grows linearly with the
# count: on a 2-core Xeon, seeds 1-100 take 1.8-2.7 s, 1-300 take 5.6-5.8 s
# and 1-1024 take 18.5-20.6 s, about 0.019 s a draw (the slowest draw,
# 0.06-0.10 s).
# A larger count is refused before any draw runs.
MAX_GRID_DRAWS = 2**10


def grid_draws(count: int) -> tuple[dict, dict]:
    """Verdicts of the grid draws for seeds 1..count, and their timing.

    ``is_t_shaped`` raises RuntimeError only when a certificate fails its
    verification; such a seed is reported with the verdict "error".
    """
    rows = []
    seconds = {}
    for seed in range(1, count + 1):
        rng = random.Random(seed)
        points = [
            tuple(rng.randint(-1, 1) for _ in range(GRID_DIM))
            for _ in range(GRID_DRAWS)
        ]
        started = time.perf_counter()
        try:
            outcome = is_t_shaped(points)
            verdict, detail = ("yes" if outcome.t_shaped else "no"), outcome.detail
        except RuntimeError as err:
            verdict, detail = "error", str(err)
        seconds[seed] = time.perf_counter() - started
        rows.append(
            {
                "seed": seed,
                "distinct": len(set(points)),
                "verdict": verdict,
                "detail": detail,
            }
        )
    report = {
        "draws": GRID_DRAWS,
        "dim": GRID_DIM,
        "values": [-1, 0, 1],
        "seeds": rows,
        "ok": all(row["verdict"] != "error" for row in rows),
    }
    slowest = max(seconds, key=seconds.get)
    return report, {"slowestSeed": slowest, "seconds": round(seconds[slowest], 3)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="2,3,4", help="comma-separated list")
    parser.add_argument("--trials", type=int, default=50, help="random sets per dim")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--grid-draws",
        type=int,
        default=0,
        metavar="N",
        help="also decide the 19-point draws from {-1,0,1}^4 for seeds 1..N",
    )
    parser.add_argument("--out", help="output file; default stdout")
    args = parser.parse_args(argv)
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--dims must list integers, got {args.dims!r}")
    if not dims:
        parser.error("--dims must name at least one dimension")
    repeated = sorted({dim for dim in dims if dims.count(dim) > 1})
    if repeated:
        parser.error(f"--dims names {', '.join(map(str, repeated))} more than once")
    for dim in dims:
        try:
            check_bound_dim(dim)
        except ValueError as err:
            parser.error(f"--dims {dim}: {err}")
    for flag, count, limit in (
        ("--trials", args.trials, MAX_TSHAPE_TRIALS),
        ("--grid-draws", args.grid_draws, MAX_GRID_DRAWS),
    ):
        if not 0 <= count <= limit:
            parser.error(f"{flag} must be from 0 to {limit}, got {count}")

    rows = []
    all_ok = True
    for dim in dims:
        started = time.perf_counter()
        bounds = verify_t_value_bounds(dim, args.trials, args.seed + dim)
        bounds["seconds"] = round(time.perf_counter() - started, 3)
        rows.append(bounds)
        all_ok = all_ok and bounds["ok"]

    doc = {
        "dims": dims,
        "trialsPerDim": args.trials,
        "seed": args.seed,
        "ok": all_ok,
        "rows": rows,
    }
    if args.grid_draws:
        doc["gridDraws"], doc["gridTiming"] = grid_draws(args.grid_draws)
        all_ok = all_ok and doc["gridDraws"]["ok"]
        doc["ok"] = all_ok
    if not emit_document(doc, args.out):
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
