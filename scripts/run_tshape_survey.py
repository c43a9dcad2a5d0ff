"""Survey the T-shape decision procedure across ambient dimensions.

Per dimension: seeded random sets one point below the known threshold
must all be coverable, and the moment-curve witness one point above it
must be refuted.  With ``--grid-draws N`` it also decides, for each
seed 1..N, the set of 19 draws from {-1,0,1}^4 made by
``random.Random(seed)``; it reports each verdict and, under the separate
``gridTiming`` key, the slowest seed and its seconds.  Emits one JSON
document; exit code 1 if any bound check fails or a certificate fails
its verification.

    python scripts/run_tshape_survey.py --grid-draws 100
"""
import argparse
import json
import random
import sys
import time

from centerpole.tshape import is_t_shaped, verify_t_value_bounds

GRID_DRAWS = 19
GRID_DIM = 4


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
    dims = [int(part) for part in args.dims.split(",") if part.strip()]
    if not dims:
        parser.error("--dims must name at least one dimension")
    if args.grid_draws < 0:
        parser.error("--grid-draws must be at least 0")

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
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
