"""Reproduce the headline window-certification results.

Four center families, smallest to hardest: a single center forced with
one color in dimensions 1 to 3, a generic two-point family that stays
colorable, and the two sandwich nuclei whose windows are forced with 2
and 3 colors.  With --with-4d, also the 12-point nucleus sandwich(3,1)
in Z^4 with 4 colors, expected Forced at outer radius 4 (4 to 6 s of
search on two cores).  Emits one JSON document with verdicts, proof
windows, decision and conflict counts, and the windows solved per row.
Exit code 1 if any case misses its expected verdict, 2 with one
``error:`` line if --out cannot be written; a negative --budget exits 2
before any schedule runs.
"""
import argparse
import json
import sys
import time

from centerpole.certifier import DEFAULT_BUDGET, certify_schedule
from centerpole.cli import emit
from centerpole.cube import build_sandwich


def schedule_row(name, centers, colors, r_list, expected, budget, r_factor=3):
    started = time.perf_counter()
    schedule = certify_schedule(
        sorted(centers),
        colors,
        r_list,
        r_factor=r_factor,
        budget=budget,
    )
    verdicts = [row.verdict.kind.value for row in schedule.rows]
    return {
        "name": name,
        "centers": [list(p) for p in schedule.centers],
        "colors": colors,
        "rList": r_list,
        "rFactor": r_factor,
        "verdicts": verdicts,
        "provedAtOuter": [row.proved_at_outer for row in schedule.rows],
        "decisions": [row.verdict.stats.decisions for row in schedule.rows],
        "conflicts": [row.verdict.stats.conflicts for row in schedule.rows],
        "windowsSolved": [row.windows_solved for row in schedule.rows],
        "expected": expected,
        "ok": verdicts == expected,
        "seconds": round(time.perf_counter() - started, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--skip-hard", action="store_true",
                        help="skip the 3-color spatial case")
    parser.add_argument("--with-4d", action="store_true",
                        help="add the 4-color nucleus in Z^4")
    parser.add_argument("--out", help="output file; default stdout")
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error(f"--budget must be at least 0, got {args.budget}")

    cases = []
    for dim in (1, 2, 3):
        cases.append(
            schedule_row(
                f"singleton-dim{dim}",
                [(0,) * dim],
                1,
                [1],
                ["Forced"],
                args.budget,
            )
        )
    cases.append(
        schedule_row(
            "generic-pair",
            [(0, 0), (3, 0)],
            2,
            [1, 2],
            ["Colorable", "Colorable"],
            args.budget,
        )
    )
    cases.append(
        schedule_row(
            "planar-nucleus",
            build_sandwich(1, -1),
            2,
            [1, 2, 3],
            ["Forced", "Forced", "Forced"],
            args.budget,
        )
    )
    if not args.skip_hard:
        cases.append(
            schedule_row(
                "spatial-nucleus",
                build_sandwich(2, 0),
                3,
                [1, 2],
                ["Forced", "Forced"],
                args.budget,
            )
        )

    if args.with_4d:
        cases.append(
            schedule_row(
                "4d-nucleus",
                build_sandwich(3, 1),
                4,
                [1],
                ["Forced"],
                args.budget,
                r_factor=2,
            )
        )

    all_ok = all(case["ok"] for case in cases)
    doc = {
        "budget": args.budget,
        "ok": all_ok,
        "cases": cases,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        emit(text, args.out)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
