"""Reproduce the headline window-certification results.

Five center families, smallest to hardest: a single center forced with
one color in dimensions 1 to 3, a generic two-point family that stays
colorable, the two sandwich nuclei whose windows are forced with 2 and
3 colors, and the 12-point nucleus sandwich(3,1) in Z^4 with 4 colors,
expected Forced at outer radius 4.  The whole run takes under a second
on two cores.  Emits one JSON document with verdicts, proof windows,
decision and conflict counts, and the windows solved per row.  Exit
code 1 if any case misses its expected verdict, 2 with one ``error:``
line if --out cannot be written.
"""
import argparse
import json
import sys
import time

from centerpole.certifier import DEFAULT_BUDGET, certify_schedule
from centerpole.cli import emit
from centerpole.cube import build_sandwich


def schedule_row(name, centers, colors, r_list, expected, r_factor=3):
    started = time.perf_counter()
    schedule = certify_schedule(sorted(centers), colors, r_list, r_factor=r_factor)
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
    parser.add_argument("--out", help="output file; default stdout")
    args = parser.parse_args(argv)

    forced, colorable = ["Forced"], ["Colorable"]
    cases = [
        schedule_row(f"singleton-dim{dim}", [(0,) * dim], 1, [1], forced)
        for dim in (1, 2, 3)
    ]
    cases += [
        schedule_row("generic-pair", [(0, 0), (3, 0)], 2, [1, 2], colorable * 2),
        schedule_row(
            "planar-nucleus", build_sandwich(1, -1), 2, [1, 2, 3], forced * 3
        ),
        schedule_row("spatial-nucleus", build_sandwich(2, 0), 3, [1, 2], forced * 2),
        schedule_row("4d-nucleus", build_sandwich(3, 1), 4, [1], forced, r_factor=2),
    ]

    all_ok = all(case["ok"] for case in cases)
    doc = {
        "budget": DEFAULT_BUDGET,
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
