"""Sweep the covering verification over a range of cube dimensions.

For every k up to --k-max and every slice parameter s with s <= k-2,
check the constructive shift table on all maximal inputs: each
prescribed shift must move every point of its set into the sandwich as
``build_sandwich`` materializes it.  Emits one JSON document with
per-pair totals and timings.  Exit code 1 if any pair reports a failure;
a --k-max above the cover-verify limit (``cli.MAX_COVER_K``) is refused
with exit code 2 before any pair is checked, and an --out that cannot
be written exits 2 with one ``error:`` line.
"""
import argparse
import json
import sys
import time

from centerpole.cli import MAX_COVER_K, emit
from centerpole.covering import verify_covering_lemma


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=8)
    parser.add_argument("--out", help="output file; default stdout")
    args = parser.parse_args(argv)
    if args.k_max < 1:
        parser.error("--k-max must be at least 1")
    if args.k_max > MAX_COVER_K:
        parser.error(f"--k-max {args.k_max} is above the limit of {MAX_COVER_K}")

    rows = []
    failure_count = 0
    for k in range(1, args.k_max + 1):
        for s in range(-1, k - 1):
            started = time.perf_counter()
            outcome = verify_covering_lemma(k, s)
            rows.append(
                {
                    "k": k,
                    "s": s,
                    "maximalSets": outcome["total"],
                    "failures": outcome["failures"],
                    "seconds": round(time.perf_counter() - started, 3),
                }
            )
            failure_count += len(outcome["failures"])

    doc = {
        "kMax": args.k_max,
        "pairs": len(rows),
        "maximalSets": sum(row["maximalSets"] for row in rows),
        "failureCount": failure_count,
        "rows": rows,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        emit(text, args.out)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 1 if failure_count else 0


if __name__ == "__main__":
    raise SystemExit(main())
