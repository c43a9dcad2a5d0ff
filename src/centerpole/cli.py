"""Command-line surface with reproducible JSON reports.

Every command resolves its parameters (flags, then an optional JSON
config file that overrides them), runs one module operation, and emits
an envelope {config, result, meta}.  The config and result sections are
byte-identical across reruns with the same inputs and seed; wall-clock
data lives only in meta.  Exit codes: 0 success, 1 a mathematical
failure was found (covering discrepancy, scan violation, bound
counterexample), 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from datetime import datetime, timezone

from .certifier import DEFAULT_BUDGET, ScheduleReport, certify_schedule
from .colorings import (
    ColoringRule,
    SimplexSpec,
    cone_coloring,
    halfspace_coloring,
    pair_coloring,
    plus0_extension,
    plus1_extension,
    plus2_extension,
    standard_simplex,
    symmetric_pair_scan,
)
from .covering import verify_covering_lemma
from .cube import (
    LatticePoint,
    Sandwich,
    build_sandwich,
    points_to_json,
    sandwich_size,
    sandwich_to_json,
)
from .geometry import RationalPoint, fraction_from_json, point_from_json, point_to_json
from .tshape import certificate_to_json, is_t_shaped, verify_t_value_bounds

OUTPUT_DIR_ENV = "CENTERPOLE_OUT_DIR"

_SANDWICH_RE = re.compile(r"^sandwich\((-?\d+)\s*,\s*(-?\d+)\)$")

# The largest sandwich any command builds; every k <= 19 fits.  Time and
# memory grow with the point count, so larger sets are refused before
# they are built.
MAX_SANDWICH_POINTS = 2**20


def bounded_sandwich(k: int, s: int) -> Sandwich:
    """``build_sandwich(k, s)``, refused with ValueError when the set
    would have more than MAX_SANDWICH_POINTS points.  A sandwich has at
    least 2^k points, so a large k is refused without counting."""
    if k > 64:
        size = f"at least 2^{k}"
    else:
        count = sandwich_size(k, s)
        if count <= MAX_SANDWICH_POINTS:
            return build_sandwich(k, s)
        size = str(count)
    raise ValueError(
        f"sandwich({k},{s}) has {size} points, more than the limit of "
        f"{MAX_SANDWICH_POINTS}"
    )


def parse_center_set(text: str) -> list[LatticePoint]:
    """Either the literal shorthand sandwich(k,s) or a path to a JSON
    file holding a list of integer coordinate rows.  Any other entry
    (a float, a string, a bool) is refused with ValueError."""
    match = _SANDWICH_RE.match(text.strip())
    if match:
        k, s = int(match.group(1)), int(match.group(2))
        return sorted(bounded_sandwich(k, s).points())
    with open(text, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("a centers file must hold a list of coordinate rows")
    for row in data:
        if not isinstance(row, list) or any(type(v) is not int for v in row):
            raise ValueError(f"centers must be rows of integers, got {json.dumps(row)}")
    return [LatticePoint(tuple(row)) for row in data]


def _field(spec: dict, key: str):
    if key not in spec:
        raise ValueError(f"rule kind {spec['kind']!r} needs the key {key!r}")
    return spec[key]


def build_rule(spec: dict) -> ColoringRule:
    """Assemble a coloring rule from its JSON description.

    Kinds: cone (dim or explicit vertices), halfspace (center),
    pair (a, b), plus0 (base), plus1 (base, optional aux2),
    plus2 (base, A, optional auxes).  A spec that is not an object or
    lacks a required key raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a rule must be a JSON object, got {json.dumps(spec)}")
    kind = spec.get("kind")
    if kind == "cone":
        if "vertices" in spec:
            simplex = SimplexSpec(
                tuple(point_from_json(v) for v in spec["vertices"])
            )
        else:
            simplex = standard_simplex(int(_field(spec, "dim")))
        return cone_coloring(simplex)
    if kind == "halfspace":
        return halfspace_coloring(point_from_json(_field(spec, "center")))
    if kind == "pair":
        return pair_coloring(
            point_from_json(_field(spec, "a")), point_from_json(_field(spec, "b"))
        )
    if kind == "plus0":
        return plus0_extension(build_rule(_field(spec, "base")))
    if kind == "plus1":
        base = build_rule(_field(spec, "base"))
        if "aux2" in spec:
            aux = build_rule(spec["aux2"])
        else:
            aux = halfspace_coloring(RationalPoint((0,) * base.dim))
        return plus1_extension(base, aux)
    if kind == "plus2":
        base = build_rule(_field(spec, "base"))
        added = [point_from_json(row) for row in _field(spec, "A")]
        auxes = {
            key: build_rule(value) for key, value in spec.get("auxes", {}).items()
        }
        return plus2_extension(base, added, auxes or None)
    raise ValueError(f"unknown rule kind {kind!r}")


def _schedule_to_json(report: ScheduleReport) -> dict:
    rows = []
    for row in report.rows:
        verdict = row.verdict
        rows.append(
            {
                "inner": row.inner,
                "outer": row.outer,
                "provedAtOuter": row.proved_at_outer,
                "verdict": verdict.kind.value,
                "detail": verdict.detail,
                "witness": list(verdict.witness) if verdict.witness else None,
                "stats": {
                    "vertices": verdict.stats.vertices,
                    "edges": verdict.stats.edges,
                    "decisions": verdict.stats.decisions,
                },
            }
        )
    return {
        "dim": report.dim,
        "k": report.k,
        "centers": points_to_json(report.centers),
        "rFactor": report.r_factor,
        "rows": rows,
    }


def cmd_sandwich(k: int, s: int, fmt: str = "json") -> tuple[int, dict | str]:
    sandwich = bounded_sandwich(k, s)
    if fmt == "csv":
        lines = [",".join(str(v) for v in row) for row in points_to_json(sandwich.points())]
        return 0, "\n".join(lines) + "\n"
    if fmt == "pretty":
        lines = [f"sandwich k={k} s={s}: {len(sandwich)} points"]
        lines += [
            "  (" + ", ".join(str(v) for v in row) + ")"
            for row in points_to_json(sandwich.points())
        ]
        return 0, "\n".join(lines) + "\n"
    return 0, sandwich_to_json(sandwich)


def cmd_cover_verify(k: int, s: int) -> tuple[int, dict]:
    report = verify_covering_lemma(k, s)
    return (0 if not report["failures"] else 1), report


def cmd_tshape(
    points_file: str,
    trials: int = 0,
    seed: int = 0,
    bound_dim: int | None = None,
) -> tuple[int, dict]:
    with open(points_file, encoding="utf-8") as fh:
        rows = json.load(fh)
    points = [point_from_json(row) for row in rows]
    if trials > 0 and bound_dim is None and not points:
        raise ValueError("--trials on an empty points file needs --bound-dim")
    outcome = is_t_shaped(points)
    result: dict = {
        "points": [point_to_json(p) for p in points],
        "verdict": "yes" if outcome.t_shaped else "no",
        "detail": outcome.detail,
        "seed": seed,
        "trials": trials,
    }
    if outcome.certificate is not None:
        result["certificate"] = certificate_to_json(outcome.certificate)
    code = 0
    if trials > 0:
        dim = bound_dim if bound_dim is not None else points[0].dim
        bounds = verify_t_value_bounds(dim, trials, seed)
        result["bounds"] = bounds
        if not bounds["ok"]:
            code = 1
    return code, result


def cmd_certify(
    dim: int,
    colors: int,
    centers_text: str,
    r_list: list[int],
    r_factor: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, dict]:
    centers = parse_center_set(centers_text)
    dims = sorted({c.dim for c in centers})
    if len(dims) > 1:
        raise ValueError(f"centers have mixed dimensions {dims}")
    if dims and dims[0] != dim:
        raise ValueError(f"centers have dimension {dims[0]}, but --dim is {dim}")
    report = certify_schedule(centers, colors, r_list, r_factor=r_factor, budget=budget)
    return 0, _schedule_to_json(report)


def cmd_coloring_scan(
    rule_spec: dict,
    centers_rows: list,
    samples: int,
    seed: int,
    inner_radius="0",
) -> tuple[int, dict]:
    rule = build_rule(rule_spec)
    centers = [point_from_json(row) for row in centers_rows]
    report = symmetric_pair_scan(
        rule, centers, fraction_from_json(inner_radius), samples, seed
    )
    return (0 if not report["violations"] else 1), report


def _apply_config_file(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in overrides.items():
        setattr(args, key.replace("-", "_"), value)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload: dict | str, out_path: str | None) -> None:
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    target = _resolve_out(out_path)
    if target is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _int_list(text) -> list[int]:
    if isinstance(text, list):
        return [int(v) for v in text]
    return [int(part) for part in str(text).split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centerpole",
        description="Exact toolkit for sandwich sets, coverings, T-shapes, "
        "witness colorings, and window certification.",
    )
    parser.add_argument("--config", help="JSON file whose keys override flags")
    parser.add_argument("--out", help="output file (JSON); default stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sandwich", help="construct a sandwich point set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("cover-verify", help="run the covering verification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("tshape", help="decide T-shapedness of a point set")
    p.add_argument("--points", required=True, help="JSON file of coordinate rows")
    p.add_argument("--trials", type=int, default=0, help="extra bound-check trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound-dim", type=int, default=None)

    p = sub.add_parser("certify", help="window certification schedule")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--centers", required=True, help="JSON file or sandwich(k,s)")
    p.add_argument("--r-list", default="1", help="comma-separated inner radii")
    p.add_argument("--R-factor", dest="r_factor", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("coloring-scan", help="scan a coloring for violations")
    p.add_argument("--rule", required=True, help="JSON rule description or @file")
    p.add_argument("--centers", required=True, help="JSON file or sandwich(k,s)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inner-radius", default="0")
    return parser


def _load_rule_spec(text) -> dict:
    if isinstance(text, dict):
        return text
    if isinstance(text, str) and text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _scan_centers(text) -> list:
    if isinstance(text, list):
        return text
    match = _SANDWICH_RE.match(str(text).strip())
    if match:
        k, s = int(match.group(1)), int(match.group(2))
        return points_to_json(bounded_sandwich(k, s).points())
    with open(text, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        started = time.perf_counter()
        if args.command == "sandwich":
            config = {"command": "sandwich", "k": args.k, "s": args.s,
                      "format": args.format}
            code, result = cmd_sandwich(args.k, args.s, args.format)
        elif args.command == "cover-verify":
            config = {"command": "cover-verify", "k": args.k, "s": args.s}
            code, result = cmd_cover_verify(args.k, args.s)
        elif args.command == "tshape":
            config = {"command": "tshape", "points": args.points,
                      "trials": args.trials, "seed": args.seed,
                      "boundDim": args.bound_dim}
            code, result = cmd_tshape(args.points, args.trials, args.seed,
                                      args.bound_dim)
        elif args.command == "certify":
            r_list = _int_list(args.r_list)
            config = {"command": "certify", "dim": args.dim,
                      "colors": args.colors, "centers": args.centers,
                      "rList": r_list, "rFactor": args.r_factor,
                      "budget": args.budget}
            code, result = cmd_certify(args.dim, args.colors, args.centers,
                                       r_list, args.r_factor, args.budget)
        elif args.command == "coloring-scan":
            rule_spec = _load_rule_spec(args.rule)
            centers_rows = _scan_centers(args.centers)
            config = {"command": "coloring-scan", "rule": rule_spec,
                      "centers": centers_rows, "samples": args.samples,
                      "seed": args.seed, "innerRadius": str(args.inner_radius)}
            code, result = cmd_coloring_scan(rule_spec, centers_rows,
                                             args.samples, args.seed,
                                             str(args.inner_radius))
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if isinstance(result, str):
        _emit(result, args.out)
        return code
    envelope = {
        "config": config,
        "result": result,
        "meta": {
            "generatedAt": datetime.now(timezone.utc).isoformat(),
            "runtimeMs": int((time.perf_counter() - started) * 1000),
        },
    }
    _emit(envelope, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
