"""Command-line surface with reproducible JSON reports.

Every command reads its parameters from its flags alone, runs one
module operation, and emits an envelope {config, result, meta}.  The
config and result sections are byte-identical across reruns with the
same inputs and seed; wall-clock data lives only in meta.  Exit codes:
0 success, 1 a mathematical failure was found (covering discrepancy,
scan violation), 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from math import comb

from .certifier import (
    DEFAULT_BUDGET,
    certify_schedule,
    check_schedule_args,
    check_window_size,
)
from .colorings import (
    ColoringRule,
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
    build_sandwich,
    checked_coordinates,
    points_to_json,
    sandwich_size,
    sandwich_to_json,
)
from .geometry import point_from_json, point_to_json
from .tshape import certificate_to_json, is_t_shaped

OUTPUT_DIR_ENV = "CENTERPOLE_OUT_DIR"

_SANDWICH_RE = re.compile(r"^sandwich\((-?\d+)\s*,\s*(-?\d+)\)$")

# The largest sandwich any command builds; every k <= 19 fits.  Time and
# memory grow with the point count, so larger sets are refused before
# they are built.
MAX_SANDWICH_POINTS = 2**20

# The largest k cover-verify accepts.  It visits 4k(k+1)*2^k cube points,
# so each step up in k about doubles the time (k = 10 takes 0.3-0.5 seconds
# for each s on a 2-core Xeon).
MAX_COVER_K = 10

# The most candidate hyperplanes tshape searches: one per dim-subset of
# the distinct points, C(distinct points, dim) of them.  The cover search
# over them grows faster still, so a file with more is refused before the
# search runs.
# The bound caps the count of candidates only.  The search's memo expands
# each set of at most dim-2 chosen candidates once, testing at most C
# candidates in each (tshape._search_cover), so at C = 2^12 it makes at
# most about 1.7e7 candidate tests in dim 3 but 3.4e10 in dim 4: the cap
# bounds the search in dim 3 only, and above it the cost depends on the
# points.
# Measured worst cases on a 2-core Xeon: over seeds 1-100, the 19 draws
# of random.Random(seed) from {-1,0,1}^4 (C(19, 4) = 3876 candidates
# at most) are decided in at most 0.04-0.10 s (seed 55 or 1, not
# T-shaped), and those from [-2,2]^4 in at most 0.06-0.09 s (seed 9, not
# T-shaped): the range over runs, as the host's speed varies.  The
# enumeration is also the hull test, so a file on one hyperplane is
# billed and walked as a full-dimensional one: 30 points on one plane of
# R^3 (4060 candidates) take 0.010-0.014 s.
MAX_TSHAPE_CANDIDATES = 2**12

# The largest dimension of a tshape points file.  The candidate bound
# does not bound the elimination: it admits d + 2 points in every
# dimension d up to 89, and the kernel updates of the spanned-hyperplane
# walk grow with d.  On a 2-core Xeon, random points
# with numerators in [-100, 100] and denominators 1-10 take 0.01 s for
# n = d = 20, and 1.5-1.8 s for n = 23, the most the candidate bound
# admits in dimension 20; in dimension 24, n = 27 takes about 5 s.  A
# file above the limit is refused before any elimination.
MAX_TSHAPE_DIM = 20

# The largest dimension of a built rule: the dimension of its base rule
# (a cone's ``dim``, or its count of ``vertices`` minus one, or the length
# of a halfspace or pair point) plus one for each lift that encloses it.
# Building a cone inverts a (dim + 1)-square matrix, so a larger rule is
# refused before any simplex is built.  Every base has dimension at least
# 1, so a rule is refused at its MAX_RULE_DIM-th nested lift, before
# building recurses any deeper.
MAX_RULE_DIM = 64

# The most samples coloring-scan draws.  Its time grows linearly with
# them: each sample evaluates the rule once per center and once more.
MAX_SCAN_SAMPLES = 2**20


def _parse_json(text: str):
    """``json.loads``, raising ValueError for input nested too deep."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, exact int, bool and None;
    anything else (a float, a non-str key, an int subclass) raises
    TypeError.  A list of exact ints, such as a witness, is one join.  A
    level costs one frame (loops, not generators), as in ``json.loads``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    items = []
    if kind is dict:  # _quote raises TypeError on a key that is no str
        for key in sorted(value):
            items.append(f"{_quote(key)}: {indented_json(value[key], inner)}")
        brackets = "{}"
    elif kind is list or kind is tuple:
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            for item in value:
                items.append(indented_json(item, inner))
        brackets = "[]"
    else:
        raise TypeError(f"{kind.__name__} values are not written as JSON")
    if not value:
        return brackets
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def bounded_sandwich(k: int, s: int) -> frozenset[tuple[int, ...]]:
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


def _center_rows(spec: str, dim: int | None = None) -> list:
    """Coordinate rows from the literal shorthand sandwich(k,s) or from a
    path to a JSON file holding a list of rows.  Given ``dim``, a
    sandwich of another dimension k + 1 is refused before it is built (a
    negative k by ``bounded_sandwich``)."""
    match = _SANDWICH_RE.match(spec.strip())
    if match:
        k, s = int(match.group(1)), int(match.group(2))
        if dim is not None and k >= 0 and k + 1 != dim:
            raise ValueError(f"centers have dimension {k + 1}, but --dim is {dim}")
        return points_to_json(bounded_sandwich(k, s))
    with open(spec, encoding="utf-8") as fh:
        rows = _parse_json(fh.read())
    if not isinstance(rows, list):
        raise ValueError("a centers file must hold a list of coordinate rows")
    return rows


def _field(spec: dict, key: str, kind: type | None = None):
    if key not in spec:
        raise ValueError(f"rule kind {spec['kind']!r} needs the key {key!r}")
    if kind and type(spec[key]) is not kind:
        raise ValueError(f"rule key {key!r} must be of type {kind.__name__}")
    return spec[key]


def _check_rule_dim(kind: str, dim: int, lifts: int) -> None:
    """Refuse a base rule of dimension ``dim`` under ``lifts`` lifts when
    it, or the rule the lifts build from it, is above MAX_RULE_DIM."""
    if dim > MAX_RULE_DIM:
        raise ValueError(
            f"a {kind} rule of dimension {dim} is above the limit of {MAX_RULE_DIM}"
        )
    if dim + lifts > MAX_RULE_DIM:
        raise ValueError(
            f"a {kind} rule of dimension {dim} under {lifts} lift(s) is of "
            f"dimension {dim + lifts}, above the limit of {MAX_RULE_DIM}"
        )


def build_rule(spec: dict, lifts: int = 0) -> ColoringRule:
    """Assemble a coloring rule from its JSON description.

    Kinds: cone (dim or explicit vertices), halfspace (center),
    pair (a, b), plus0 (base), plus1 (base, optional aux2),
    plus2 (base, A, optional auxes).  A spec that is not an object,
    lacks a required key, holds a key of the wrong JSON type or builds
    a rule of dimension above MAX_RULE_DIM raises ValueError.  ``lifts``
    counts the lifts that enclose spec; a nested rule has its lift's
    dimension minus one, so a base rule of dimension d builds a rule of
    dimension d + lifts.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a rule must be a JSON object, got {json.dumps(spec)}")
    kind = spec.get("kind")
    if kind in ("plus0", "plus1", "plus2"):
        lifts += 1
        if lifts == MAX_RULE_DIM:
            raise ValueError(
                f"a rule nesting {lifts} or more lifts is above the dimension "
                f"limit of {MAX_RULE_DIM}"
            )
    if kind == "cone":
        vertices = _field(spec, "vertices", list) if "vertices" in spec else None
        dim = _field(spec, "dim", int) if vertices is None else len(vertices) - 1
        _check_rule_dim("cone", dim, lifts)
        if vertices is None:
            return cone_coloring(standard_simplex(dim))
        return cone_coloring([point_from_json(v) for v in vertices])
    if kind == "halfspace":
        center = point_from_json(_field(spec, "center"))
        _check_rule_dim("halfspace", len(center), lifts)
        return halfspace_coloring(center)
    if kind == "pair":
        a = point_from_json(_field(spec, "a"))
        _check_rule_dim("pair", len(a), lifts)
        return pair_coloring(a, point_from_json(_field(spec, "b")))
    if kind == "plus0":
        return plus0_extension(build_rule(_field(spec, "base"), lifts))
    if kind == "plus1":
        base = build_rule(_field(spec, "base"), lifts)
        aux2 = build_rule(spec["aux2"], lifts) if "aux2" in spec else None
        return plus1_extension(base, aux2)
    if kind == "plus2":
        base = build_rule(_field(spec, "base"), lifts)
        added = [point_from_json(row) for row in _field(spec, "A", list)]
        given = _field(spec, "auxes", dict) if "auxes" in spec else {}
        auxes = {key: build_rule(value, lifts) for key, value in given.items()}
        return plus2_extension(base, added, auxes or None)
    raise ValueError(f"unknown rule kind {kind!r}")


def cmd_sandwich(k: int, s: int, fmt: str = "json") -> tuple[int, dict | str]:
    sandwich = bounded_sandwich(k, s)
    if fmt == "csv":
        lines = [",".join(str(v) for v in row) for row in points_to_json(sandwich)]
        return 0, "\n".join(lines) + "\n"
    if fmt == "pretty":
        lines = [f"sandwich k={k} s={s}: {len(sandwich)} points"]
        lines += [
            "  (" + ", ".join(str(v) for v in row) + ")"
            for row in points_to_json(sandwich)
        ]
        return 0, "\n".join(lines) + "\n"
    return 0, sandwich_to_json(k, s, sandwich)


def cmd_cover_verify(k: int, s: int) -> tuple[int, dict]:
    if k > MAX_COVER_K:
        raise ValueError(
            f"cover-verify visits 4k(k+1)*2^k cube points; k={k} is above "
            f"the limit of {MAX_COVER_K}"
        )
    report = verify_covering_lemma(k, s)
    return (0 if not report["failures"] else 1), report


def cmd_tshape(points_file: str) -> tuple[int, dict]:
    with open(points_file, encoding="utf-8") as fh:
        rows = _parse_json(fh.read())
    if not isinstance(rows, list):
        raise ValueError("a points file must hold a list of coordinate rows")
    points = [point_from_json(row) for row in rows]
    dim = len(points[0]) if points else 0
    if dim > MAX_TSHAPE_DIM:
        raise ValueError(
            f"points of dimension {dim} are above the limit of {MAX_TSHAPE_DIM}"
        )
    distinct = len(set(points))
    if comb(distinct, dim) > MAX_TSHAPE_CANDIDATES:
        raise ValueError(
            f"{distinct} distinct points in dimension {dim} span more "
            f"than the limit of {MAX_TSHAPE_CANDIDATES} candidate hyperplanes"
        )
    outcome = is_t_shaped(points)
    result: dict = {
        "points": [point_to_json(p) for p in points],
        "verdict": "yes" if outcome.t_shaped else "no",
        "detail": outcome.detail,
    }
    if outcome.certificate is not None:
        result["certificate"] = certificate_to_json(outcome.certificate)
    return 0, result


def cmd_certify(
    dim: int,
    colors: int,
    centers_text: str,
    r_list: list[int],
    r_factor: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, dict]:
    # the flags alone, and the largest window at centers of max-norm 0,
    # the smallest it can be, are checked before any center is read
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    check_schedule_args(colors, r_list, r_factor, budget)
    check_window_size(dim, r_factor * (max(r_list) + 1), at_least=True)
    centers = [checked_coordinates(row) for row in _center_rows(centers_text, dim)]
    dims = sorted({len(c) for c in centers})
    if len(dims) > 1:
        raise ValueError(f"centers have mixed dimensions {dims}")
    if dims and dims[0] != dim:
        raise ValueError(f"centers have dimension {dims[0]}, but --dim is {dim}")
    report = certify_schedule(centers, colors, r_list, r_factor=r_factor, budget=budget)
    return 0, {
        "dim": dim,
        "k": colors,
        "centers": points_to_json(centers),
        "rFactor": r_factor,
        "rows": report.rows,
    }


def cmd_coloring_scan(
    rule_spec: dict,
    centers_rows: list,
    samples: int,
    seed: int,
    inner_radius="0",
) -> tuple[int, dict]:
    if samples > MAX_SCAN_SAMPLES:
        raise ValueError(
            f"{samples} samples are more than the limit of {MAX_SCAN_SAMPLES}"
        )
    rule = build_rule(rule_spec)
    try:
        indented_json(rule_spec)  # the config echoes the rule, even keys no rule reads
    except TypeError:
        raise ValueError("a rule holds a float, which is inexact") from None
    centers = [point_from_json(row) for row in centers_rows]
    if not centers:
        raise ValueError("at least one center is required")
    report = symmetric_pair_scan(rule, centers, inner_radius, samples, seed)
    return (0 if not report["violations"] else 1), report


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to stdout, or to ``--out`` after creating its
    missing ancestor directories.  If they cannot all be made or the
    file cannot be opened, the ones made here are removed again, deepest
    first, and the OSError propagates."""
    target = _resolve_out(out_path)
    if target is None:
        sys.stdout.write(text)
        return
    missing = []  # deepest first
    parent = os.path.dirname(target)
    while parent and not os.path.isdir(parent):
        missing.append(parent)
        parent = os.path.dirname(parent)
    created = []
    try:
        for path in reversed(missing):
            if not os.path.isdir(path):  # "x/.." exists once x does
                os.mkdir(path)
                created.append(path)
        fh = open(target, "w", encoding="utf-8")
    except OSError:
        for path in reversed(created):
            os.rmdir(path)
        raise
    with fh:
        fh.write(text)


def emit_document(doc: dict, out_path: str | None) -> bool:
    """``emit`` a script's ``json.dumps(doc, indent=2, sort_keys=True)``;
    on an OSError print one ``error:`` line to stderr and return False."""
    try:
        emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return False
    return True


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call
    and reused: parsing writes only to the fresh namespace of each call,
    never to the parser.  Every parameter is a flag of it, named in
    full: no parser takes a prefix of a flag for the flag."""
    parser = argparse.ArgumentParser(
        prog="centerpole",
        description="Exact toolkit for sandwich sets, coverings, T-shapes, "
        "witness colorings, and window certification.",
        allow_abbrev=False,
    )
    parser.add_argument("--out", help="output file (JSON); default stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("sandwich", help="construct a sandwich point set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = command("cover-verify", help="run the covering verification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = command("tshape", help="decide T-shapedness of a point set")
    p.add_argument("--points", required=True, help="JSON file of coordinate rows")

    p = command("certify", help="window certification schedule")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--centers", required=True, help="JSON file or sandwich(k,s)")
    p.add_argument("--r-list", default="1", help="comma-separated inner radii")
    p.add_argument("--R-factor", dest="r_factor", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = command("coloring-scan", help="scan a coloring for violations")
    p.add_argument("--rule", required=True, help="JSON rule description or @file")
    p.add_argument("--centers", required=True, help="JSON file or sandwich(k,s)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inner-radius", default="0")
    return parser


def _load_rule_spec(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    return _parse_json(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        started = time.perf_counter()
        if args.command == "sandwich":
            config = {"command": "sandwich", "k": args.k, "s": args.s,
                      "format": args.format}
            code, result = cmd_sandwich(args.k, args.s, args.format)
        elif args.command == "cover-verify":
            config = {"command": "cover-verify", "k": args.k, "s": args.s}
            code, result = cmd_cover_verify(args.k, args.s)
        elif args.command == "tshape":
            config = {"command": "tshape", "points": args.points}
            code, result = cmd_tshape(args.points)
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
            centers_rows = _center_rows(args.centers)
            config = {"command": "coloring-scan", "rule": rule_spec,
                      "centers": centers_rows, "samples": args.samples,
                      "seed": args.seed, "innerRadius": args.inner_radius}
            code, result = cmd_coloring_scan(rule_spec, centers_rows,
                                             args.samples, args.seed,
                                             args.inner_radius)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")

        text = result
        if not isinstance(result, str):
            meta = {
                "generatedAt": datetime.now(timezone.utc).isoformat(),
                "runtimeMs": int((time.perf_counter() - started) * 1000),
            }
            envelope = {"config": config, "result": result, "meta": meta}
            text = indented_json(envelope) + "\n"
        emit(text, args.out)  # an unwritable --out is an OSError too
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
