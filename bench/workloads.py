"""The five benchmark workloads: seeded inputs, timed calls, verdict gate.

Each workload turns ``(seed, workdir, small)`` into a list of ``Item``s.
An item's ``run`` is the one call the benchmark times; ``result`` turns
its output into the canonical text of the ``result`` block, which must
repeat byte for byte on every pass; ``check`` compares the output with
``expect``, the verdict the benchmark knows independently of the
program.  Checks run after the timed pass, so the witness re-check of
Colorable windows costs nothing in ``wall_s``.

Only ``tshape_survey``, ``certify_colorable`` and ``coloring_scan``
read the seed; ``covering_sweep`` and ``certify_forced`` run the same
inputs on every seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from centerpole import certifier, cli, cube, tshape


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    result: Callable[[object], str]
    check: Callable[[object, dict], bool]
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    make_items: Callable[[int, str, bool], list[Item]]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# --- CLI-driven items -------------------------------------------------


def _cli_item(label: str, argv: list[str], check, expect: dict) -> Item:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return Item(label, run, _cli_result, check, expect)


def _cli_result(output) -> str:
    code, text = output
    return _canonical({"exit": code, "result": json.loads(text)["result"]})


def _write_json(workdir: str, name: str, value) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    return path


# --- covering_sweep ---------------------------------------------------


def _covering_check(output, expect: dict) -> bool:
    code, text = output
    result = json.loads(text)["result"]
    return code == 0 and result["failures"] == [] and result["total"] == expect["total"]


def covering_items(seed: int, workdir: str, small: bool) -> list[Item]:
    """``cover-verify`` for every (k, s) with k <= K and -1 <= s <= k-2.

    There is one maximal set per (facet axis, facet level, anchor,
    shape), so each (k, s) must report 4k(k+1) sets.
    """
    k_max = 3 if small else 6
    return [
        _cli_item(
            f"cover-verify k={k} s={s}",
            ["cover-verify", "--k", str(k), "--s", str(s)],
            _covering_check,
            {"total": 4 * k * (k + 1)},
        )
        for k in range(1, k_max + 1)
        for s in range(-1, k - 1)
    ]


# --- tshape_survey ----------------------------------------------------


def _tshape_result(outcome) -> str:
    cert = outcome.certificate
    return _canonical(
        {
            "verdict": "yes" if outcome.t_shaped else "no",
            "detail": outcome.detail,
            "certificate": tshape.certificate_to_json(cert) if cert else None,
        }
    )


def _tshape_check(outcome, expect: dict) -> bool:
    return outcome.t_shaped == expect["t_shaped"]


def _tshape_item(label: str, points, t_shaped: bool) -> Item:
    # looked up on every call so that a traced run sees its wrapper
    return Item(
        label,
        lambda: tshape.is_t_shaped(points),
        _tshape_result,
        _tshape_check,
        {"t_shaped": t_shaped},
    )


def tshape_items(seed: int, workdir: str, small: bool) -> list[Item]:
    """Random sets one point below the known t value, which must all be
    T-shaped, then the moment-curve witnesses, which must be refused.

    1000 calls per pass, so the 99th percentile has ten calls beyond it;
    dim 3 holds the median call and dim 4 the 99th percentile.
    """
    # (dimension, points per set = t value - 1, coordinate bound, sets)
    plan = [(2, 2, 20, 300), (3, 5, 12, 680), (4, 11, 9, 17)]
    if small:
        plan = [(2, 2, 20, 20), (3, 5, 12, 20), (4, 11, 9, 1)]
    rng = random.Random(seed)
    items = []
    for dim, size, bound, count in plan:
        for i in range(count):
            points = [
                tuple(rng.randint(-bound, bound) for _ in range(dim))
                for _ in range(size)
            ]
            items.append(_tshape_item(f"random dim={dim} #{i}", points, True))
    for n in (2, 3) if small else (2, 3, 4):
        size = n * n - n + 1
        witness = tshape.moment_curve_points(n, size, tuple(range(1, size + 1)))
        items.append(_tshape_item(f"moment-curve witness n={n}", witness, False))
    return items


# --- certify_colorable and certify_forced -----------------------------


def _certify_check(output, expect: dict) -> bool:
    """Verdicts and proof windows as expected; every Colorable row's
    witness re-checked edge by edge on a freshly built window."""
    code, text = output
    result = json.loads(text)["result"]
    rows = result["rows"]
    if code != 0:
        return False
    if [row["verdict"] for row in rows] != expect["verdicts"]:
        return False
    if [row["provedAtOuter"] for row in rows] != expect["provedAtOuter"]:
        return False
    centers = tuple(cube.LatticePoint(tuple(c)) for c in result["centers"])
    for row in rows:
        if row["verdict"] != "Colorable":
            continue
        spec = certifier.WindowSpec(
            dim=result["dim"], outer=row["outer"], inner=row["inner"], centers=centers
        )
        graph = certifier.build_symmetry_graph(spec)
        if not certifier.verify_witness(graph, result["k"], row["witness"]):
            return False
    return True


def _certify_argv(dim: int, colors: int, centers: str, r_list) -> list[str]:
    return [
        "certify", "--dim", str(dim), "--colors", str(colors),
        "--centers", centers, "--r-list", ",".join(str(r) for r in r_list),
    ]


def colorable_items(seed: int, workdir: str, small: bool) -> list[Item]:
    """Two-center families in Z^2 with two colors.

    Two reflections generate a group whose symmetry graph is bipartite,
    so every row is Colorable and proved on the full window,
    R = 3 (r + |c|_max + 1).  Both centers lie in [-3, 3]^2 and one has
    max-norm 3, so every family solves the same window sizes and the
    seed moves only where the edges fall.
    """
    families, r_list = (1, [1]) if small else (4, [1, 2, 3, 4])
    rng = random.Random(seed)
    items = []
    while len(items) < families:
        a = tuple(rng.randint(-3, 3) for _ in range(2))
        b = tuple(rng.randint(-3, 3) for _ in range(2))
        if a == b or max(map(abs, a + b)) != 3:
            continue
        centers = sorted([list(a), list(b)])
        path = _write_json(workdir, f"colorable-{len(items)}.json", centers)
        items.append(
            _cli_item(
                f"certify centers={centers}",
                _certify_argv(2, 2, path, r_list),
                _certify_check,
                {
                    "verdicts": ["Colorable"] * len(r_list),
                    "provedAtOuter": [3 * (r + 3 + 1) for r in r_list],
                },
            )
        )
    return items


def forced_items(seed: int, workdir: str, small: bool) -> list[Item]:
    """Schedules whose extra color is forced, with known proof windows.

    A single center with one color is forced on the first window,
    outer r+1, which already holds an antipodal pair.
    """
    cases = [
        (3, 3, "sandwich(2,0)", [1, 2], [4, 5]),
        (2, 2, "sandwich(1,-1)", [1, 2, 3], [4, 5, 6]),
    ]
    for dim in (1, 2, 3):
        origin = _write_json(workdir, f"origin-{dim}.json", [[0] * dim])
        cases.append((dim, 1, origin, [1], [2]))
    if small:
        cases = cases[1:]
    return [
        _cli_item(
            f"certify dim={dim} colors={colors} centers={os.path.basename(centers)}",
            _certify_argv(dim, colors, centers, r_list),
            _certify_check,
            {"verdicts": ["Forced"] * len(r_list), "provedAtOuter": proved},
        )
        for dim, colors, centers, r_list, proved in cases
    ]


# --- coloring_scan ----------------------------------------------------


def _scan_check(output, expect: dict) -> bool:
    code, text = output
    result = json.loads(text)["result"]
    return code == 0 and result["violations"] == [] and result["samples"] == expect["samples"]


def scan_items(seed: int, workdir: str, small: bool) -> list[Item]:
    """The cone rules in dims 1-4 and the eight lifted rules of the
    acceptance gate, each scanned with a seed drawn from the workload
    seed.  Every rule avoids monochromatic mirror pairs, so every scan
    must report zero violations."""
    cone_samples, lifted_samples = (200, 100) if small else (3000, 1200)
    cone2 = {"kind": "cone", "dim": 2}
    cone3 = {"kind": "cone", "dim": 3}
    rules = [
        ({"kind": "cone", "dim": d}, [[0] * d], cone_samples) for d in (1, 2, 3, 4)
    ]
    rules += [
        ({"kind": "halfspace", "center": [1, 2]}, [[1, 2]], lifted_samples),
        ({"kind": "pair", "a": [0, 0], "b": [2, 0]}, [[0, 0], [2, 0]], lifted_samples),
        ({"kind": "plus0", "base": cone2}, [[0, 0, 0]], lifted_samples),
        (
            {"kind": "plus1", "base": cone2, "aux2": {"kind": "halfspace", "center": [0, 0]}},
            [[0, 0, 0], [0, 0, 1]],
            lifted_samples,
        ),
    ]
    for v, w in ((1, 1), (1, 2), (2, 3), (3, 4)):
        added = [[1, 0, 0, v], [0, 1, 0, w]]
        rules.append(
            ({"kind": "plus2", "base": cone3, "A": added}, [[0, 0, 0, 0]] + added, lifted_samples)
        )
    rng = random.Random(seed)
    items = []
    for i, (spec, centers, samples) in enumerate(rules):
        cli.build_rule(spec)  # a malformed spec fails here, not in a timed pass
        rule_path = _write_json(workdir, f"rule-{i}.json", spec)
        centers_path = _write_json(workdir, f"centers-{i}.json", centers)
        scan_seed = rng.randrange(2**31)
        items.append(
            _cli_item(
                f"coloring-scan {spec['kind']} #{i}",
                [
                    "coloring-scan", "--rule", "@" + rule_path,
                    "--centers", centers_path, "--samples", str(samples),
                    "--seed", str(scan_seed),
                ],
                _scan_check,
                {"samples": samples},
            )
        )
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("covering_sweep", False, covering_items),
        Workload("tshape_survey", True, tshape_items),
        Workload("certify_colorable", True, colorable_items),
        Workload("certify_forced", False, forced_items),
        Workload("coloring_scan", True, scan_items),
    )
}
