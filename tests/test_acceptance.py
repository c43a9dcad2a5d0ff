"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each criterion runs as a single test so the verbose pytest report shows
one pass/fail line per claim.  On success the test also prints a
summary line with the measured figures (visible with -s or in captured
output).  Budgets are wall-clock upper bounds; the measured times are
far below them on commodity hardware.
"""
import random
import time
from fractions import Fraction
from itertools import product

import test_certifier
import test_colorings

from centerpole.certifier import (
    WindowSpec,
    build_symmetry_graph,
    certify_schedule,
    decide_k_colorable,
    verify_witness,
)
from centerpole.colorings import (
    cone_coloring,
    halfspace_coloring,
    pair_coloring,
    plus0_extension,
    plus1_extension,
    plus2_extension,
    standard_simplex,
    symmetric_pair_scan,
)
from centerpole.covering import verify_covering_lemma
from centerpole.cube import build_sandwich, sandwich_size
from centerpole.tshape import is_t_shaped, moment_curve_points


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def sorted_coords(sandwich) -> list[tuple[int, ...]]:
    return sorted(sandwich)


def test_criterion_1_sandwich_cardinalities_and_literals():
    started = time.perf_counter()

    assert len(build_sandwich(1, -1)) == 3
    assert len(build_sandwich(2, 0)) == 6
    assert len(build_sandwich(3, 0)) == 14
    assert len(build_sandwich(3, 1)) == 12
    assert sandwich_size(3, 0) == 14
    assert sandwich_size(3, 1) == 12

    assert sorted_coords(build_sandwich(1, -1)) == [(0, 0), (1, 0), (1, 1)]
    assert sorted_coords(build_sandwich(2, 0)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]
    assert sorted_coords(build_sandwich(0, -2)) == [(1,)]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"construction took {elapsed:.3f}s, budget 1s"
    report(1, f"cardinalities 3/6/14/12 and literal point sets in {elapsed:.3f}s")


def test_criterion_2_covering_sweep_has_zero_failures():
    started = time.perf_counter()
    checked = 0
    for k in range(1, 9):
        for s in range(-1, k - 1):
            outcome = verify_covering_lemma(k, s)
            assert outcome["failures"] == [], (k, s, outcome["failures"][:3])
            checked += outcome["total"]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, budget 120s"
    report(2, f"{checked} maximal sets over k=1..8, zero failures, {elapsed:.1f}s")


def test_criterion_3_t_shape_decisions():
    started = time.perf_counter()
    rng = random.Random(36101)

    for _ in range(500):
        points = [
            tuple(rng.randint(-20, 20) for _ in range(2)) for _ in range(2)
        ]
        assert is_t_shaped(points).t_shaped, points

    for _ in range(500):
        points = [
            tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(5)
        ]
        assert is_t_shaped(points).t_shaped, points

    for _ in range(100):
        points = [
            tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(11)
        ]
        assert is_t_shaped(points).t_shaped, points

    for n, size in ((2, 3), (3, 7), (4, 13)):
        witness = moment_curve_points(n, size, tuple(range(1, size + 1)))
        assert not is_t_shaped(witness).t_shaped, (n, size)

    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0, f"decisions took {elapsed:.1f}s, budget 600s"
    report(3, f"1100 random sets positive, 3 witnesses negative, {elapsed:.1f}s")


def test_criterion_4_window_certification():
    started = time.perf_counter()

    for dim in (1, 2, 3):
        schedule = certify_schedule([(0,) * dim], 1, [1])
        assert all(row["verdict"] == "Forced" for row in schedule.rows), dim

    rng = random.Random(20260)
    families = []
    while len(families) < 20:
        a = tuple(rng.randint(-3, 3) for _ in range(2))
        b = tuple(rng.randint(-3, 3) for _ in range(2))
        if a != b:
            families.append(sorted((a, b)))
    for centers in families:
        schedule = certify_schedule(centers, 2, [1, 2, 3, 4])
        assert all(row["verdict"] == "Colorable" for row in schedule.rows), centers

    planar = sorted(build_sandwich(1, -1))
    schedule = certify_schedule(planar, 2, [1, 2, 3], r_factor=3)
    assert [row["verdict"] for row in schedule.rows] == ["Forced"] * 3
    assert [row["provedAtOuter"] for row in schedule.rows] == [4, 5, 6]

    spatial = sorted(build_sandwich(2, 0))
    hard_start = time.perf_counter()
    schedule = certify_schedule(spatial, 3, [1, 2])
    hard_elapsed = time.perf_counter() - hard_start
    assert [row["verdict"] for row in schedule.rows] == ["Forced"] * 2
    assert [row["provedAtOuter"] for row in schedule.rows] == [4, 5]
    assert hard_elapsed < 900.0, f"3-color run took {hard_elapsed:.1f}s, budget 900s"

    elapsed = time.perf_counter() - started
    report(4, f"forced/colorable schedules as claimed, 3-color case {hard_elapsed:.1f}s, total {elapsed:.1f}s")


def test_criterion_5_coloring_rules():
    started = time.perf_counter()

    sampled = 0
    for dim in (1, 2, 3, 4):
        outcome = symmetric_pair_scan(
            cone_coloring(standard_simplex(dim)),
            [(0,) * dim],
            inner_radius=0,
            samples=25_000,
            seed=100 + dim,
        )
        assert outcome["violations"] == [], (dim, outcome["violations"][:3])
        sampled += outcome["samples"]
    assert sampled == 100_000

    # every branch of the lifted rules, re-run from the focused suite
    test_colorings.TestPlus0().test_level_semantics()
    plus1_probes = test_colorings.TestPlus1()
    plus1_probes.test_pinned_levels()
    plus1_probes.test_bands()
    levels_equal = test_colorings.TestPlus2LevelsEqual()
    levels_equal.test_pinned_levels()
    levels_equal.test_bands()
    story_v1 = test_colorings.TestPlus2VEqualsOne()
    story_v1.test_pinned_levels_against_primitives()
    story_v1.test_bands()
    story_v1.test_every_middle_level_branch_is_hit()
    story_v2 = test_colorings.TestPlus2VEqualsTwo()
    story_v2.test_pinned_levels_against_primitives()
    story_v2.test_bands()
    generic = test_colorings.TestPlus2GenericV()
    generic.test_pinned_levels_against_primitives()
    generic.test_bands()

    cone2 = cone_coloring(standard_simplex(2))
    cone3 = cone_coloring(standard_simplex(3))
    scans = [
        (halfspace_coloring((1, 2)), [(1, 2)], 31),
        (pair_coloring((0, 0), (2, 0)), [(0, 0), (2, 0)], 32),
        (plus0_extension(cone2), [(0, 0, 0)], 33),
        (
            plus1_extension(cone2, halfspace_coloring((0, 0))),
            [(0, 0, 0), (0, 0, 1)],
            34,
        ),
    ]
    for seed_offset, (v, w) in enumerate(((1, 1), (1, 2), (2, 3), (3, 4))):
        added = [(1, 0, 0, v), (0, 1, 0, w)]
        scans.append(
            (plus2_extension(cone3, added), [(0, 0, 0, 0)] + added, 41 + seed_offset)
        )
    for rule, centers, seed in scans:
        outcome = symmetric_pair_scan(
            rule, centers, inner_radius=0, samples=2000, seed=seed
        )
        assert outcome["violations"] == [], (rule.label, outcome["violations"][:3])

    elapsed = time.perf_counter() - started
    report(5, f"100000 cone samples clean, all lifted branches probed, {elapsed:.1f}s")


def test_criterion_6_structural_invariants():
    started = time.perf_counter()
    rng = random.Random(60640)

    def random_affine_map():
        while True:
            matrix = [
                [
                    Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            if matrix[0][0] * matrix[1][1] != matrix[0][1] * matrix[1][0]:
                shift = tuple(
                    Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                    for _ in range(2)
                )
                return matrix, shift

    def apply_map(matrix, shift, points):
        return [
            tuple(
                sum(m * Fraction(c) for m, c in zip(row, p)) + t
                for row, t in zip(matrix, shift)
            )
            for p in points
        ]

    two_points = [(1, 2), (-3, 5)]
    witness = moment_curve_points(2, 3, (1, 2, 3))
    for _ in range(50):
        matrix, shift = random_affine_map()
        assert is_t_shaped(apply_map(matrix, shift, two_points)).t_shaped
        matrix, shift = random_affine_map()
        assert not is_t_shaped(apply_map(matrix, shift, witness)).t_shaped

    shaped_count = 0
    for _ in range(40):
        size = rng.randint(2, 5)
        points = [
            tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(size)
        ]
        if not is_t_shaped(points).t_shaped:
            continue
        shaped_count += 1
        for drop in range(size):
            subset = points[:drop] + points[drop + 1 :]
            assert is_t_shaped(subset).t_shaped, (points, drop)
    assert shaped_count > 0

    for _ in range(30):
        n = rng.randint(2, 8)
        edges = sorted(
            {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(1, 2 * n))
            }
        )
        k = rng.choice((2, 3))
        graph = test_certifier.graph_from_edges(n, edges)
        verdict = decide_k_colorable(graph, k)
        assert verdict.kind != "Unknown"
        if verdict.kind == "Colorable":
            assert verify_witness(graph, k, verdict.witness)
            tampered = list(verdict.witness)
            i, j = test_certifier.edges_of(graph)[0]
            tampered[i] = tampered[j]
            assert not verify_witness(graph, k, tampered)

    # a signed permutation of Z^2 maps the window about the origin onto
    # itself, so it preserves the window graph of a center set
    base = sorted(build_sandwich(1, -1))
    base_centers = tuple(base)
    images = [
        tuple(sorted(tuple(s * p[i] for s, i in zip(signs, order)) for p in base))
        for order in ((0, 1), (1, 0))
        for signs in product((1, -1), repeat=2)
    ]
    assert len(images) == 8
    for inner in (1, 2):
        graph_home = build_symmetry_graph(
            WindowSpec(dim=2, outer=inner + 4, inner=inner, centers=base_centers)
        )
        verdict_home = decide_k_colorable(graph_home, 2)
        for moved in images:
            graph_away = build_symmetry_graph(
                WindowSpec(dim=2, outer=inner + 4, inner=inner, centers=moved)
            )
            assert graph_home.vertex_count == graph_away.vertex_count
            assert graph_home.edge_count == graph_away.edge_count
            verdict_away = decide_k_colorable(graph_away, 2)
            assert verdict_home.kind == verdict_away.kind

    agreements = 0
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = sorted(
            {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(1, 2 * n))
            }
        )
        k = rng.choice((2, 3))
        graph = test_certifier.graph_from_edges(n, edges)
        num_vars, clauses = test_certifier.parse_dimacs(
            test_certifier.export_dimacs(graph, k)
        )
        sat = test_certifier.dpll(num_vars, clauses)
        verdict = decide_k_colorable(graph, k)
        assert verdict.kind != "Unknown"
        assert sat == (verdict.kind == "Colorable"), (n, edges, k)
        agreements += 1
    assert agreements == 50

    elapsed = time.perf_counter() - started
    report(6, f"invariance, soundness, and 50 DIMACS round trips, {elapsed:.1f}s")
