"""Symmetry-window graphs, exact verdicts, schedules, DIMACS round trips."""

import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import centerpole.certifier as certifier
from centerpole.certifier import (
    ScheduleReport,
    SymmetryGraph,
    VerdictKind,
    WindowSpec,
    build_symmetry_graph,
    certify_schedule,
    decide_k_colorable,
    verify_witness,
)
from centerpole.cube import build_sandwich


def sandwich_centers(k, s):
    """The (k, s) sandwich in sorted order, as certifier centers."""
    return tuple(sorted(build_sandwich(k, s)))


def plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


def graph_from_edges(n, edges):
    """Wrap an explicit edge list for solver-level tests."""
    return SymmetryGraph(
        vertex_count=n, edges=tuple(sorted(tuple(sorted(e)) for e in edges))
    )


def outer_of(graph, dim, inner):
    """The outer radius of a window graph of this dimension and inner
    radius, read from its (2 outer + 1)^dim - (2 inner + 1)^dim vertices."""
    outer = inner + 1
    while (2 * outer + 1) ** dim - (2 * inner + 1) ** dim < graph.vertex_count:
        outer += 1
    assert (2 * outer + 1) ** dim - (2 * inner + 1) ** dim == graph.vertex_count
    return outer


PATH4 = [(0, 1), (1, 2), (2, 3)]
CYCLE5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
PETERSEN = (
    CYCLE5
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)
# the Groetzsch graph (Mycielski's graph of the 5-cycle): triangle-free,
# so a pinned clique has two vertices, and 4-chromatic, so its 3-color
# refutation needs decisions
GROETZSCH = (
    CYCLE5
    + [(5 + i, (i + 4) % 5) for i in range(5)]
    + [(5 + i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 10) for i in range(5)]
)
# 3-colorable, but every 3-coloring gives 4 and 5 one color; they lie at
# the dense end of the core numbering (6, 5, 4, ...), beside the pinned
# edge 6-5, so a pin of three vertices that skipped the adjacency test
# would call this graph Forced
TWINS = [
    (0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4),
    (2, 3), (2, 6), (3, 5), (4, 6), (5, 6),
]
# a tree on 0..3 hangs off a 5-cycle on 4..8, so a walk from vertex 0
# crosses the tree before it meets the odd cycle
CYCLE5_WITH_TREE = [(0, 1), (1, 2), (2, 3), (2, 4)] + [
    (a + 4, b + 4) for a, b in CYCLE5
]


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(dim=0, outer=1, inner=0, centers=((),))
        with pytest.raises(ValueError):
            WindowSpec(dim=1, outer=1, inner=1, centers=((0,),))
        with pytest.raises(ValueError):
            WindowSpec(dim=1, outer=2, inner=0, centers=())
        with pytest.raises(ValueError):
            WindowSpec(dim=1, outer=2, inner=0, centers=((5,),))
        with pytest.raises(ValueError, match="wrong dimension"):
            WindowSpec(dim=2, outer=2, inner=0, centers=((0,),))

    def test_a_window_checks_its_outer_bound_and_no_center(self, monkeypatch):
        centers = sandwich_centers(2, 0)
        calls = []
        check = certifier.checked_coordinates

        def counted(values):
            calls.append(values)
            return check(values)

        monkeypatch.setattr(certifier, "checked_coordinates", counted)
        WindowSpec(dim=3, outer=4, inner=1, centers=centers)
        assert calls == [(-4, 4)]
        calls.clear()
        # one call per window solved, for its +-outer, and none per center
        (row,) = certify_schedule(centers, 2, [1]).rows
        assert len(calls) == row.windows_solved
        assert all(low == -high for low, high in calls)

    def test_shifted_window_admits_shifted_centers(self):
        # the window about 9 with center 10 is the window of center 1
        spec = WindowSpec(dim=1, outer=3, inner=0, centers=((1,),))
        graph = build_symmetry_graph(spec)
        points, edges = reference_symmetry_graph(spec, ((10,),), (9,))
        assert list(points) == [(6,), (7,), (8,), (10,), (11,), (12,)]
        assert (graph.vertex_count, graph.edges) == (len(points), edges) == (6, ((2, 5),))


class TestGraphConstruction:
    def test_single_center_line_window(self):
        spec = WindowSpec(dim=1, outer=2, inner=0, centers=((0,),))
        graph = build_symmetry_graph(spec)
        points, _ = reference_symmetry_graph(spec, spec.centers, (0,))
        assert list(points) == [(-2,), (-1,), (1,), (2,)]
        assert graph.edges == ((0, 3), (1, 2))
        assert graph.vertex_count == 4 and graph.edge_count == 2

    def test_annulus_excludes_the_inner_ball(self):
        spec = WindowSpec(dim=2, outer=2, inner=1, centers=((0, 0),))
        graph = build_symmetry_graph(spec)
        points, _ = reference_symmetry_graph(spec, spec.centers, (0, 0))
        assert all(max(map(abs, v)) == 2 for v in points)
        assert graph.vertex_count == 5**2 - 3**2

    def test_mirrors_landing_outside_create_no_edge(self):
        # center at the window edge: most mirrors leave the annulus
        spec = WindowSpec(dim=1, outer=2, inner=0, centers=((2,),))
        graph = build_symmetry_graph(spec)
        assert graph.edges == ()

    def test_adjacency_is_symmetric(self):
        graph = graph_from_edges(4, PATH4)
        adj = graph.adjacency()
        assert adj == [[1], [0, 2], [1, 3], [2]]


def reference_symmetry_graph(spec, centers, z):
    """Point-by-point build of the window about z with the given mirror
    centers, from coordinate arithmetic and a coordinate index: the
    definition that the flat-index build of ``centers - z`` must reproduce.
    Points, z and centers are coordinate tuples.  Only the dimension and
    radii of spec are read."""
    verts = []
    for coords in product(range(-spec.outer, spec.outer + 1), repeat=spec.dim):
        if spec.inner < max(map(abs, coords)) <= spec.outer:
            verts.append(plus(coords, z))
    verts.sort()
    index = {p: i for i, p in enumerate(verts)}
    edges = set()
    for i, p in enumerate(verts):
        for c in centers:
            j = index.get(tuple(2 * a - b for a, b in zip(c, p)))
            if j is not None and j != i:
                edges.add((i, j) if i < j else (j, i))
    return tuple(verts), tuple(sorted(edges))


@st.composite
def translated_windows(draw):
    """A window spec and a translation z."""
    dim = draw(st.integers(1, 3))
    outer = draw(st.integers(1, (6, 5, 3)[dim - 1]))
    inner = draw(st.integers(0, outer - 1))
    z = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    # +-outer puts a center on the window's boundary; repeats are allowed
    coordinate = st.integers(-outer, outer) | st.sampled_from((-outer, outer))
    centers = draw(
        st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=4)
    )
    spec = WindowSpec(
        dim=dim,
        outer=outer,
        inner=inner,
        centers=tuple(centers),
    )
    return spec, z


class TestFlatIndexBuild:
    @given(translated_windows())
    @example(
        # mirror centers on the boundary of a window about (5, -3)
        (
            WindowSpec(dim=2, outer=3, inner=1, centers=((3, 0), (-3, 3), (3, 3))),
            (5, -3),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_build(self, window):
        # build(C) is the reference window about z of C + z
        spec, z = window
        graph = build_symmetry_graph(spec)
        points, edges = reference_symmetry_graph(
            spec, [plus(c, z) for c in spec.centers], z
        )
        assert (graph.vertex_count, graph.edges) == (len(points), edges)


class TestWitnessVerification:
    def test_accepts_proper_colorings_only(self):
        graph = graph_from_edges(4, PATH4)
        assert verify_witness(graph, 2, [0, 1, 0, 1])
        assert not verify_witness(graph, 2, [0, 1, 1, 0])
        assert not verify_witness(graph, 2, [0, 1, 0])
        assert not verify_witness(graph, 2, [0, 1, 0, 2])


def components(adj):
    """The connected components of an adjacency list, each in BFS order."""
    comps, seen = [], set()
    for start in range(len(adj)):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append(comp)
    return comps


def reference_smallest_last(adj, vertices):
    """The removal order of smallest-last on the subgraph induced by
    vertices, by brute force, with each vertex's degree at its removal."""
    left = set(vertices)
    order, degrees = [], []
    while left:
        d, v = min((sum(u in left for u in adj[v]), v) for v in left)
        order.append(v)
        degrees.append(d)
        left.remove(v)
    return order, degrees


def pinned_units(monkeypatch):
    """Record the literal of each unit clause of each formula a solver is
    built from; in a k-color core, literal l sets color c of block i for
    ``divmod(l >> 1, k) == (i, c)``."""
    units = []
    init = certifier.sat.Solver.__init__

    def spy(solver, num_vars, clauses):
        clauses = [list(lits) for lits in clauses]
        units.extend(lits[0] for lits in clauses if len(lits) == 1)
        init(solver, num_vars, clauses)

    monkeypatch.setattr(certifier.sat.Solver, "__init__", spy)
    return units


class TestCoreNumbering:
    @pytest.mark.parametrize(
        "dim,outer,k,centers",
        [(3, 4, 3, sandwich_centers(2, 0)), (2, 5, 2, sandwich_centers(1, -1))],
    )
    def test_the_numbering_is_a_smallest_last_order(self, dim, outer, k, centers):
        graph = build_symmetry_graph(
            WindowSpec(dim=dim, outer=outer, inner=1, centers=centers)
        )
        adj = graph.adjacency()
        rng = random.Random(7)
        cases = [(adj, comp) for comp in components(adj)]
        for _ in range(30):
            n = rng.randint(1, 12)
            edges = [e for e in product(range(n), repeat=2) if e[0] < e[1]]
            some = graph_from_edges(n, rng.sample(edges, rng.randint(0, len(edges))))
            cases += [(some.adjacency(), comp) for comp in components(some.adjacency())]
        cored = 0
        for adj, comp in cases:
            core, peeled = certifier._smallest_last(adj, comp, k)
            order, degrees = reference_smallest_last(adj, comp)
            assert peeled + core[::-1] == order
            # the peel is the run of removals below degree k, and the core
            # numbering is smallest-last on the core alone, reversed
            assert all(d < k for d in degrees[: len(peeled)])
            assert not core or degrees[len(peeled)] >= k
            assert reference_smallest_last(adj, core)[0] == core[::-1]
            inside = set(core)
            assert all(sum(u in inside for u in adj[v]) >= k for v in core)
            cored += bool(core)
        assert cored > 0

    @pytest.mark.parametrize(
        "graph,k,pins",
        [
            (graph_from_edges(4, K4), 3, [3]),
            (graph_from_edges(11, GROETZSCH), 3, [2]),
            (graph_from_edges(10, PETERSEN), 3, [2]),
            (graph_from_edges(5, list(combinations(range(5), 2))), 4, [4]),
            # each core of a window is pinned on its own solver
            (
                build_symmetry_graph(
                    WindowSpec(dim=3, outer=3, inner=1, centers=sandwich_centers(2, 0))
                ),
                3,
                [2, 2],
            ),
            (
                build_symmetry_graph(
                    WindowSpec(dim=4, outer=3, inner=1, centers=sandwich_centers(3, 1))
                ),
                4,
                [2] * 11 + [3] + [2] * 3 + [3],
            ),
        ],
        ids=["K4", "Groetzsch", "Petersen", "K5", "spatial-window", "4d-window"],
    )
    def test_the_pin_is_a_clique_grown_from_the_dense_end(
        self, graph, k, pins, monkeypatch
    ):
        units = pinned_units(monkeypatch)
        cliques = []
        solve = certifier._cdcl_core

        def spy(adj, core, k, budget):
            before = len(units)
            got = solve(adj, core, k, budget)
            assert all(lit % 2 == 0 for lit in units[before:])  # each sets a color
            pinned = [divmod(lit >> 1, k) for lit in units[before:]]
            assert [c for _, c in pinned] == list(range(len(pinned)))
            nbrs = [{core.index(u) for u in adj[v] if u in core} for v in core]
            clique = [i for i, _ in pinned]
            assert clique[0] == 0
            for p in range(1, len(clique)):
                common = set.intersection(*(nbrs[j] for j in clique[:p]))
                assert clique[p] == min(common)
            common = set.intersection(*(nbrs[j] for j in clique))
            assert len(clique) == k or not common
            cliques.append([core[i] for i in clique])
            return got

        monkeypatch.setattr(certifier, "_cdcl_core", spy)
        verdict = decide_k_colorable(graph, k)
        assert [len(clique) for clique in cliques] == pins
        edges = set(graph.edges)
        for clique in cliques:
            assert all(pair in edges for pair in combinations(sorted(clique), 2))
            if verdict.witness is not None:
                assert [verdict.witness[v] for v in clique] == list(range(len(clique)))

    def test_a_pinned_k_plus_one_clique_is_refuted_without_decisions(self):
        verdict = decide_k_colorable(graph_from_edges(4, K4), 3)
        assert verdict.kind is VerdictKind.FORCED
        assert (verdict.stats.decisions, verdict.stats.conflicts) == (0, 0)


class TestDecision:
    def test_rejects_nonpositive_color_count(self):
        with pytest.raises(ValueError):
            decide_k_colorable(graph_from_edges(1, []), 0)

    def test_one_color(self):
        assert (
            decide_k_colorable(graph_from_edges(3, []), 1).kind
            is VerdictKind.COLORABLE
        )
        assert (
            decide_k_colorable(graph_from_edges(2, [(0, 1)]), 1).kind
            is VerdictKind.FORCED
        )

    @pytest.mark.parametrize(
        "edges,n,k,expected",
        [
            (PATH4, 4, 2, VerdictKind.COLORABLE),
            (CYCLE5, 5, 2, VerdictKind.FORCED),
            (CYCLE5, 5, 3, VerdictKind.COLORABLE),
            (K4, 4, 3, VerdictKind.FORCED),
            (K4, 4, 4, VerdictKind.COLORABLE),
            (PETERSEN, 10, 2, VerdictKind.FORCED),
            (PETERSEN, 10, 3, VerdictKind.COLORABLE),
            (TWINS, 7, 3, VerdictKind.COLORABLE),
        ],
    )
    def test_known_graphs(self, edges, n, k, expected):
        graph = graph_from_edges(n, edges)
        verdict = decide_k_colorable(graph, k)
        assert verdict.kind is expected
        if expected is VerdictKind.COLORABLE:
            assert verify_witness(graph, k, verdict.witness)
        else:
            assert verdict.witness is None

    @pytest.mark.parametrize(
        "edges,n,k,expected",
        [
            (CYCLE5, 5, 2, VerdictKind.FORCED),
            (CYCLE5, 5, 3, VerdictKind.COLORABLE),
            (K4, 4, 3, VerdictKind.FORCED),
            (PETERSEN, 10, 3, VerdictKind.COLORABLE),
            (CYCLE5_WITH_TREE, 9, 2, VerdictKind.FORCED),
        ],
    )
    def test_conflict_learning_engine_agrees(self, edges, n, k, expected):
        # k = 2 takes the parity route and never decides; every other k
        # decides the peeled core with the clause-learning engine
        graph = graph_from_edges(n, edges)
        verdict = decide_k_colorable(graph, k)
        assert verdict.kind is expected
        if expected is VerdictKind.COLORABLE:
            assert verify_witness(graph, k, verdict.witness)
        else:
            assert verdict.witness is None
        if k == 2:
            assert verdict.stats.decisions == 0

    @pytest.mark.parametrize(
        "edges,n,size",
        [
            (CYCLE5_WITH_TREE, 9, 9),
            (PATH4 + [(a + 4, b + 4) for a, b in CYCLE5], 9, 5),
            ([(0, 1), (1, 2), (0, 2), (3, 4)], 5, 3),
        ],
    )
    def test_two_colors_forced_names_the_component_of_the_first_clash(
        self, edges, n, size
    ):
        verdict = decide_k_colorable(graph_from_edges(n, edges), 2)
        assert verdict.kind is VerdictKind.FORCED
        assert verdict.detail == f"component of size {size} has an odd cycle"
        assert verdict.witness is None

    def test_two_colors_check_each_edge_in_one_verify_witness_call(self, monkeypatch):
        calls = []
        check = certifier.verify_witness

        def spy(graph, k, witness):
            calls.append(k)
            return check(graph, k, witness)

        monkeypatch.setattr(certifier, "verify_witness", spy)
        verdict = decide_k_colorable(graph_from_edges(4, PATH4), 2)
        assert verdict.kind is VerdictKind.COLORABLE
        assert verdict.witness == (0, 1, 0, 1)
        assert verdict.detail == "proper 2-coloring found and re-verified"
        assert calls == [2]

    def test_a_failed_two_color_check_without_a_clash_is_an_internal_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(certifier, "verify_witness", lambda graph, k, w: False)
        with pytest.raises(RuntimeError, match="witness failed re-verification"):
            decide_k_colorable(graph_from_edges(4, PATH4), 2)

    def test_the_two_color_check_is_the_decision(self, monkeypatch):
        # a check that passes every parity makes an odd cycle Colorable:
        # no other scan of the edges decides the window
        monkeypatch.setattr(certifier, "verify_witness", lambda graph, k, w: True)
        verdict = decide_k_colorable(graph_from_edges(9, CYCLE5_WITH_TREE), 2)
        assert verdict.kind is VerdictKind.COLORABLE

    def test_forest_has_an_empty_core_and_needs_no_decisions(self):
        forest = [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7)]
        graph = graph_from_edges(9, forest)
        verdict = decide_k_colorable(graph, 3, budget=0)
        assert verdict.kind is VerdictKind.COLORABLE
        assert verify_witness(graph, 3, verdict.witness)
        assert verdict.stats.decisions == 0

    def test_budget_exhaustion_is_reported_not_guessed(self):
        graph = graph_from_edges(11, GROETZSCH)
        needed = decide_k_colorable(graph, 3).stats.decisions
        assert needed > 0
        for budget in (0, needed - 1):
            verdict = decide_k_colorable(graph, 3, budget=budget)
            assert verdict.kind is VerdictKind.UNKNOWN
            assert verdict.witness is None
            assert "budget" in verdict.detail
        assert decide_k_colorable(graph, 3, budget=needed).kind is VerdictKind.FORCED

    def test_stats_reflect_the_graph(self):
        graph = graph_from_edges(5, CYCLE5)
        verdict = decide_k_colorable(graph, 3)
        assert verdict.stats.vertices == 5
        assert verdict.stats.edges == 5
        assert verdict.stats.decisions >= 0

    def test_exhaustive_cross_check_on_random_graphs(self, monkeypatch):
        units = pinned_units(monkeypatch)
        rng = random.Random(2024)
        cases = []
        for _ in range(40):
            n = rng.randint(1, 7)
            density = rng.random()
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < density
            ]
            cases.append((n, edges, (rng.randint(1, 3), 4)))
        # a planted k-clique lets the pin grow to k vertices
        for k in (3, 4):
            for _ in range(30):
                n = rng.randint(k, 8)
                density = rng.random()
                planted = combinations(sorted(rng.sample(range(n), k)), 2)
                edges = sorted(
                    set(planted)
                    | {e for e in combinations(range(n), 2) if rng.random() < density}
                )
                cases.append((n, edges, (k,)))
        widest_pins = set()
        for n, edges, ks in cases:
            graph = graph_from_edges(n, edges)
            for k in ks:
                before = len(units)
                verdict = decide_k_colorable(graph, k)
                brute = any(
                    all(colors[a] != colors[b] for a, b in edges)
                    for colors in product(range(k), repeat=n)
                )
                expected = (
                    VerdictKind.COLORABLE if brute else VerdictKind.FORCED
                )
                assert verdict.kind is expected, (n, edges, k)
                if k <= 2:
                    assert verdict.stats.decisions == 0
                if brute:
                    assert verify_witness(graph, k, verdict.witness)
                colors = {(lit >> 1) % k for lit in units[before:]}
                widest_pins.add((k, len(colors)))
        assert {(3, 3), (4, 4)} <= widest_pins

    @pytest.mark.parametrize(
        "dim,k,centers",
        [(3, 3, sandwich_centers(2, 0)), (4, 4, sandwich_centers(3, 1))],
    )
    def test_colorable_windows_do_not_depend_on_the_component_order(
        self, dim, k, centers
    ):
        # each component has its own solver, and a peeled vertex reads only
        # neighbours in its own component, so solving the components
        # smallest first gives the same witness and summed counts
        graph = build_symmetry_graph(
            WindowSpec(dim=dim, outer=3, inner=1, centers=centers)
        )
        adj = graph.adjacency()
        comps = sorted(components(adj), key=lambda c: (len(c), c[0]))
        witness = [-1] * graph.vertex_count
        decisions = conflicts = solved = 0
        for comp in comps:
            core, peeled = certifier._smallest_last(adj, comp, k)
            if core:
                got, spent, clashes, exhausted = certifier._cdcl_core(
                    adj, core, k, certifier.DEFAULT_BUDGET
                )
                assert got is not None and not exhausted
                decisions += spent
                conflicts += clashes
                solved += 1
                for v, c in zip(core, got):
                    witness[v] = c
            for v in reversed(peeled):
                taken = {witness[u] for u in adj[v]}
                witness[v] = min(c for c in range(k) if c not in taken)
        assert solved >= 2 and decisions > 0

        verdict = decide_k_colorable(graph, k)
        assert verdict.kind is VerdictKind.COLORABLE
        assert verdict.witness == tuple(witness)
        assert (verdict.stats.decisions, verdict.stats.conflicts) == (
            decisions,
            conflicts,
        )


class TestTranslationInvariance:
    def test_shifted_problems_get_identical_verdicts(self):
        # the window about z of C + z, built point by point, gets the
        # verdict of the window about the origin of C
        centers = sandwich_centers(1, -1)
        shift = (3, -2)
        for inner in (1, 2):
            spec = WindowSpec(dim=2, outer=inner + 3, inner=inner, centers=centers)
            points, edges = reference_symmetry_graph(
                spec, [plus(c, shift) for c in centers], shift
            )
            moved = SymmetryGraph(vertex_count=len(points), edges=edges)
            a = decide_k_colorable(build_symmetry_graph(spec), 2)
            b = decide_k_colorable(moved, 2)
            assert a.kind is b.kind
            assert a.stats.vertices == b.stats.vertices
            assert a.stats.edges == b.stats.edges


class TestSchedule:
    def test_single_center_is_forced_for_one_color(self):
        report = certify_schedule([(0,)], 1, [1])
        assert isinstance(report, ScheduleReport)
        assert report.dim == 1 and report.k == 1
        row = report.rows[0]
        assert row.inner == 1
        assert row.outer == 3 * (1 + 0 + 1)
        assert row.verdict.kind is VerdictKind.FORCED
        assert row.proved_at_outer == 2

    def test_forced_schedule_with_escalation(self):
        centers = sandwich_centers(1, -1)
        report = certify_schedule(centers, 2, [1, 2, 3])
        assert [row.verdict.kind for row in report.rows] == [
            VerdictKind.FORCED
        ] * 3
        assert [row.proved_at_outer for row in report.rows] == [4, 5, 6]
        assert [row.outer for row in report.rows] == [9, 12, 15]

    def test_colorable_pair_of_centers(self):
        centers = [(0, 0), (3, 0)]
        report = certify_schedule(centers, 2, [1], r_factor=1)
        row = report.rows[0]
        assert row.verdict.kind is VerdictKind.COLORABLE
        assert row.proved_at_outer == row.outer == 5
        spec = WindowSpec(dim=2, outer=5, inner=1, centers=tuple(centers))
        graph = build_symmetry_graph(spec)
        assert verify_witness(graph, 2, row.verdict.witness)

    def test_unknown_rows_survive_exhaustion(self):
        centers = sandwich_centers(2, 0)
        report = certify_schedule(centers, 3, [1], budget=0, r_factor=1)
        assert report.rows[0].verdict.kind is VerdictKind.UNKNOWN

    def test_needs_centers(self):
        with pytest.raises(ValueError):
            certify_schedule([], 2, [1])

    def test_needs_an_inner_radius(self, monkeypatch):
        built = []
        monkeypatch.setattr(certifier, "build_symmetry_graph", built.append)
        for r_list in ([], iter(())):
            with pytest.raises(ValueError, match="at least one inner radius is required"):
                certify_schedule([(0,)], 1, r_list)
        assert built == []

    def test_refuses_a_color_count_below_one_before_building_any(self, monkeypatch):
        built = []
        monkeypatch.setattr(certifier, "build_symmetry_graph", built.append)
        for k in (0, -1):
            with pytest.raises(ValueError, match="color count must be positive"):
                certify_schedule([(0, 0)], k, [40])
        assert built == []

    def test_refuses_a_negative_inner_radius_before_building_any(self, monkeypatch):
        built = []
        monkeypatch.setattr(certifier, "build_symmetry_graph", built.append)
        with pytest.raises(ValueError, match="inner radius must be non-negative, got -1"):
            certify_schedule(sandwich_centers(1, -1), 2, [1, -1])
        assert built == []

    def test_rejects_r_factor_below_one(self):
        with pytest.raises(ValueError, match="R factor"):
            certify_schedule([(0,)], 1, [1], r_factor=0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            certify_schedule([(0,)], 1, [1], budget=-1)

    def test_refuses_a_large_window_before_building_any(self, monkeypatch):
        built = []
        monkeypatch.setattr(certifier, "build_symmetry_graph", built.append)
        # R = 3 * (1000 + 0 + 1): 6007^2 points; the small row comes first
        with pytest.raises(ValueError, match="outer radius 3003 in dimension 2"):
            certify_schedule([(0, 0)], 2, [1, 1000])
        assert built == []


# Forced at outer 6, 7, 8 for r = 1, 2, 3 with k = 2, while the escalation
# starts at outer 4, 5, 6: the smallest Forced window lies above the first
# two galloping probes, so it is found by bisection.
LATE_FORCED = [(-1, -1), (-1, 0), (1, 2)]


def linear_schedule(centers, k, r_list, r_factor=3):
    """Scan every outer radius from r + max norm + 1 up to R and stop at
    the first Forced window: the order the galloping search must match."""
    max_norm = max(max(map(abs, c)) for c in centers)
    rows = []
    for r in r_list:
        outer = r_factor * (r + max_norm + 1)
        for trial in range(r + max_norm + 1, outer + 1):
            spec = WindowSpec(
                dim=len(centers[0]), outer=trial, inner=r, centers=tuple(centers)
            )
            verdict = certifier.decide_k_colorable(
                certifier.build_symmetry_graph(spec), k
            )
            if verdict.kind is VerdictKind.FORCED:
                break
        rows.append((trial, verdict))
    return rows


def row_summary(proved_at, verdict):
    stats = verdict.stats
    return (
        verdict.kind,
        proved_at,
        verdict.witness,
        verdict.detail,
        (stats.vertices, stats.edges, stats.decisions),
    )


@pytest.fixture
def solved(monkeypatch):
    """The outer radii of the windows built, in order."""
    outers = []
    build = certifier.build_symmetry_graph

    def recording_build(spec):
        outers.append(spec.outer)
        return build(spec)

    monkeypatch.setattr(certifier, "build_symmetry_graph", recording_build)
    return outers


class TestGallopingEscalation:
    @pytest.mark.parametrize(
        "centers,k,r_list,r_factor",
        [
            ([(0,)], 1, [0, 1, 2], 3),
            ([(0, 0)], 1, [1], 3),
            (sandwich_centers(1, -1), 2, [1, 2, 3], 3),
            (LATE_FORCED, 2, [1, 2, 3], 3),
            ([(0, 0), (3, 0)], 2, [1, 2], 2),
            ([(0,), (1,), (3,)], 2, [0, 1, 2], 3),
            ([(-1, -1, -1), (0, -1, 0), (0, 1, 1)], 2, [0, 1, 2], 3),
            ([(0, 0, 0), (1, 1, 1)], 2, [0, 1], 2),
            (LATE_FORCED, 3, [1], 3),
            ([(0, 0), (2, 1), (1, 3)], 3, [0, 1], 2),
        ],
    )
    def test_matches_the_linear_scan(self, centers, k, r_list, r_factor):
        report = certify_schedule(centers, k, r_list, r_factor=r_factor)
        expected = linear_schedule(centers, k, r_list, r_factor=r_factor)
        got = [row_summary(row.proved_at_outer, row.verdict) for row in report.rows]
        assert got == [row_summary(at, verdict) for at, verdict in expected]

    def test_late_forced_rows_are_found_by_bisection(self, solved):
        report = certify_schedule(LATE_FORCED, 2, [1])
        (row,) = report.rows
        assert row.verdict.kind is VerdictKind.FORCED
        assert row.proved_at_outer == 6
        # start 4 and 5, then R = 12 (Forced), so the gallop goes on to
        # 7 (Forced) and bisects the gap [6, 7]
        assert solved == [4, 5, 12, 7, 6]
        assert row.windows_solved == len(solved)

    def test_colorable_rows_with_two_colors_solve_three_windows(self, solved):
        report = certify_schedule([(0, 0), (3, 0)], 2, [1, 4])
        assert [row.verdict.kind for row in report.rows] == [VerdictKind.COLORABLE] * 2
        assert [row.proved_at_outer for row in report.rows] == [15, 24]
        # start and start + 1, then the full window R, which settles the row
        assert solved == [5, 6, 15] + [8, 9, 24]
        assert [row.windows_solved for row in report.rows] == [3, 3]

    def test_a_gallop_that_reaches_a_forced_full_window_reuses_it(
        self, solved, monkeypatch
    ):
        decided = []

        def forced_from_eight(graph, k, budget=certifier.DEFAULT_BUDGET):
            decided.append(outer_of(graph, 2, 1))
            kind = VerdictKind.FORCED if decided[-1] >= 8 else VerdictKind.COLORABLE
            stats = certifier.SearchStats(
                vertices=graph.vertex_count, edges=graph.edge_count,
                decisions=0, conflicts=0,
            )
            return certifier.WindowVerdict(kind=kind, witness=None, stats=stats)

        monkeypatch.setattr(certifier, "decide_k_colorable", forced_from_eight)
        (row,) = certify_schedule(LATE_FORCED, 2, [1], r_factor=2).rows
        # start 4 and 5, R = 8 (Forced), gallop 7, then 8 again: no new solve
        assert (row.verdict.kind, row.proved_at_outer) == (VerdictKind.FORCED, 8)
        assert solved == decided == [4, 5, 8, 7]
        assert row.windows_solved == 4

    def test_rows_with_three_colors_never_solve_the_full_window_early(self, solved):
        # a SAT window can cost more than the gallop below it, so R is
        # solved only when the gallop reaches it
        report = certify_schedule([(0, 0), (2, 1), (1, 3)], 3, [0], r_factor=2)
        (row,) = report.rows
        assert row.verdict.kind is VerdictKind.COLORABLE
        assert solved == [4, 5, 7, 8]
        solved.clear()
        # Forced at outer 4 of R = 9: R is never solved
        report = certify_schedule(sandwich_centers(2, 0), 3, [1])
        (row,) = report.rows
        assert row.verdict.kind is VerdictKind.FORCED
        assert (row.proved_at_outer, row.outer) == (4, 9)
        assert solved == [3, 4]
        assert row.windows_solved == 2

    def test_an_unknown_probe_moves_the_search_up(self, monkeypatch, solved):
        decide = certifier.decide_k_colorable

        def unknown_at_seven(graph, k, budget=certifier.DEFAULT_BUDGET):
            if outer_of(graph, 2, 1) == 7:
                return certifier.WindowVerdict(
                    kind=VerdictKind.UNKNOWN,
                    witness=None,
                    stats=certifier.SearchStats(
                        vertices=graph.vertex_count,
                        edges=graph.edge_count,
                        decisions=0,
                        conflicts=0,
                    ),
                    detail="budget exhausted",
                )
            return decide(graph, k, budget=budget)

        monkeypatch.setattr(certifier, "decide_k_colorable", unknown_at_seven)
        (row,) = certify_schedule(LATE_FORCED, 2, [1]).rows
        # probes 4, 5, the full window 12 (Forced), 7 (Unknown), 11
        # (Forced), then bisects [8, 11]: the row names a window that
        # really is Forced, though not the smallest
        assert solved == [4, 5, 12, 7, 11, 9, 8]
        ((linear_at, _),) = linear_schedule(LATE_FORCED, 2, [1])
        assert linear_at == 6
        assert row.verdict.kind is VerdictKind.FORCED
        assert row.proved_at_outer == 8
        spec = WindowSpec(dim=2, outer=8, inner=1, centers=tuple(LATE_FORCED))
        direct = decide(build_symmetry_graph(spec), 2)
        assert row_summary(8, direct) == row_summary(row.proved_at_outer, row.verdict)


def export_dimacs(graph, k):
    """One-hot CNF encoding of proper k-colorability.

    Vertex i and color c map to variable i*k + c + 1.  Clauses: at least
    one color and pairwise at most one color per vertex, then one
    difference clause per edge and color.  Satisfiable exactly when the
    graph is k-colorable.
    """
    n = graph.vertex_count
    clauses = []
    for i in range(n):
        base = i * k
        clauses.append(" ".join(str(base + c + 1) for c in range(k)) + " 0")
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                clauses.append(f"-{base + c1 + 1} -{base + c2 + 1} 0")
    for a, b in graph.edges:
        for c in range(k):
            clauses.append(f"-{a * k + c + 1} -{b * k + c + 1} 0")
    header = [
        f"c proper {k}-coloring of a {n}-vertex graph; var(i, c) = i*k + c + 1",
        f"p cnf {n * k} {len(clauses)}",
    ]
    return "\n".join(header + clauses) + "\n"


def parse_dimacs(text):
    num_vars = None
    clauses = []
    for line in text.splitlines():
        if line.startswith("c") or not line.strip():
            continue
        if line.startswith("p cnf"):
            _, _, v, c = line.split()
            num_vars, num_clauses = int(v), int(c)
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert num_vars is not None and len(clauses) == num_clauses
    return num_vars, clauses


def dpll(num_vars, clauses):
    """Reference satisfiability check, deliberately simple."""
    assignment = {}

    def value(lit):
        var = abs(lit)
        if var not in assignment:
            return None
        return assignment[var] == (lit > 0)

    def solve(clauses):
        while True:
            unit = None
            next_clauses = []
            for clause in clauses:
                states = [value(l) for l in clause]
                if any(s is True for s in states):
                    continue
                undecided = [l for l, s in zip(clause, states) if s is None]
                if not undecided:
                    return False
                if len(undecided) == 1:
                    unit = undecided[0]
                next_clauses.append(clause)
            clauses = next_clauses
            if unit is None:
                break
            assignment[abs(unit)] = unit > 0
        if not clauses:
            return True
        branch = abs(clauses[0][0]) if value(clauses[0][0]) is None else next(
            abs(l) for c in clauses for l in c if value(l) is None
        )
        saved = dict(assignment)
        for choice in (True, False):
            assignment.clear()
            assignment.update(saved)
            assignment[branch] = choice
            if solve(clauses):
                return True
        assignment.clear()
        assignment.update(saved)
        return False

    return solve(clauses)


class TestDimacsExport:
    def test_header_and_shape(self):
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        text = export_dimacs(graph, 2)
        lines = text.splitlines()
        assert lines[0] == "c proper 2-coloring of a 3-vertex graph; var(i, c) = i*k + c + 1"
        p_line = next(l for l in lines if l.startswith("p cnf"))
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 6
        assert p_line == f"p cnf 6 {len(clauses)}"
        # 3 at-least-one, 3 at-most-one, 2 edges x 2 colors
        assert len(clauses) == 3 + 3 + 4

    @pytest.mark.parametrize(
        "edges,n,k,colorable",
        [
            (CYCLE5, 5, 2, False),
            (CYCLE5, 5, 3, True),
            (K4, 4, 3, False),
            (PATH4, 4, 2, True),
        ],
    )
    def test_round_trip_agrees_with_the_decision(self, edges, n, k, colorable):
        graph = graph_from_edges(n, edges)
        num_vars, clauses = parse_dimacs(export_dimacs(graph, k))
        assert dpll(num_vars, clauses) == colorable
        verdict = decide_k_colorable(graph, k)
        assert (verdict.kind is VerdictKind.COLORABLE) == colorable


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes) as (variable count, clauses): variable
    p * holes + h puts pigeon p in hole h."""
    from centerpole.sat import lit_of

    clauses = [
        [lit_of(p * holes + h, True) for h in range(holes)] for p in range(pigeons)
    ]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append(
                    [lit_of(p * holes + h, False), lit_of(q * holes + h, False)]
                )
    return pigeons * holes, clauses


def pigeonhole_solver(pigeons, holes):
    from centerpole.sat import Solver

    return Solver(*pigeonhole(pigeons, holes))


class TestSatCore:
    def test_fuzz_against_brute_force(self):
        from centerpole.sat import Solver, lit_of

        rng = random.Random(99)
        for _ in range(60):
            num_vars = rng.randint(1, 8)
            num_clauses = rng.randint(1, 24)
            # clauses as (0-based var, wanted polarity) pairs
            clauses = []
            for _ in range(num_clauses):
                width = rng.randint(1, 3)
                clauses.append(
                    [
                        (rng.randrange(num_vars), rng.random() < 0.5)
                        for _ in range(width)
                    ]
                )

            def brute():
                for bits in range(2**num_vars):
                    assign = [(bits >> i) & 1 == 1 for i in range(num_vars)]
                    if all(
                        any(assign[v] == want for v, want in clause)
                        for clause in clauses
                    ):
                        return True
                return False

            solver = Solver(
                num_vars,
                ([lit_of(v, want) for v, want in clause] for clause in clauses),
            )
            got = solver.solve()
            assert got is not None
            assert got == brute(), clauses
            if got:
                model = solver.model()
                assert all(
                    any(model[v] == want for v, want in clause)
                    for clause in clauses
                )

    def test_the_formula_is_filed_as_given(self):
        from centerpole.sat import Solver, lit_of

        x0, x1, x2, x3 = (lit_of(v, True) for v in range(4))
        given = [
            [x2], [x2 ^ 1, x0, x1], [x0 ^ 1, x1 ^ 1], [x3], [x1, x3, x1], [x2],
            [x0, x0 ^ 1], [x0, x1],
        ]
        before = [list(clause) for clause in given]
        solver = Solver(4, given)
        assert solver.clauses == [clause for clause in given if len(clause) > 1]
        # the units sit on the trail at level 0, a repeated one once
        assert solver.trail == [x2, x3] and not solver.trail_lim
        assert [solver.level[v] for v in (2, 3)] == [0, 0]
        assert solver.solve() is True
        # propagation moved the watches of the solver's own copy only
        assert solver.clauses[0] != given[1]
        assert given == before
        model = solver.model()
        assert all(any(model[l >> 1] != (l & 1) for l in clause) for clause in given)

        for num_vars, clauses in (
            (2, [[x0, x1], [], [x1]]),
            (1, [[x0], [x0 ^ 1]]),
        ):
            solver = Solver(num_vars, clauses)
            assert solver.solve() is False
            assert solver.decisions == 0

        php_vars, php = pigeonhole(3, 2)
        for num_vars, clauses in (
            # repeated literals, binary and long
            (3, [[x0, x0], [x0 ^ 1, x1, x1], [x1 ^ 1, x2, x0 ^ 1]]),
            (1, [[x0, x0], [x0 ^ 1, x0 ^ 1]]),
            (2, [[x0, x1, x0], [x0 ^ 1, x1, x1], [x1 ^ 1, x0, x0],
                 [x0 ^ 1, x1 ^ 1, x0 ^ 1]]),
            # binary and long tautologies
            (3, [[x0, x0 ^ 1], [x1, x1 ^ 1, x2], [x2 ^ 1]]),
            (2, [[x1, x0, x1 ^ 1], [x0 ^ 1, x0 ^ 1, x0 ^ 1], [x0, x0 ^ 1]]),
            (php_vars, php + [[x0, x0 ^ 1], [x1, x2, x1 ^ 1]]),
        ):

            def satisfied(model, clauses=clauses):
                return all(
                    any(model[l >> 1] != (l & 1) for l in clause) for clause in clauses
                )

            brute = any(
                satisfied(bits) for bits in product((False, True), repeat=num_vars)
            )
            solver = Solver(num_vars, clauses)
            got = solver.solve()
            assert got == brute, clauses
            if got:
                assert satisfied(solver.model())

    @staticmethod
    def falsifiers(num_vars, clause):
        """Every assignment, as a bit mask, that makes the clause false."""
        pos = neg = 0
        for lit in clause:
            if lit & 1:
                neg |= 1 << (lit >> 1)
            else:
                pos |= 1 << (lit >> 1)
        if pos & neg:
            return
        free = ((1 << num_vars) - 1) & ~(pos | neg)
        sub = free
        while True:
            yield neg | sub
            if sub == 0:
                return
            sub = (sub - 1) & free

    def test_learned_clauses_and_root_literals_are_implied(self, monkeypatch):
        from centerpole.sat import Solver, lit_of

        rng = random.Random(1)
        conflicts = minimized = with_models = 0
        # one True per literal that minimization drops from a learned clause
        redundant_calls = []
        redundant = Solver._redundant

        def counted(solver, *args):
            dropped = redundant(solver, *args)
            redundant_calls.append(dropped)
            return dropped

        monkeypatch.setattr(Solver, "_redundant", counted)
        for _ in range(300):
            redundant_calls.clear()
            num_vars = rng.randint(10, 12)
            clauses = [
                [
                    lit_of(rng.randrange(num_vars), rng.random() < 0.5)
                    for _ in range(rng.choice((1, 2) + (3,) * 40 + (4,) * 8))
                ]
                for _ in range(int(4.5 * num_vars))
            ]
            solver = Solver(num_vars, clauses)
            got = solver.solve()
            is_model = bytearray([1]) * (1 << num_vars)
            for clause in clauses:
                for bits in self.falsifiers(num_vars, clause):
                    is_model[bits] = 0
            assert got == any(is_model), clauses
            # binary clauses live in the implication lists only
            for lit, pairs in enumerate(solver.bins):
                for other, ci in zip(pairs[::2], pairs[1::2]):
                    assert sorted(solver.clauses[ci]) == sorted((lit, other))
            for ws in solver.watches:
                assert all(len(solver.clauses[ci]) > 2 for ci in ws)
            if not got:
                continue
            with_models += 1
            conflicts += solver.conflicts
            minimized += redundant_calls.count(True)
            # a clause or literal is implied when no model falsifies it
            implied = [solver.clauses[ci] for ci in solver.learned] + [
                [lit] for lit in solver.trail if solver.level[lit >> 1] == 0
            ]
            for clause in implied:
                assert not any(
                    is_model[bits] for bits in self.falsifiers(num_vars, clause)
                ), (clauses, clause)
        # the checks above bite only if clauses were learned and shortened
        assert with_models > 0
        assert conflicts > 0
        assert minimized > 0

    def test_binary_clause_falsified_by_earlier_units(self):
        from centerpole.sat import Solver, lit_of

        solver = Solver(
            3,
            [
                [lit_of(0, True)],
                [lit_of(1, True)],
                [lit_of(0, False), lit_of(1, False)],
                [lit_of(0, True), lit_of(1, True), lit_of(2, True)],
            ],
        )
        assert solver.solve() is False
        assert solver.decisions == 0

    def test_a_learned_binary_clause_later_implies_at_the_root(self):
        from centerpole.sat import Solver, lit_of

        x0, x1, x2, x3 = (lit_of(v, True) for v in range(4))
        solver = Solver(
            4, [[x0, x1, x2], [x0, x1, x2 ^ 1], [x1 ^ 1, x3], [x1 ^ 1, x3 ^ 1]]
        )
        # Decisions -x0, -x1 clash on x2 and learn (x1 or x0); its
        # asserted x1 clashes on x3 and learns the unit -x1.  Back at the
        # root, -x1 makes the learned binary clause imply x0.
        assert solver.solve() is True
        ci = solver.reason[0]
        assert ci in solver.learned
        assert sorted(solver.clauses[ci]) == [x0, x1]
        assert solver.level[0] == 0
        model = solver.model()
        assert model[0] and not model[1]
        assert solver.conflicts == 2

    def test_solves_again_after_the_budget_runs_out(self):
        from centerpole.sat import Solver, lit_of

        # x1 and then x2 are fixed at the root, so only a decision
        # assigns x0; the budget stop hands x0 back to the heap
        solver = Solver(3, [[lit_of(1, True)], [lit_of(1, False), lit_of(2, True)]])
        assert solver.solve(decision_budget=0) is None
        assert solver.solve() is True
        assert len(solver.trail) == solver.nv

    def test_activity_rescale_keeps_verdicts(self):
        from centerpole.sat import Solver, lit_of

        x0, x1, x2, x3 = (lit_of(v, True) for v in range(4))
        # satisfiable, but only after two conflicts
        learns_two = [[x0, x1, x2], [x0, x1, x2 ^ 1], [x1 ^ 1, x3], [x1 ^ 1, x3 ^ 1]]
        for num_vars, clauses in (pigeonhole(4, 3), (4, learns_two)):

            def satisfied(model, clauses=clauses):
                return all(
                    any(model[lit >> 1] != (lit & 1) for lit in clause)
                    for clause in clauses
                )

            brute = any(
                satisfied(bits) for bits in product((False, True), repeat=num_vars)
            )
            solver = Solver(num_vars, clauses)
            # a bump after the first conflict passes 1e100 and rescales
            solver.var_inc = 1e100
            got = solver.solve()
            assert got == brute
            assert solver.var_inc < 1e100
            if got:
                assert len(solver.trail) == num_vars
                assert satisfied(solver.model())

    def test_a_triangle_free_graph_with_three_colors_stays_forced(self):
        # apart from one at-least-one clause per vertex and the pinned
        # units, every clause of the encoding is binary and goes to the
        # implication lists
        verdict = decide_k_colorable(graph_from_edges(11, GROETZSCH), 3)
        assert verdict.kind is VerdictKind.FORCED
        assert verdict.witness is None
        assert verdict.stats.conflicts > 0
        assert verdict.stats.decisions > 0

    @staticmethod
    def assert_clause_database_is_live(solver):
        """No watch list names a deleted clause, and every reason on the
        trail is a live clause."""
        for ws in solver.watches:
            assert all(solver.clauses[ci] is not None for ci in ws)
        for lit in solver.trail:
            ci = solver.reason[lit >> 1]
            assert ci == -1 or solver.clauses[ci] is not None

    @pytest.mark.parametrize("pigeons", [6, 7])
    def test_reduce_db_purges_deleted_clauses(self, pigeons):
        solver = pigeonhole_solver(pigeons, pigeons - 1)
        solver.max_learned = 1
        reduce_db = solver._reduce_db
        reductions = []

        def checked_reduce_db():
            reduce_db()
            reductions.append(sum(cl is None for cl in solver.clauses))
            self.assert_clause_database_is_live(solver)

        solver._reduce_db = checked_reduce_db
        assert solver.solve() is False
        assert reductions and reductions[-1] > 0
        self.assert_clause_database_is_live(solver)

    @staticmethod
    def assert_one_live_heap_entry_per_variable(solver):
        entries = set(solver.order)
        assert len(entries) == len(solver.order)
        for v in range(solver.nv):
            if solver.value[2 * v] == -1:
                assert (-solver.activity[v], v) in entries

    def test_one_live_heap_entry_per_variable(self):
        solver = pigeonhole_solver(7, 6)
        assert solver.solve() is False
        self.assert_one_live_heap_entry_per_variable(solver)
        solver = pigeonhole_solver(7, 6)
        assert solver.solve(decision_budget=200) is None
        self.assert_one_live_heap_entry_per_variable(solver)
        assert solver.solve() is False
        self.assert_one_live_heap_entry_per_variable(solver)

    def test_search_is_pinned(self):
        # Exact search counts.  A change that only makes a step cheaper
        # keeps them; one that changes the search (branching, learning,
        # watches, restarts, reduction) re-pins them here and logs the
        # old and new counts in CHANGES.md.
        spec = WindowSpec(
            dim=3, outer=4, inner=1, centers=sandwich_centers(2, 0)
        )
        stats = decide_k_colorable(build_symmetry_graph(spec), 3).stats
        assert (stats.decisions, stats.conflicts) == (17, 12)
        for max_learned, counts in ((4000, (881, 735)), (1, (1062, 834))):
            solver = pigeonhole_solver(7, 6)
            solver.max_learned = max_learned
            assert solver.solve() is False
            assert (solver.decisions, solver.conflicts) == counts
