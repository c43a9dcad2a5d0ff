"""Finite-window symmetry graphs and exact k-colorability verdicts.

A window is an annulus of lattice points around the origin; a window
about z with centers C has the graph of the window of C - z.  Its
symmetry graph joins x to its mirror image 2c - x for every center c in
the tested set, whenever both endpoints lie in the annulus.  A center
is a coordinate tuple of ints, trusted here: the CLI reads each center
row once through ``cube.checked_coordinates``.  Vertex i is the i-th
window point in lexicographic order, and the graph is its one list of
neighbours per vertex, ascending.  A proper k-coloring of that graph is
exactly a k-coloring of the window with no monochromatic mirror pair:

* ``Forced``  - every k-coloring of the window has a monochromatic
  mirror pair (the graph is not k-colorable);
* ``Colorable`` - a concrete k-coloring avoiding all mirror pairs
  exists (returned and re-verified vertex by vertex);
* ``Unknown`` - the decision budget ran out before either answer.

Each window is decided by one route, chosen by ``k <= 2``.  For
k <= 2 the component walk colors the window, by BFS parity for k = 2
and all zero for k = 1 (its only 1-coloring); that coloring is checked
once, by ``verify_witness``, and the check decides the window.  For
k >= 3 the clause-learning engine in ``sat`` decides each component's
k-core.  One smallest-last pass peels the vertices of degree below k
and numbers the core from its dense end; the engine branches first in
that numbering, with a clique pinned to distinct colors as a
color-symmetry premise.  The budget counts that engine's decisions
only, so k <= 2 never gives Unknown.

A Forced verdict is finite-window evidence about the tested radii, not
a proof about the infinite group; growing outer radii at a fixed inner
radius is the intended reading.  Windows nest in both radii: the window
(inner r', outer o') is an induced subgraph of (r, o) whenever r' >= r
and o' <= o, so Forced persists as the window grows and Colorable as it
shrinks.  ``certify_schedule`` uses that to solve only some windows,
galloping up each row to its smallest Forced outer radius and reading a
row inside a window already decided Colorable off that window's witness,
with no verdict built for it; its docstring has the order of the
windows.  Each row is built there once, as the dict ``certify`` prints.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Sequence

from . import sat

DEFAULT_BUDGET = 5_000_000

# The largest window a schedule may build, (2R + 1)^dim points for its
# largest outer radius R.  Building and deciding a window takes time and
# memory in proportion to its points, so a larger one is refused before
# any window is built.  On a 2-core host the largest 2-D window it admits
# (centers (0, 0), (3, 0), inner 80, outer 252; 229 104 vertices) builds
# and decides in 0.3 s at a 57 MB peak RSS, and the Z^5 nucleus window
# (sandwich(4,2), inner 1, outer 4) in 2.7 s at 85 MB.
MAX_WINDOW_POINTS = 2**18


def check_window_size(dim: int, outer: int, at_least: bool = False) -> None:
    """Refuse, with ValueError, a largest window of more than
    MAX_WINDOW_POINTS points: (2 outer + 1)^dim for outer > 0, multiplied
    out only until it passes the limit, so a large dim costs no large
    power.  ``at_least`` words the outer radius as a lower bound."""
    points = 1
    for _ in range(dim if outer > 0 else 0):
        points *= 2 * outer + 1
        if points > MAX_WINDOW_POINTS:
            radius = f"at least {outer}" if at_least else outer
            raise ValueError(
                f"the largest window, outer radius {radius} in dimension {dim}, "
                f"has more than the limit of {MAX_WINDOW_POINTS} points"
            )


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """An annulus ``inner < |x|_inf <= outer`` plus mirror centers.

    The centers are coordinate tuples, checked by whoever read them; the
    window's size is bounded by ``check_window_size``, not here."""

    dim: int
    outer: int
    inner: int
    centers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("window dimension must be positive")
        if not 0 <= self.inner < self.outer:
            raise ValueError(
                f"need 0 <= inner < outer, got inner={self.inner} outer={self.outer}"
            )
        if not self.centers:
            raise ValueError("at least one mirror center is required")
        for c in self.centers:
            if len(c) != self.dim:
                raise ValueError(f"center {c} has wrong dimension")
            if max(map(abs, c)) > self.outer:
                raise ValueError(f"center {c} lies outside the window")


@dataclass(frozen=True, slots=True)
class SymmetryGraph:
    """Vertex i is the i-th window point in lexicographic order; the points
    are not stored.  ``adjacency[i]`` lists the neighbours of vertex i in
    ascending order, each once and never i itself."""

    adjacency: list[list[int]]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2


def _box_indices(lo: Sequence[int], hi: Sequence[int], width: int) -> list[int]:
    """Flat indices, in increasing order, of the sub-box ``prod [lo_i, hi_i]``
    of a box of the given width whose first axis is the most significant."""
    indices = [0]
    for a, b in zip(lo, hi):
        indices = [i * width + x for i in indices for x in range(a, b + 1)]
    return indices


# One entry, the slot list of the last window built: a row read off a
# Colorable window (``_restrict``) finds that window's list here when no
# other window was built since.  The list is shared, so callers only
# read it.
@lru_cache(maxsize=1)
def _box_slots(dim: int, outer: int, inner: int) -> list[int]:
    """The vertex index of each box index of a window (see
    ``build_symmetry_graph``), or -1 for a point of its hole."""
    width = 2 * outer + 1
    keep = bytearray(b"\x01") * width**dim
    for b in _box_indices((outer - inner,) * dim, (outer + inner,) * dim, width):
        keep[b] = 0
    slot = [-1] * len(keep)
    for i, b in enumerate(compress(range(len(keep)), keep)):
        slot[b] = i
    return slot


def build_symmetry_graph(spec: WindowSpec) -> SymmetryGraph:
    """Build the window's symmetry graph on flat box indices.

    Box coordinate ``x_i = p_i + outer`` lies in ``[0, 2*outer]`` and box
    index ``b = sum x_i * W^(dim-1-i)`` with ``W = 2*outer + 1``, so box
    order is lexicographic point order.  The mirror ``2c - p`` has box
    coordinates ``2*c_i + 2*outer - x_i``: its box index is ``K_c - b`` for
    ``K_c = sum (2*c_i + 2*outer) * W^(dim-1-i)``.  That index is a true
    mirror only when every coordinate stays in the box, i.e. ``b`` lies in
    the sub-box ``max(0, 2*c_i) <= x_i <= min(2*outer, 2*c_i + 2*outer)``,
    so only that sub-box is walked.  A repeated center is walked once, and
    the centers in lexicographic order: x's neighbour ``2c - x`` grows
    with c, so each pair appended to both lists keeps every list ascending.
    """
    dim, outer, inner = spec.dim, spec.outer, spec.inner
    width = 2 * outer + 1
    slot = _box_slots(dim, outer, inner)
    n = width**dim - (2 * inner + 1) ** dim

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for c in sorted(set(spec.centers)):
        k_c = 0
        for c_i in c:
            k_c = k_c * width + 2 * c_i + 2 * outer
        lo = [max(0, 2 * c_i) for c_i in c]
        hi = [min(2 * outer, 2 * c_i + 2 * outer) for c_i in c]
        for b in _box_indices(lo, hi, width):
            m = k_c - b
            if b >= m:
                break
            i, j = slot[b], slot[m]
            if i >= 0 and j >= 0:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return SymmetryGraph(adjacency)


def _window_counts(spec: WindowSpec) -> tuple[int, int]:
    """The vertex and edge counts of the window's symmetry graph, counted
    without building it.

    The vertices are the box of radius outer less the box of radius
    inner.  In each coordinate, x_i in ``[-a, a]`` with ``2c_i - x_i`` in
    ``[-b, b]`` is an interval, so the points x of the box of radius a
    whose mirror about c lies in the box of radius b are counted as a
    product.  By inclusion-exclusion over the outer and inner boxes (x
    and its mirror play the same part, hence the 2), that counts the
    annulus points whose mirror about c lies in the annulus: both ends
    of each edge, and c itself once if it lies in the annulus, as its
    own mirror.  Halved and rounded down, that is the edge count.  Two
    centers never share an edge, since an edge's midpoint is its center.
    """
    dim, outer, inner = spec.dim, spec.outer, spec.inner

    def mirrored(c: tuple[int, ...], a: int, b: int) -> int:
        count = 1
        for c_i in c:
            count *= max(0, min(a, 2 * c_i + b) - max(-a, 2 * c_i - b) + 1)
        return count

    edges = 0
    for c in set(spec.centers):
        ends = mirrored(c, outer, outer) - 2 * mirrored(c, inner, outer)
        edges += (ends + mirrored(c, inner, inner)) // 2
    return (2 * outer + 1) ** dim - (2 * inner + 1) ** dim, edges


def _restrict(
    witness: Sequence[int], cover: WindowSpec, spec: WindowSpec
) -> tuple[int, ...]:
    """A coloring of the window ``spec`` read off a coloring ``witness``
    of the window ``cover`` that holds it (an outer radius no smaller,
    an inner radius no larger): the same color at each point.

    The window's points with one prefix, all coordinates but the last,
    are one run along the last coordinate, or two around its hole.  No
    point of a run lies in the cover's hole, so the run is one slice of
    the cover's vertices."""
    dim, outer, inner = spec.dim, spec.outer, spec.inner
    big = cover.outer
    slot = _box_slots(dim, big, cover.inner)
    width = 2 * big + 1
    # the window's box and hole in the cover's box coordinates
    lo, hi = big - outer, big + outer
    band = set(
        _box_indices((big - inner,) * (dim - 1), (big + inner,) * (dim - 1), width)
    )
    whole = ((lo, hi),)
    split = ((lo, big - inner - 1), (big + inner + 1, hi))
    runs = []
    for p in _box_indices((lo,) * (dim - 1), (hi,) * (dim - 1), width):
        for a, b in split if p in band else whole:
            s = slot[p * width + a]
            runs.append(witness[s : s + b - a + 1])
    return tuple(chain.from_iterable(runs))


@dataclass(frozen=True, slots=True)
class SearchStats:
    """What the search spent: the engine's decisions and conflicts."""

    decisions: int
    conflicts: int


@dataclass(frozen=True, slots=True)
class WindowVerdict:
    kind: str  # "Forced", "Colorable" or "Unknown"
    witness: tuple[int, ...] | None
    stats: SearchStats
    detail: str = ""


def verify_witness(graph: SymmetryGraph, k: int, witness: Sequence[int]) -> bool:
    """Independent vertex-by-vertex check of a proposed proper coloring."""
    if len(witness) != graph.vertex_count:
        return False
    if any(not 0 <= c < k for c in witness):
        return False
    for c, neighbours in zip(witness, graph.adjacency):
        for u in neighbours:
            if witness[u] == c:
                return False
    return True


def _smallest_last(
    adj: list[list[int]], comp: list[int], k: int
) -> tuple[list[int], list[int]]:
    """Split comp into (core numbering, peel order) by one smallest-last
    pass (Matula & Beck 1983): remove a vertex of least remaining degree,
    ties to the lowest vertex, until none is left.  The vertices removed
    while that degree is below k are the peel: each has fewer than k
    neighbours left, so it can always be colored last, in reverse removal
    order.  What is left then has least degree k or more, the k-core, and
    the rest of the removal order, reversed, numbers it from its dense
    end; that is the order smallest-last gives the core alone.  A
    component is closed under adjacency, so every neighbour of a vertex
    of comp is in comp."""
    deg = {v: len(adj[v]) for v in comp}
    # bucket[d] is a heap of vertices filed at degree d, so it pops the
    # lowest; an entry whose vertex has gone or lost a neighbour since is
    # stale.  Filing comp in increasing order makes each list a heap.
    bucket: list[list[int]] = [[] for _ in range(max(deg.values()) + 1)]
    for v in sorted(comp):
        bucket[deg[v]].append(v)
    order: list[int] = []
    peeled = d = 0
    while len(order) < len(comp):
        while not bucket[d]:
            d += 1
        v = heapq.heappop(bucket[d])
        if deg[v] != d:
            continue
        if d < k and peeled == len(order):
            peeled += 1
        deg[v] = -1
        order.append(v)
        for u in adj[v]:
            du = deg[u]
            if du > 0:
                deg[u] = du - 1
                heapq.heappush(bucket[du - 1], u)
        d = max(d - 1, 0)  # removing v lowers a degree by one at most
    return order[peeled:][::-1], order[:peeled]


def _cdcl_core(
    adj: list[list[int]], core: list[int], k: int, budget: int
) -> tuple[list[int] | None, int, int, bool]:
    """Decide k-colorability of a core, for k >= 3, with the
    clause-learning engine.

    Returns (colors or None, decisions, conflicts, budget exhausted), the
    colors in ``core`` order.  Variable block i belongs to core[i], so
    the numbering is the engine's first branching order: it breaks
    activity ties by the lowest variable.  Encoding: one boolean per
    vertex-color pair, at-least-one color per vertex, difference clauses
    per edge and color.  Multiple true colors on a vertex are harmless;
    decoding takes the lowest.

    A clique is pinned to colors 0, 1, ...: it starts at core[0] and
    grows by the lowest-numbered common neighbour, up to k vertices.
    Colors are interchangeable and the pinned vertices pairwise
    adjacent, so any proper coloring permutes to one that meets the pin:
    the pin is a symmetry premise (Van Gelder 2008), not a consequence
    of the clauses.

    The at-least-one, difference and pin clauses, in that order, are one
    list, the whole formula the solver is built from.
    """
    index = {v: i for i, v in enumerate(core)}
    nbrs = [[index[u] for u in adj[v] if u in index] for v in core]
    clauses = [
        [sat.lit_of(i * k + c, True) for c in range(k)] for i in range(len(core))
    ]
    clauses += [
        [sat.lit_of(i * k + c, False), sat.lit_of(j * k + c, False)]
        for i, row in enumerate(nbrs) for j in row if j > i for c in range(k)
    ]
    clique = [0]
    common = set(nbrs[0])
    while common and len(clique) < k:
        j = min(common)
        clique.append(j)
        common.intersection_update(nbrs[j])
    clauses += [[sat.lit_of(i * k + c, True)] for c, i in enumerate(clique)]
    solver = sat.Solver(len(core) * k, clauses)
    res = solver.solve(decision_budget=budget)
    if not res:
        return None, solver.decisions, solver.conflicts, res is None
    model = solver.model()
    colors: list[int] = []
    for i in range(len(core)):
        colors.append(next(c for c in range(k) if model[i * k + c]))
    return colors, solver.decisions, solver.conflicts, False


def decide_k_colorable(
    graph: SymmetryGraph, k: int, budget: int = DEFAULT_BUDGET
) -> WindowVerdict:
    """Exact decision: Forced, Colorable (with verified witness), or Unknown.

    One route per side of ``k <= 2``.  For k <= 2 the component walk
    colors the graph: by BFS parity for k = 2, which is a proper
    2-coloring exactly when the graph has one, and all zero for k = 1,
    the only 1-coloring.  ``verify_witness`` on that coloring is the
    decision, and a Forced window names the component of the first
    vertex with a neighbour of its color.  For k >= 3 each component,
    largest first (ties by lowest vertex), is split by
    ``_smallest_last`` and its core, if any, goes to the clause-learning
    engine in that numbering (``_cdcl_core``); the first component with
    no proper coloring makes the window Forced, and the rest are not
    solved.  A Colorable window solves every component, each on its own
    solver, so its witness and summed counts do not depend on the order.
    The budget counts that engine's decisions across the components
    solved; running out gives Unknown, never a guessed verdict, and
    cannot happen for k <= 2.
    """
    if k < 1:
        raise ValueError("color count must be positive")
    adj = graph.adjacency
    n = len(adj)

    comp_of = [-1] * n
    parity = bytearray(n)
    comps: list[list[int]] = []
    for start in range(n):
        if comp_of[start] != -1:
            continue
        comp = [start]
        comp_of[start] = len(comps)
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for u in adj[v]:
                if comp_of[u] == -1:
                    comp_of[u] = len(comps)
                    parity[u] = parity[v] ^ 1
                    comp.append(u)
        comps.append(comp)

    decisions = 0
    conflicts = 0

    def verdict(
        kind: str, detail: str, witness: tuple[int, ...] | None = None
    ) -> WindowVerdict:
        stats = SearchStats(decisions=decisions, conflicts=conflicts)
        return WindowVerdict(kind=kind, witness=witness, stats=stats, detail=detail)

    if k <= 2:
        witness = tuple(parity) if k == 2 else (0,) * n
    else:
        comps.sort(key=lambda c: (-len(c), c[0]))
        witness = [-1] * n
        for comp in comps:
            core, peeled = _smallest_last(adj, comp, k)
            if core:
                got, spent, clashes, exhausted = _cdcl_core(
                    adj, core, k, budget - decisions
                )
                decisions += spent
                conflicts += clashes
                if exhausted:
                    detail = f"budget of {budget} decisions exhausted"
                    return verdict("Unknown", detail)
                if got is None:
                    return verdict(
                        "Forced",
                        f"component of size {len(comp)} (core {len(core)}) "
                        f"admits no proper {k}-coloring",
                    )
                for v, c in zip(core, got):
                    witness[v] = c
            for v in reversed(peeled):
                taken = {witness[u] for u in adj[v] if witness[u] != -1}
                witness[v] = min(c for c in range(k) if c not in taken)

    if verify_witness(graph, k, witness):
        detail = f"proper {k}-coloring found and re-verified"
        return verdict("Colorable", detail, tuple(witness))
    # a failed walk coloring names the component of its first clashing vertex
    clashes = (v for v in range(n) if any(witness[u] == witness[v] for u in adj[v]))
    clash = next(clashes, None) if k <= 2 else None
    if clash is None:
        raise RuntimeError("internal error: witness failed re-verification")
    size = len(comps[comp_of[clash]])
    cause = "an odd cycle" if k == 2 else "an edge"
    return verdict("Forced", f"component of size {size} has {cause}")


@dataclass(frozen=True, slots=True)
class ScheduleReport:
    rows: tuple[dict, ...]


def check_schedule_args(k: int, r_list: list[int], r_factor: int, budget: int) -> None:
    """Refuse, with ValueError, what is wrong with a schedule whatever
    its centers: a color count or R factor below 1, a negative budget,
    an empty ``r_list`` or a negative inner radius in it."""
    if k < 1:
        raise ValueError(f"color count must be positive, got {k}")
    if r_factor < 1:
        raise ValueError(f"R factor must be at least 1, got {r_factor}")
    if budget < 0:
        raise ValueError(f"decision budget must be non-negative, got {budget}")
    if not r_list:
        raise ValueError("at least one inner radius is required")
    for r in r_list:
        if r < 0:
            raise ValueError(f"inner radius must be non-negative, got {r}")


def certify_schedule(
    centers: Sequence[tuple[int, ...]],
    k: int,
    r_list: Iterable[int],
    r_factor: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> ScheduleReport:
    """One verdict per inner radius r, with outer radius
    R = r_factor * (r + max center norm + 1).

    A window is an induced subgraph of every larger one, so a Forced
    verdict persists as the outer radius grows, and the smallest Forced
    outer radius is found by galloping search from ``start = r + max
    center norm + 1``: outer radii ``start, start+1, start+3, start+7,
    ...`` (the gaps double, the last probe is capped at R) are solved
    until one is Forced or R has been solved, then the gap between the
    last probe that was not Forced and the first Forced one is bisected
    (``bisect.bisect_left``).  A row is Forced at the smallest Forced
    window solved; otherwise it is Colorable or Unknown at the full
    window R.

    For k <= 2 a window is decided without search, in time linear in its
    size, so the first row that is Forced at neither ``start`` nor
    ``start + 1`` solves, right after ``start + 1`` (even when that is
    the row's R), the schedule's largest full window at its inner
    radius, R_max = r_factor * (max r_list + max center norm + 1); no
    row solves it again.  A Colorable R_max holds every later probe, so
    the gallop reaches R with no build; a Forced one leaves the gallop
    to go on from ``start + 3``.  For k >= 3 R is solved only when the
    gallop reaches it, since one SAT window can cost more than the whole
    gallop below it.

    The distinct inner radii are solved in increasing order and the rows
    reported in ``r_list`` order; a repeated inner radius is solved once,
    and its row is repeated.  The schedule keeps one bound, the window
    decided Colorable with the largest outer radius so far.  A probe at
    an outer radius up to that one lies inside that window (its inner
    radius is no smaller), so it is Colorable and is neither built nor
    decided.  A row whose R lies inside it is Colorable at R without a
    build: its witness is that window's witness, verified when it was
    decided, restricted to the row's window, and its ``decisions`` and
    ``conflicts`` are 0.  A Colorable R_max thus answers its own row and
    every later one.  Every other row's verdict comes from a window the
    row solved.  No window is solved twice; ``windowsSolved`` counts the
    windows the row itself built.

    Each row is built once, as the dict ``certify`` prints: ``inner``,
    ``outer`` (R), ``provedAtOuter``, ``verdict`` (the window's kind),
    ``detail``, ``witness``, ``stats`` and ``windowsSolved``.  The stats
    are those of the window the verdict came from: its ``vertices`` and
    ``edges``, counted in closed form (``_window_counts``) for every
    row, and the ``decisions`` and ``conflicts`` its search spent.

    With no Unknown window this solves fewer windows but reports what a
    scan of every outer radius from ``start`` to R would: the same
    verdict, ``provedAtOuter`` and stats, and a witness of the same
    window (a restricted row's witness and ``detail`` can differ from a
    direct solve's).  An Unknown window counts as "not proved Forced"
    and the search moves up, so ``provedAtOuter`` can then be larger
    than the smallest Forced radius; it always names a window that was
    solved and found Forced.

    An empty center set, the refusals of ``check_schedule_args``, or a
    schedule whose largest window has more than MAX_WINDOW_POINTS points,
    raise ValueError before any window is built.
    """
    centers = tuple(centers)
    if not centers:
        raise ValueError("at least one center is required")
    r_list = list(r_list)
    check_schedule_args(k, r_list, r_factor, budget)
    dim = len(centers[0])
    max_norm = max((abs(a) for c in centers for a in c), default=0)
    largest = r_factor * (max(r_list) + max_norm + 1)
    check_window_size(dim, largest)
    # the window decided Colorable with the largest outer radius so far
    # (a window is decided only above it), and its witness: the inner
    # radii run in increasing order, so a window of this row up to its
    # outer radius lies inside it
    cover: tuple[WindowSpec, tuple[int, ...]] | None = None
    largest_unsolved = True
    by_inner: dict[int, dict] = {}
    for r in sorted(set(r_list)):
        start = r + max_norm + 1
        outer = r_factor * start
        solved: dict[int, WindowVerdict] = {}

        def forced(trial: int) -> bool:
            nonlocal cover, largest_unsolved
            if cover and trial <= cover[0].outer:
                return False
            if trial not in solved:
                spec = WindowSpec(dim=dim, outer=trial, inner=r, centers=centers)
                graph = build_symmetry_graph(spec)
                verdict = solved[trial] = decide_k_colorable(graph, k, budget=budget)
                if verdict.kind == "Colorable":
                    cover = spec, verdict.witness
                    if k <= 2 and largest_unsolved and trial == start + 1:
                        # no search runs for k <= 2, so a window costs
                        # time linear in its size.  The first row to get
                        # here solves the schedule's largest full window
                        # at its inner radius: a Colorable one holds this
                        # row's later probes and every later row's, which
                        # then need no build.  Waiting for start + 1
                        # spares it to rows Forced there, as the planar
                        # nuclei are.
                        largest_unsolved = False
                        forced(largest)
            return solved[trial].kind == "Forced"

        lo = trial = start
        step = 1
        while not (hit := forced(trial)) and trial < outer:
            lo, trial, step = trial + 1, min(trial + step, outer), 2 * step
        proved_at = trial
        if hit:
            # the smallest Forced radius lies in [lo, trial]
            proved_at = lo + bisect.bisect_left(range(lo, trial), True, key=forced)
        spec = WindowSpec(dim=dim, outer=proved_at, inner=r, centers=centers)
        if proved_at in solved:
            verdict = solved[proved_at]
            kind, detail, witness = verdict.kind, verdict.detail, verdict.witness
            spent = verdict.stats.decisions, verdict.stats.conflicts
        else:
            # a Colorable row inside the cover, neither built nor decided
            cover_spec, cover_witness = cover
            kind = "Colorable"
            detail = (
                f"proper {k}-coloring restricted from the Colorable window "
                f"inner {cover_spec.inner}, outer {cover_spec.outer}"
            )
            witness = _restrict(cover_witness, cover_spec, spec)
            spent = 0, 0
        counts = *_window_counts(spec), *spent
        by_inner[r] = {
            "inner": r,
            "outer": outer,
            "provedAtOuter": proved_at,
            "verdict": kind,
            "detail": detail,
            "witness": witness,
            "stats": dict(zip(("vertices", "edges", "decisions", "conflicts"), counts)),
            "windowsSolved": len(solved),
        }
    return ScheduleReport(rows=tuple(by_inner[r] for r in r_list))
