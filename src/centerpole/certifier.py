"""Finite-window symmetry graphs and exact k-colorability verdicts.

A window is an annulus of lattice points around the origin; a window
about z with centers C has the graph of the window of C - z.  Its
symmetry graph joins x to its mirror image 2c - x for every center c in
the tested set, whenever both endpoints lie in the annulus.  A center
is a coordinate tuple of ints, trusted here: the CLI reads each center
row once through ``cube.checked_coordinates``.  Vertex i is the i-th
window point in lexicographic order; the points themselves are never
built.  A proper k-coloring of that graph is exactly a k-coloring of
the window with no monochromatic mirror pair, so:

* ``Forced``  - every k-coloring of the window has a monochromatic
  mirror pair (the graph is not k-colorable);
* ``Colorable`` - a concrete k-coloring avoiding all mirror pairs
  exists (returned and re-verified edge by edge);
* ``Unknown`` - the decision budget ran out before either answer.

Each window is decided by one route, chosen by k: a BFS parity check
for k = 2, and otherwise the clause-learning engine in ``sat`` on each
component's k-core.  One smallest-last pass peels the vertices of
degree below k and numbers the core from its dense end; the engine
branches first in that numbering, with a clique pinned to distinct
colors as a color-symmetry premise.  For k = 2 the
parity is checked once, by ``verify_witness``, and that check decides
the window.  The budget counts that engine's decisions only, so k <= 2
never gives Unknown.

A Forced verdict is finite-window evidence about the tested radii, not
a proof about the infinite group; growing outer radii at a fixed inner
radius is the intended reading.  Smaller windows embed into larger ones
as induced subgraphs, so Forced persists as the outer radius grows.
``certify_schedule`` uses that to solve only some outer radii: it
gallops up from the smallest window to the full one until a window is
Forced, then bisects for the smallest Forced outer radius.  For k <= 2,
whose windows need no search, the full window is solved right after the
two smallest, and a Colorable one ends the row.  Colorable is reported
only from the full window.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Sequence

from . import sat
from .cube import checked_coordinates

DEFAULT_BUDGET = 5_000_000

# The largest window a schedule may build, (2R + 1)^dim points for its
# largest outer radius R.  Building and deciding a window takes time and
# memory in proportion to its points, so a larger one is refused before
# any window is built.
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

    ``+-outer`` must lie in the signed 64-bit range, so every vertex of
    the window does too; the centers are coordinate tuples, checked by
    whoever read them (``checked_coordinates``)."""

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
        checked_coordinates((-self.outer, self.outer))
        for c in self.centers:
            if len(c) != self.dim:
                raise ValueError(f"center {c} has wrong dimension")
            if max(map(abs, c)) > self.outer:
                raise ValueError(f"center {c} lies outside the window")


@dataclass(frozen=True, slots=True)
class SymmetryGraph:
    """Vertex i is the i-th window point in lexicographic order; the points
    are not stored.  Edges are sorted index pairs."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _box_indices(lo: Sequence[int], hi: Sequence[int], width: int) -> list[int]:
    """Flat indices, in increasing order, of the sub-box ``prod [lo_i, hi_i]``
    of a box of the given width whose first axis is the most significant."""
    indices = [0]
    for a, b in zip(lo, hi):
        indices = [i * width + x for i in indices for x in range(a, b + 1)]
    return indices


def build_symmetry_graph(spec: WindowSpec) -> SymmetryGraph:
    """Build the window's symmetry graph on flat box indices.

    Box coordinate ``x_i = p_i + outer`` lies in ``[0, 2*outer]`` and box
    index ``b = sum x_i * W^(dim-1-i)`` with ``W = 2*outer + 1``, so box
    order is lexicographic point order.  The mirror ``2c - p`` has box
    coordinates ``2*c_i + 2*outer - x_i``: its box index is ``K_c - b`` for
    ``K_c = sum (2*c_i + 2*outer) * W^(dim-1-i)``.  That index is a true
    mirror only when every coordinate stays in the box, i.e. ``b`` lies in
    the sub-box ``max(0, 2*c_i) <= x_i <= min(2*outer, 2*c_i + 2*outer)``,
    so only that sub-box is walked.  A repeated center is walked once.
    """
    dim, outer, inner = spec.dim, spec.outer, spec.inner
    width = 2 * outer + 1
    keep = bytearray(b"\x01") * width**dim
    for b in _box_indices((outer - inner,) * dim, (outer + inner,) * dim, width):
        keep[b] = 0
    slot = [-1] * len(keep)
    for i, b in enumerate(compress(range(len(keep)), keep)):
        slot[b] = i
    n = len(keep) - keep.count(0)

    keys: list[int] = []
    for c in set(spec.centers):
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
                keys.append(i * n + j)
    keys.sort()
    return SymmetryGraph(vertex_count=n, edges=tuple(divmod(key, n) for key in keys))


class VerdictKind(Enum):
    FORCED = "Forced"
    COLORABLE = "Colorable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class SearchStats:
    vertices: int
    edges: int
    decisions: int
    conflicts: int


@dataclass(frozen=True, slots=True)
class WindowVerdict:
    kind: VerdictKind
    witness: tuple[int, ...] | None
    stats: SearchStats
    detail: str = ""


def verify_witness(graph: SymmetryGraph, k: int, witness: Sequence[int]) -> bool:
    """Independent edge-by-edge check of a proposed proper coloring."""
    if len(witness) != graph.vertex_count:
        return False
    if any(not 0 <= c < k for c in witness):
        return False
    return all(witness[a] != witness[b] for a, b in graph.edges)


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
    """Decide k-colorability of a core with the clause-learning engine.

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

    One route per k.  For k = 2 the component walk records BFS parity: the
    graph is 2-colorable exactly when no edge joins equal parities, so the
    parity is the witness and ``verify_witness`` on it is the decision.
    Otherwise each component, largest first (ties by lowest vertex), is
    split by ``_smallest_last`` and its core, if any, goes to the
    clause-learning engine in that numbering (``_cdcl_core``); the
    first component with no proper coloring makes the window Forced, and
    the rest are not solved.  A Colorable window solves every component,
    each on its own solver, so its witness and summed counts do not
    depend on the order.  The budget counts that engine's decisions
    across the components solved; running out gives Unknown, never a
    guessed verdict, and cannot happen for k <= 2.
    """
    if k < 1:
        raise ValueError("color count must be positive")
    adj = graph.adjacency()
    n = graph.vertex_count

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
        kind: VerdictKind, detail: str, witness: tuple[int, ...] | None = None
    ) -> WindowVerdict:
        stats = SearchStats(
            vertices=n,
            edges=graph.edge_count,
            decisions=decisions,
            conflicts=conflicts,
        )
        return WindowVerdict(kind=kind, witness=witness, stats=stats, detail=detail)

    if k == 2:
        witness = tuple(parity)
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
                    return verdict(VerdictKind.UNKNOWN, detail)
                if got is None:
                    return verdict(
                        VerdictKind.FORCED,
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
        return verdict(VerdictKind.COLORABLE, detail, tuple(witness))
    # a failed parity names the component of its first clashing edge
    clash = next((a for a, b in graph.edges if parity[a] == parity[b]), None)
    if k != 2 or clash is None:
        raise RuntimeError("internal error: witness failed re-verification")
    size = len(comps[comp_of[clash]])
    return verdict(VerdictKind.FORCED, f"component of size {size} has an odd cycle")


@dataclass(frozen=True, slots=True)
class ScheduleRow:
    inner: int
    outer: int
    verdict: WindowVerdict
    proved_at_outer: int
    windows_solved: int


@dataclass(frozen=True, slots=True)
class ScheduleReport:
    dim: int
    k: int
    centers: tuple[tuple[int, ...], ...]
    r_factor: int
    rows: tuple[ScheduleRow, ...]


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
    last probe that was not Forced and the first Forced one is bisected.
    A row is Forced at the smallest Forced window solved; otherwise it
    carries the verdict of the full window R, so Colorable is only
    reported from the full window.

    For k <= 2 a window is decided without search, in time linear in its
    size, so when neither ``start`` nor ``start + 1`` is Forced, R is
    solved next.  A Colorable R ends the row after three windows; a
    Forced R leaves the gallop to go on from ``start + 3``, and reaching
    R again reuses its verdict.  For k >= 3 R is solved only when the
    gallop reaches it, since one SAT window can cost more than the whole
    gallop below it.  No window of a row is solved twice;
    ``windows_solved`` counts them.  A repeated inner radius is solved
    once, and its row is repeated.

    With no Unknown window this solves fewer windows but reports exactly
    what a scan of every outer radius from ``start`` to R would: the
    same verdict, ``proved_at_outer``, witness and stats.  An Unknown
    window counts as "not proved Forced" and the search moves up, so
    ``proved_at_outer`` can then be larger than the smallest Forced
    radius; it always names a window that was solved and found Forced.

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
    outers = [r_factor * (r + max_norm + 1) for r in r_list]
    check_window_size(dim, max(outers))
    by_inner: dict[int, ScheduleRow] = {}
    for r, outer in zip(r_list, outers):
        if r in by_inner:
            continue
        solved: dict[int, WindowVerdict] = {}

        def solve(trial_outer: int) -> WindowVerdict:
            if trial_outer not in solved:
                spec = WindowSpec(dim=dim, outer=trial_outer, inner=r, centers=centers)
                graph = build_symmetry_graph(spec)
                solved[trial_outer] = decide_k_colorable(graph, k, budget=budget)
            return solved[trial_outer]

        start = r + max_norm + 1
        lo = trial_outer = start
        verdict = solve(start)
        step = 1
        while verdict.kind is not VerdictKind.FORCED and trial_outer != outer:
            lo = trial_outer + 1
            trial_outer = min(trial_outer + step, outer)
            step *= 2
            verdict = solve(trial_outer)
            if (
                k <= 2
                and trial_outer == start + 1
                and verdict.kind is not VerdictKind.FORCED
            ):
                # no search runs for k <= 2, so R costs time linear in its
                # size, and a Colorable R settles the row without the gallop;
                # waiting for start + 1 spares R to rows Forced there, as the
                # planar nuclei are
                full = solve(outer)
                if full.kind is not VerdictKind.FORCED:
                    trial_outer, verdict = outer, full
        proved_at = trial_outer
        if verdict.kind is VerdictKind.FORCED:
            # the smallest Forced radius lies in [lo, proved_at]
            while lo < proved_at:
                mid = (lo + proved_at) // 2
                probe = solve(mid)
                if probe.kind is VerdictKind.FORCED:
                    verdict, proved_at = probe, mid
                else:
                    lo = mid + 1
        by_inner[r] = ScheduleRow(
            inner=r,
            outer=outer,
            verdict=verdict,
            proved_at_outer=proved_at,
            windows_solved=len(solved),
        )
    rows = tuple(by_inner[r] for r in r_list)
    return ScheduleReport(dim=dim, k=k, centers=centers, r_factor=r_factor, rows=rows)
