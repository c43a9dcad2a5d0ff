"""A small conflict-driven SAT core for the coloring certifier.

Self-contained CDCL: two watched literals, first-UIP clause learning,
activity-driven branching with phase saving, and Luby restarts.  It is
deterministic for a fixed input and exposes a decision budget so
callers can bound work exactly; exhaustion reports None rather than a
guess.

Literal convention: variable v in 0..n-1, literal 2*v for v and
2*v + 1 for its negation.
"""
from __future__ import annotations

import heapq


def neg(lit: int) -> int:
    return lit ^ 1


def lit_of(var: int, positive: bool) -> int:
    return 2 * var + (0 if positive else 1)


def luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1 1 2 1 1 2 4 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class Solver:
    """CDCL over clauses given as iterables of literals (see module doc)."""

    def __init__(self, num_vars: int):
        self.nv = num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
        self.assign: list[int] = [-1] * num_vars  # -1 unset, 0 false, 1 true
        self.level: list[int] = [0] * num_vars
        self.reason: list[int] = [-1] * num_vars
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * num_vars
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.phase: list[int] = [0] * num_vars
        self.order: list[tuple[float, int]] = [(0.0, v) for v in range(num_vars)]
        self._seen = bytearray(num_vars)
        self.learned: list[int] = []
        self.max_learned = 4000
        self.ok = True
        self.decisions = 0
        self.conflicts = 0

    # ------------------------------------------------------------------
    def add_clause(self, lits) -> None:
        if not self.ok:
            return
        seen: set[int] = set()
        cl: list[int] = []
        for l in lits:
            if neg(l) in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                cl.append(l)
        if not cl:
            self.ok = False
            return
        if len(cl) == 1:
            l = cl[0]
            v, want = l >> 1, 1 - (l & 1)
            if self.assign[v] == -1:
                self._enqueue(l, -1)
            elif self.assign[v] != want:
                self.ok = False
            return
        ci = len(self.clauses)
        self.clauses.append(cl)
        self.watches[cl[0]].append(ci)
        self.watches[cl[1]].append(ci)

    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason_idx: int) -> None:
        v = lit >> 1
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_idx
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Return a conflicting clause index, or -1."""
        watches = self.watches
        clauses = self.clauses
        assign = self.assign
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = lit ^ 1
            ws = watches[false_lit]
            keep: list[int] = []
            i = 0
            n_ws = len(ws)
            while i < n_ws:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl is None:
                    continue
                if cl[0] == false_lit:
                    cl[0] = cl[1]
                    cl[1] = false_lit
                first = cl[0]
                a = assign[first >> 1]
                if a != -1 and a ^ (first & 1) == 1:
                    keep.append(ci)
                    continue
                moved = False
                for j in range(2, len(cl)):
                    lj = cl[j]
                    aj = assign[lj >> 1]
                    if aj == -1 or aj ^ (lj & 1) == 1:
                        cl[1] = lj
                        cl[j] = false_lit
                        watches[lj].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if a == 0 or (a == 1 and (first & 1) == 1):
                    # first is false too: conflict
                    keep.extend(ws[i:])
                    watches[false_lit] = keep
                    return ci
                self._enqueue(first, ci)
            watches[false_lit] = keep
        return -1

    # ------------------------------------------------------------------
    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            inv = 1e-100
            for u in range(self.nv):
                self.activity[u] *= inv
            self.var_inc *= inv
            self.order = [(-self.activity[u], u) for u in range(self.nv)
                          if self.assign[u] == -1]
            heapq.heapify(self.order)
        else:
            heapq.heappush(self.order, (-self.activity[v], v))

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learned: list[int] = [0]  # slot for the asserting literal
        seen = self._seen
        touched: list[int] = []
        counter = 0
        p = -1
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        cl = self.clauses[conflict]
        while True:
            for q in cl:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            v = p >> 1
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            cl = self.clauses[self.reason[v]]
        for v in touched:
            seen[v] = 0
        learned[0] = neg(p)
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[q >> 1] for q in learned[1:])
        # place a literal of the backjump level second for watching
        for j in range(1, len(learned)):
            if self.level[learned[j] >> 1] == back:
                learned[1], learned[j] = learned[j], learned[1]
                break
        return learned, back

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            v = lit >> 1
            self.phase[v] = self.assign[v]
            self.assign[v] = -1
            self.reason[v] = -1
            heapq.heappush(self.order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def _pick_branch_var(self) -> int:
        order = self.order
        assign = self.assign
        act = self.activity
        while order:
            na, v = heapq.heappop(order)
            if assign[v] == -1 and -na == act[v]:
                return v
        rebuild = [(-act[v], v) for v in range(self.nv) if assign[v] == -1]
        if not rebuild:
            return -1
        heapq.heapify(rebuild)
        self.order = rebuild
        return heapq.heappop(rebuild)[1]

    # ------------------------------------------------------------------
    def solve(self, decision_budget: int | None = None) -> bool | None:
        """True = satisfiable (model in .assign), False = unsatisfiable,
        None = decision budget exhausted."""
        if not self.ok:
            return False
        if self._propagate() != -1:
            self.ok = False
            return False
        restart_num = 0
        restart_unit = 128
        conflicts_left = restart_unit * luby(restart_num + 1)
        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.conflicts += 1
                conflicts_left -= 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learned, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learned)
                    self.learned.append(ci)
                    self.watches[learned[0]].append(ci)
                    self.watches[learned[1]].append(ci)
                    self._enqueue(learned[0], ci)
                self.var_inc /= self.var_decay
                continue
            if conflicts_left <= 0:
                restart_num += 1
                conflicts_left = restart_unit * luby(restart_num + 1)
                self._cancel_until(0)
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                continue
            v = self._pick_branch_var()
            if v == -1:
                return True
            if decision_budget is not None and self.decisions >= decision_budget:
                self._cancel_until(0)
                return None
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit_of(v, self.phase[v] == 1), -1)

    def _reduce_db(self) -> None:
        """Drop roughly half of the long learned clauses, oldest first.

        Runs only at decision level 0 so the trail holds nothing but
        root assignments; their reason clauses are kept alive.
        """
        protect = {self.reason[lit >> 1] for lit in self.trail}
        candidates = [ci for ci in self.learned
                      if self.clauses[ci] is not None
                      and len(self.clauses[ci]) > 3
                      and ci not in protect]
        for ci in candidates[: len(candidates) // 2]:
            self.clauses[ci] = None
        self.learned = [ci for ci in self.learned if self.clauses[ci] is not None]
        self.max_learned = int(self.max_learned * 1.2)

    def model(self) -> list[bool]:
        return [a == 1 for a in self.assign]
