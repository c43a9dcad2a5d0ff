"""A small conflict-driven SAT core for the coloring certifier.

Self-contained CDCL: two watched literals for clauses of three or more
literals, binary clauses in per-literal implication lists visited first
(Een & Sorensson 2003), first-UIP clause learning with recursive
minimization (Sorensson & Biere 2009), activity-driven branching with
phase saving, and Luby restarts.  The assignment is kept per literal,
so the inner loops read a literal's value with one list lookup.

Branching pops the most active variable from a heap of
(-activity, variable) entries.  heap_key[v] is the activity of v's
newest entry, or None once that entry is popped.  A variable becomes
unassigned on backjumps and restarts, and its entry is pushed then only
when no live one is left, that is when heap_key[v] is not its activity:
a variable assigned by propagation keeps its entry until it is bumped.
A budget stop pushes back the variable it popped.  Bumps only touch
assigned variables and between rescales an activity only grows, so no
entry is ever in the heap twice; an activity rescale rebuilds the heap
and the keys from the unassigned variables.  Thus every unassigned
variable has a live entry, and an empty heap means a total assignment.

Minimization only drops a literal whose reason clauses, walked back,
imply it from the rest of the clause, so every learned clause stays
RUP with respect to the clause database.  The core is deterministic
for a fixed input and exposes a decision budget so callers can bound
work exactly; exhaustion reports None rather than a guess.

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
        # bins[l] is a flat [other, clause index, ...] list of the binary
        # clauses (l or other): when l turns false, other is implied.
        self.bins: list[list[int]] = [[] for _ in range(2 * num_vars)]
        # value[lit] is -1 unset, 0 false, 1 true; value[2 * v] is v's value
        self.value: list[int] = [-1] * (2 * num_vars)
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
        self.heap_key: list[float | None] = [0.0] * num_vars
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
            val = self.value[cl[0]]
            if val == -1:
                self._enqueue(cl[0], -1)
            elif val == 0:
                self.ok = False
            return
        self._attach(cl)

    def _attach(self, cl: list[int]) -> int:
        """Store a clause of two or more literals and return its index.

        A binary clause goes to the implication lists of both literals
        and keeps its index, so it is its own reason; a longer one is
        watched on its first two literals."""
        ci = len(self.clauses)
        self.clauses.append(cl)
        a, b = cl[0], cl[1]
        if len(cl) == 2:
            self.bins[a] += (b, ci)
            self.bins[b] += (a, ci)
        else:
            self.watches[a].append(ci)
            self.watches[b].append(ci)
        return ci

    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason_idx: int) -> None:
        v = lit >> 1
        self.value[lit] = 1
        self.value[lit ^ 1] = 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_idx
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Return a conflicting clause index, or -1.

        Enqueues inline: it is the hottest loop of the solver."""
        watches = self.watches
        bins = self.bins
        clauses = self.clauses
        value = self.value
        level = self.level
        reason = self.reason
        trail = self.trail
        push = trail.append
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            bl = bins[false_lit]
            for i in range(0, len(bl), 2):
                other = bl[i]
                val = value[other]
                if val == -1:
                    value[other] = 1
                    value[other ^ 1] = 0
                    v = other >> 1
                    level[v] = cur_level
                    reason[v] = bl[i + 1]
                    push(other)
                elif val == 0:
                    self.qhead = qhead
                    return bl[i + 1]
            ws = watches[false_lit]
            keep: list[int] = []
            it = iter(ws)
            for ci in it:
                cl = clauses[ci]
                if cl[0] == false_lit:
                    cl[0] = cl[1]
                    cl[1] = false_lit
                first = cl[0]
                if value[first] == 1:
                    keep.append(ci)
                    continue
                for j in range(2, len(cl)):
                    lj = cl[j]
                    if value[lj] != 0:
                        cl[1] = lj
                        cl[j] = false_lit
                        watches[lj].append(ci)
                        break
                else:
                    keep.append(ci)
                    if value[first] == 0:
                        keep.extend(it)
                        watches[false_lit] = keep
                        self.qhead = qhead
                        return ci
                    value[first] = 1
                    value[first ^ 1] = 0
                    v = first >> 1
                    level[v] = cur_level
                    reason[v] = ci
                    push(first)
            watches[false_lit] = keep
        self.qhead = qhead
        return -1

    # ------------------------------------------------------------------
    def _rescale(self) -> None:
        """Scale every activity and the increment by 1e-100, and rebuild
        the heap and its keys from the unassigned variables."""
        activity = self.activity
        key = self.heap_key
        for u in range(self.nv):
            activity[u] *= 1e-100
            key[u] = activity[u] if self.value[2 * u] == -1 else None
        self.var_inc *= 1e-100
        self.order = [(-activity[u], u) for u in range(self.nv) if key[u] is not None]
        heapq.heapify(self.order)

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learned: list[int] = [0]  # slot for the asserting literal
        seen = self._seen
        level = self.level
        activity = self.activity
        var_inc = self.var_inc
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
                if not seen[v] and level[v] > 0:  # assigned above level 0
                    seen[v] = 1
                    touched.append(v)
                    # v is assigned: it gets a heap entry when unassigned
                    activity[v] += var_inc
                    if activity[v] > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[v] == cur_level:
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
        learned[0] = neg(p)
        # Recursive minimization: seen now marks exactly the variables of
        # learned[1:].  Drop each literal whose reason clauses, walked back
        # through levels of the clause only, end in marked variables.
        levels = {level[q >> 1] for q in learned[1:]}
        kept = [learned[0]]
        for q in learned[1:]:
            if self.reason[q >> 1] == -1 or not self._redundant(q, levels, touched):
                kept.append(q)
        learned = kept
        for v in touched:
            seen[v] = 0
        if len(learned) == 1:
            return learned, 0
        back = max(level[q >> 1] for q in learned[1:])
        # place a literal of the backjump level second for watching
        for j in range(1, len(learned)):
            if level[learned[j] >> 1] == back:
                learned[1], learned[j] = learned[j], learned[1]
                break
        return learned, back

    def _redundant(self, lit: int, levels: set[int], touched: list[int]) -> bool:
        """True when the marked variables imply lit through reason clauses.

        Variables proved implied stay marked and join touched; a failed
        walk unmarks what it marked."""
        seen = self._seen
        level = self.level
        reason = self.reason
        clauses = self.clauses
        top = len(touched)
        stack = [lit]
        while stack:
            for q in clauses[reason[stack.pop() >> 1]]:
                v = q >> 1
                if seen[v] or level[v] == 0:
                    continue
                if reason[v] == -1 or level[v] not in levels:
                    for u in touched[top:]:
                        seen[u] = 0
                    del touched[top:]
                    return False
                seen[v] = 1
                touched.append(v)
                stack.append(q)
        return True

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        value = self.value
        phase = self.phase
        reason = self.reason
        activity = self.activity
        key = self.heap_key
        order = self.order
        for lit in reversed(self.trail[bound:]):
            v = lit >> 1
            phase[v] = value[2 * v]
            value[lit] = value[lit ^ 1] = -1
            reason[v] = -1
            if key[v] != activity[v]:  # no live entry left
                key[v] = activity[v]
                heapq.heappush(order, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def _pick_branch_var(self) -> int:
        """The most active unassigned variable, or -1 for a total
        assignment; entries of assigned variables or old activities go."""
        order = self.order
        value = self.value
        key = self.heap_key
        while order:
            na, v = heapq.heappop(order)
            if key[v] == -na:  # v's newest entry, so v's activity if unassigned
                key[v] = None
                if value[2 * v] == -1:
                    return v
        return -1

    # ------------------------------------------------------------------
    def solve(self, decision_budget: int | None = None) -> bool | None:
        """True = satisfiable (see model()), False = unsatisfiable,
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
                    ci = self._attach(learned)
                    self.learned.append(ci)
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
                self.heap_key[v] = self.activity[v]
                heapq.heappush(self.order, (-self.activity[v], v))
                self._cancel_until(0)
                return None
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit_of(v, self.phase[v] == 1), -1)

    def _reduce_db(self) -> None:
        """Drop roughly half of the long learned clauses, oldest first.

        Runs only at decision level 0 so the trail holds nothing but
        root assignments; their reason clauses are kept alive.  Only
        clauses longer than 3 go, so no binary clause is deleted and the
        implication lists never point at a deleted clause.  A deleted
        clause leaves the watch lists of its two watched literals, which
        keep their order, so propagation never meets a deleted clause.
        """
        clauses = self.clauses
        protect = {self.reason[lit >> 1] for lit in self.trail}
        candidates = [ci for ci in self.learned
                      if len(clauses[ci]) > 3 and ci not in protect]
        watched: set[int] = set()
        for ci in candidates[: len(candidates) // 2]:
            watched.update(clauses[ci][:2])
            clauses[ci] = None
        for lit in watched:
            ws = self.watches[lit]
            ws[:] = [ci for ci in ws if clauses[ci] is not None]
        self.learned = [ci for ci in self.learned if clauses[ci] is not None]
        self.max_learned = int(self.max_learned * 1.2)

    def model(self) -> list[bool]:
        return [a == 1 for a in self.value[::2]]
