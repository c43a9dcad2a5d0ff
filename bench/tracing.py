"""Per-layer spans for the traced run, recorded from the benchmark's side.

Wrappers are installed on the name each caller looks up: modules import
with ``from .x import y``, so the span around ``spanned_hyperplanes`` is
installed on ``tshape``, not on ``geometry``.  A span's self time is its
duration minus the wrapped calls inside it.  A span already open on the
stack is not opened again, so a recursive call such as ``build_rule``
counts once.
"""
from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from centerpole import certifier, cli, covering, sat, tshape


class Tracer:
    """Collects span times and counters while its wrappers are installed."""

    def __init__(self, now=time.perf_counter) -> None:
        self.now = now
        self.counts: dict[str, int] = defaultdict(int)
        self._total: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, dict[str, float]]:
        """Span seconds recorded since the last call, then reset them.
        Counts (calls and counters) accumulate over the whole pass."""
        taken = {"total": dict(self._total), "self": dict(self._self)}
        self._total.clear()
        self._self.clear()
        return taken

    def timed(self, fn, span: str, before=None, after=None):
        """``fn`` wrapped in a span.  ``before(args)`` runs outside the
        span and its value reaches ``after(args, result, token)``, which
        may return a replacement result."""
        stack, counts = self._stack, self.counts
        clock = self.now

        def wrapper(*args, **kwargs):
            if any(frame[0] == span for frame in stack):
                return fn(*args, **kwargs)
            token = before(args) if before else None
            frame = [span, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self._total[span] += elapsed
                self._self[span] += elapsed - frame[1]
                counts[span + ".calls"] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after:
                replaced = after(args, result, token)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, span, before, after))

    def install(self) -> None:
        count = self.counts

        def add(name, value):
            count[name] += value

        self.wrap(cli, "main", "cli")

        self.wrap(cli, "verify_covering_lemma", "covering.lemma")
        self.wrap(covering, "enumerate_maximal_sigma0_sets", "cube.enumerate",
                  after=lambda a, r, t: add("cube.maximal_sets", len(r)))
        self.wrap(covering, "constructive_cover_shift", "covering.constructive")
        self.wrap(covering, "brute_force_cover_shifts", "covering.oracle",
                  after=lambda a, r, t: add("covering.oracle_shifts", len(r)))
        self.wrap(covering.CoverCertificate, "verify", "covering.cert_verify")

        self.wrap(tshape, "is_t_shaped", "tshape.decide",
                  after=lambda a, r, t: add("tshape.yes" if r.t_shaped else "tshape.no", 1))
        self.wrap(tshape, "spanned_hyperplanes", "geometry.spanned",
                  after=lambda a, r, t: add("geometry.hyperplanes", len(r)))
        self.wrap(tshape, "side_of", "geometry.side_of")
        self.wrap(tshape, "matrix_rank", "geometry.rank")
        self.wrap(tshape, "separates", "geometry.separates")
        self.wrap(tshape, "affine_hull_dim", "geometry.hull")
        self.wrap(tshape, "containing_hyperplane", "geometry.hull")
        self.wrap(tshape.TShapeCertificate, "verify", "tshape.cert_verify")

        self.wrap(cli, "certify_schedule", "certifier.schedule",
                  after=lambda a, r, t: add("certifier.rows", len(r.rows)))

        def graph_built(args, graph, token):
            add("certifier.vertices", graph.vertex_count)
            add("certifier.edges", graph.edge_count)

        self.wrap(certifier, "build_symmetry_graph", "certifier.build", after=graph_built)
        self.wrap(certifier, "decide_k_colorable", "certifier.decide",
                  after=lambda a, r, t: add("certifier.decisions", r.stats.decisions))
        self.wrap(certifier, "verify_witness", "certifier.verify_witness")

        def solver_state(args):
            solver = args[0]
            return len(solver.clauses), solver.decisions, solver.conflicts

        def solver_done(args, result, token):
            clauses, decisions, conflicts = token
            add("sat.clauses", clauses)
            add("sat.decisions", args[0].decisions - decisions)
            add("sat.conflicts", args[0].conflicts - conflicts)

        self.wrap(sat.Solver, "solve", "sat.solve", before=solver_state, after=solver_done)

        def rule_built(args, rule, token):
            # only the outermost rule: inner rules are called through it
            return dataclasses.replace(
                rule, evaluate=self.timed(rule.evaluate, "colorings.evaluate")
            )

        self.wrap(cli, "build_rule", "colorings.build_rule", after=rule_built)
        self.wrap(cli, "symmetric_pair_scan", "colorings.scan",
                  after=lambda a, r, t: add("colorings.samples", r["samples"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Each per-layer metric: (name, unit, where it comes from).  A source
# ("total" | "self", span) reads span seconds; ("count", key) reads a
# counter or a span's ".calls".
LAYER_METRICS = [
    ("cli.self_s", "s", ("self", "cli")),
    ("cli.calls", "count", ("count", "cli.calls")),
    ("covering.oracle_s", "s", ("total", "covering.oracle")),
    ("covering.oracle_calls", "count", ("count", "covering.oracle.calls")),
    ("covering.oracle_shifts", "count", ("count", "covering.oracle_shifts")),
    ("covering.constructive_s", "s", ("total", "covering.constructive")),
    ("covering.cert_verify_s", "s", ("total", "covering.cert_verify")),
    ("covering.cert_verify_calls", "count", ("count", "covering.cert_verify.calls")),
    ("covering.lemma_self_s", "s", ("self", "covering.lemma")),
    ("cube.enumerate_s", "s", ("total", "cube.enumerate")),
    ("cube.maximal_sets", "count", ("count", "cube.maximal_sets")),
    ("geometry.spanned_s", "s", ("total", "geometry.spanned")),
    ("geometry.spanned_calls", "count", ("count", "geometry.spanned.calls")),
    ("geometry.hyperplanes", "count", ("count", "geometry.hyperplanes")),
    ("geometry.side_of_s", "s", ("total", "geometry.side_of")),
    ("geometry.side_of_calls", "count", ("count", "geometry.side_of.calls")),
    ("geometry.rank_s", "s", ("total", "geometry.rank")),
    ("geometry.rank_calls", "count", ("count", "geometry.rank.calls")),
    ("geometry.separates_s", "s", ("total", "geometry.separates")),
    ("geometry.hull_s", "s", ("total", "geometry.hull")),
    ("tshape.cert_verify_s", "s", ("total", "tshape.cert_verify")),
    ("tshape.search_self_s", "s", ("self", "tshape.decide")),
    ("tshape.yes", "count", ("count", "tshape.yes")),
    ("tshape.no", "count", ("count", "tshape.no")),
    ("certifier.build_s", "s", ("total", "certifier.build")),
    ("certifier.windows_built", "count", ("count", "certifier.build.calls")),
    ("certifier.vertices", "count", ("count", "certifier.vertices")),
    ("certifier.edges", "count", ("count", "certifier.edges")),
    ("certifier.windows_solved", "count", ("count", "certifier.decide.calls")),
    ("certifier.rows", "count", ("count", "certifier.rows")),
    ("certifier.decide_s", "s", ("total", "certifier.decide")),
    ("certifier.decide_self_s", "s", ("self", "certifier.decide")),
    ("certifier.verify_witness_s", "s", ("total", "certifier.verify_witness")),
    ("certifier.decisions", "count", ("count", "certifier.decisions")),
    ("sat.solve_s", "s", ("total", "sat.solve")),
    ("sat.solve_calls", "count", ("count", "sat.solve.calls")),
    ("sat.decisions", "count", ("count", "sat.decisions")),
    ("sat.conflicts", "count", ("count", "sat.conflicts")),
    ("sat.clauses", "count", ("count", "sat.clauses")),
    ("colorings.build_rule_s", "s", ("total", "colorings.build_rule")),
    ("colorings.evaluate_s", "s", ("total", "colorings.evaluate")),
    ("colorings.evaluate_calls", "count", ("count", "colorings.evaluate.calls")),
    ("colorings.scan_self_s", "s", ("self", "colorings.scan")),
    ("colorings.samples", "count", ("count", "colorings.samples")),
]


def layer_values(seconds: dict[str, dict[str, float]], counts: dict[str, int]) -> dict:
    """Every per-layer metric of one pass, from its span seconds
    (``{"total": ..., "self": ...}``) and its counts."""
    values = {}
    for name, unit, (kind, key) in LAYER_METRICS:
        source = counts if kind == "count" else seconds[kind]
        values[name] = source.get(key, 0)
    solved = values["certifier.windows_solved"]
    values["certifier.rows_per_window"] = values["certifier.rows"] / solved if solved else 0.0
    return values


LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
LAYER_UNITS["certifier.rows_per_window"] = "ratio"

# The deterministic counters that must repeat exactly on every pass.
COUNTERS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]
