"""The traced benchmark run wraps functions by name; they must exist.

``bench/tracing.py`` replaces module attributes such as
``tshape.side_of`` with timed wrappers.  If a module stops importing
one of those names, ``bench/run.py --trace 1`` fails with
AttributeError, so installing and removing the wrappers is tested here.
"""
import importlib.util
import json
from pathlib import Path

from centerpole import certifier, cli, cube, geometry, tshape

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrappers_install_count_and_uninstall():
    names = [
        "spanned_hyperplanes",
        "side_of",
        "matrix_rank",
        "separates",
        "affine_hull_dim",
        "containing_hyperplane",
    ]
    originals = {name: getattr(tshape, name) for name in names}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name in names:
            assert getattr(tshape, name) is not originals[name]
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert tshape.is_t_shaped(cube[:5]).t_shaped
    finally:
        tracer.uninstall()
    for name in names:
        assert getattr(tshape, name) is originals[name]
    assert tracer.counts["tshape.decide.calls"] == 1
    assert tracer.counts["geometry.spanned.calls"] == 1
    assert tracer.counts["geometry.hyperplanes"] == len(
        geometry.integer_spanned_hyperplanes(cube[:5])
    )
    assert tracer.counts["geometry.side_of.calls"] > 0
    assert tracer.counts["geometry.separates.calls"] > 0


def test_the_outermost_rule_of_a_scan_is_counted(tmp_path, capsys):
    # inner rules run inside the outermost rule's span, so each sample
    # counts one evaluation of x and one of each mirror
    rule = {
        "kind": "plus2",
        "base": {"kind": "cone", "dim": 3},
        "A": [[1, 0, 0, 1], [0, 1, 0, 2]],
    }
    centers = tmp_path / "centers.json"
    centers.write_text(json.dumps([[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 2]]))
    argv = ["coloring-scan", "--rule", json.dumps(rule), "--centers", str(centers),
            "--samples", "50", "--seed", "3"]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["colorings.build_rule.calls"] == 1
    assert tracer.counts["colorings.evaluate.calls"] == 50 * (1 + 3)
    assert tracer.counts["colorings.samples"] == 50


def traced_certify(argv, capsys):
    """The tracer's counts over one ``certify`` run, and its printed rows."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.counts, json.loads(capsys.readouterr().out)["result"]["rows"]


def decided(dim, k, centers, windows):
    """Vertices, edges and decisions summed over the (inner, outer) windows."""
    totals = [0, 0, 0]
    for inner, outer in windows:
        spec = certifier.WindowSpec(dim=dim, outer=outer, inner=inner, centers=centers)
        graph = certifier.build_symmetry_graph(spec)
        stats = certifier.decide_k_colorable(graph, k).stats
        totals[0] += stats.vertices
        totals[1] += stats.edges
        totals[2] += stats.decisions
    return totals


def traced_totals(counts):
    """The tracer's vertices, edges and decisions."""
    return [counts["certifier.vertices"], counts["certifier.edges"], counts["sat.decisions"]]


def test_a_traced_two_color_schedule_counts_the_windows_it_builds(tmp_path, capsys):
    # the four rows build three windows: the first row's start 5 and
    # start + 1 = 6, then the schedule's largest window at its inner
    # radius, outer 24 (the last row's R), which every row is read off
    centers = ((0, 0), (3, 0))
    path = tmp_path / "centers.json"
    path.write_text(json.dumps(centers))
    argv = ["certify", "--dim", "2", "--colors", "2", "--centers", str(path),
            "--r-list", "1,2,3,4"]
    counts, rows = traced_certify(argv, capsys)
    assert counts["certifier.rows"] == len(rows) == 4
    assert counts["certifier.build.calls"] == sum(row["windowsSolved"] for row in rows) == 3
    first = rows[0]
    start = first["inner"] + 3 + 1
    windows = [(first["inner"], start), (first["inner"], start + 1),
               (first["inner"], rows[-1]["outer"])]
    assert traced_totals(counts) == decided(2, 2, centers, windows)
    assert counts["sat.decisions"] == sum(row["stats"]["decisions"] for row in rows) == 0


def test_a_traced_spatial_nucleus_counts_the_windows_it_builds(capsys):
    # each row builds its Colorable start window and its Forced proof
    # window, start + 1, whose stats it prints
    argv = ["certify", "--dim", "3", "--colors", "3", "--centers", "sandwich(2,0)",
            "--r-list", "1,2"]
    counts, rows = traced_certify(argv, capsys)
    assert counts["certifier.rows"] == len(rows) == 2
    assert counts["certifier.build.calls"] == sum(row["windowsSolved"] for row in rows) == 4
    assert [row["verdict"] for row in rows] == ["Forced"] * 2
    printed = [sum(row["stats"][key] for row in rows)
               for key in ("vertices", "edges", "decisions")]
    centers = tuple(sorted(cube.build_sandwich(2, 0)))
    starts = [(row["inner"], row["provedAtOuter"] - 1) for row in rows]
    below = decided(3, 3, centers, starts)
    assert traced_totals(counts) == [a + b for a, b in zip(printed, below)]
    assert counts["sat.decisions"] == counts["certifier.decisions"]
