"""The traced benchmark run wraps functions by name; they must exist.

``bench/tracing.py`` replaces module attributes such as
``tshape.side_of`` with timed wrappers.  If a module stops importing
one of those names, ``bench/run.py --trace 1`` fails with
AttributeError, so installing and removing the wrappers is tested here.
"""
import importlib.util
import json
from pathlib import Path

from centerpole import cli, geometry, tshape

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
