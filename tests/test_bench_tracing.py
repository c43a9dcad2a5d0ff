"""The traced benchmark run wraps functions by name; they must exist.

``bench/tracing.py`` replaces module attributes such as
``tshape.side_of`` with timed wrappers.  If a module stops importing
one of those names, ``bench/run.py --trace 1`` fails with
AttributeError, so installing and removing the wrappers is tested here.
"""
import importlib.util
from pathlib import Path

from centerpole import geometry, tshape

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
