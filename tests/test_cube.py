"""Sandwich sets, cube vertices, and the facet profile machinery."""

import json
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centerpole import cube
from centerpole.certifier import WindowSpec, certify_schedule
from centerpole.cli import cmd_certify
from centerpole.cube import (
    SigmaZeroSet,
    build_sandwich,
    checked_coordinates,
    cube_points,
    enumerate_maximal_sigma0_sets,
    points_to_json,
    profile_triple,
    sandwich_contains,
    sandwich_size,
    sandwich_to_json,
    sigma0,
)


class TestCheckedCoordinates:
    def test_a_center_is_its_coordinate_tuple(self):
        # the one checked reader of a center returns a plain tuple; the
        # benchmark reads it under a second name
        center = checked_coordinates([1, -2, 3])
        assert center == (1, -2, 3) and type(center) is tuple
        assert checked_coordinates(()) == ()
        assert cube.LatticePoint is checked_coordinates
        # a window and a schedule read its dimension and max-norm
        WindowSpec(dim=3, outer=3, inner=0, centers=(center,))
        with pytest.raises(ValueError, match="outside the window"):
            WindowSpec(dim=3, outer=2, inner=0, centers=(center,))
        (row,) = certify_schedule([center], 1, [0]).rows
        assert row["outer"] == 3 * (0 + 3 + 1)

    def test_dimension_mismatch(self):
        # points of two dimensions meet in a window's centers; the wrong
        # one is refused wherever it stands in the list
        three = (1, 2, 3)
        for centers in ((three,), ((1, 2), three)):
            with pytest.raises(ValueError, match="wrong dimension"):
                WindowSpec(dim=2, outer=3, inner=0, centers=centers)

    @pytest.mark.parametrize(
        "bad,message",
        [(True, "True is not an int"), (2.0, "2.0 is not an int"), (2**63, "64-bit")],
    )
    def test_the_reader_checks_each_coordinate(self, bad, message):
        # a center is checked once, where it is read; a window trusts it
        with pytest.raises(ValueError, match=f"bad lattice point .*{message}"):
            checked_coordinates((0, bad))

    def test_word_size_bound(self, tmp_path):
        # checked where points enter; arithmetic on checked points is not
        edge = 2**63 - 1
        assert checked_coordinates((edge,)) == (edge,)
        assert checked_coordinates((-(2**63),)) == (-(2**63),)
        for outside in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match="64-bit"):
                checked_coordinates((outside,))
        assert checked_coordinates([edge, -(2**63)]) == (edge, -(2**63))
        # the message names the row
        row_named = rf"^bad lattice point \[0, {2**63}\]: .*64-bit"
        with pytest.raises(ValueError, match=row_named):
            checked_coordinates([0, 2**63])
        centers = tmp_path / "centers.json"
        centers.write_text(json.dumps([[0, 2**63]]))
        with pytest.raises(ValueError, match="64-bit"):
            cmd_certify(2, 1, str(centers), [0])


def layer_sizes(k: int, s: int) -> tuple[int, int, int]:
    """Sizes of the three sandwich layers as binomial sums over the
    coordinate sum j of a k-cube vertex."""
    lower = sum(comb(k, j) for j in range(k + 1) if j < s)
    middle = sum(comb(k, j) for j in range(k + 1) if j < k)
    upper = sum(comb(k, j) for j in range(k + 1) if j > s)
    return lower, middle, upper


def layer_of(sandwich, layer: int) -> set[tuple[int, ...]]:
    """The points of one sandwich layer: those with that head coordinate."""
    return {p for p in sandwich if p[0] == layer}


class TestCubePoint:
    def test_with_layer_prepends(self):
        # each sandwich point is its layer followed by a cube vertex
        # whose coordinate sum that layer admits
        for k in range(6):
            cube = list(cube_points(k))
            for s in range(-2, k + 3):
                sw = build_sandwich(k, s)
                assert {p[0] for p in sw} <= {-1, 0, 1}
                for layer, admits in (
                    (-1, lambda j: j < s),
                    (0, lambda j: j < k),
                    (1, lambda j: j > s),
                ):
                    assert layer_of(sw, layer) == {
                        (layer,) + bits for bits in cube if admits(sum(bits))
                    }

    def test_enumeration_is_lexicographic(self):
        pts = list(cube_points(3))
        assert len(pts) == 8
        assert all(type(p) is tuple for p in pts)
        assert pts[0] == (0, 0, 0)
        assert pts[-1] == (1, 1, 1)
        assert pts == sorted(pts)

    def test_zero_cube(self):
        assert list(cube_points(0)) == [()]


class TestSlices:
    @given(st.integers(0, 8), st.integers(-3, 11))
    def test_slice_size_matches_enumeration(self, k, s):
        sw = build_sandwich(k, s)
        sizes = tuple(len(layer_of(sw, layer)) for layer in (-1, 0, 1))
        assert sizes == layer_sizes(k, s)
        assert sandwich_size(k, s) == sum(sizes)

    def test_below_and_above_bounds_are_strict(self):
        sw = build_sandwich(2, 1)
        assert {p[1:] for p in layer_of(sw, -1)} == {(0, 0)}
        assert {p[1:] for p in layer_of(sw, 1)} == {(1, 1)}


class TestSandwich:
    def test_known_cardinalities(self):
        assert len(build_sandwich(1, -1)) == 3
        assert len(build_sandwich(2, 0)) == 6
        assert len(build_sandwich(3, 0)) == 14
        assert len(build_sandwich(3, 1)) == 12

    def test_k1_s_minus1_literal(self):
        # layer -1 empty, layer 0 holds cube point 0, layer 1 holds both
        assert build_sandwich(1, -1) == {
            (0, 0),
            (1, 0),
            (1, 1),
        }

    def test_k2_s0_literal(self):
        assert build_sandwich(2, 0) == {
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        }

    def test_k0_s_minus2_is_one_point_on_the_line(self):
        sw = build_sandwich(0, -2)
        assert sw == {(1,)}
        assert layer_of(sw, -1) == layer_of(sw, 0) == set()
        assert sandwich_size(0, -2) == 1

    def test_layers(self):
        sw = build_sandwich(2, 1)
        assert layer_of(sw, -1) == {(-1, 0, 0)}
        assert layer_of(sw, 0) == {(0, 0, 0), (0, 0, 1), (0, 1, 0)}
        assert layer_of(sw, 1) == {(1, 1, 1)}
        assert sw == layer_of(sw, -1) | layer_of(sw, 0) | layer_of(sw, 1)

    @given(st.integers(0, 7), st.integers(-3, 9))
    def test_size_formula_matches_enumeration(self, k, s):
        sw = build_sandwich(k, s)
        assert len(sw) == sandwich_size(k, s)
        assert len(sw) == sum(len(layer_of(sw, layer)) for layer in (-1, 0, 1))
        if 0 <= s <= k:
            assert len(sw) == 2 ** (k + 1) - 1 - comb(k, s)

    @given(st.integers(0, 5), st.integers(-2, 6))
    def test_membership_predicate_matches_enumeration(self, k, s):
        members = build_sandwich(k, s)
        for layer in (-2, -1, 0, 1, 2):
            for bits in product((0, 1), repeat=k):
                p = (layer,) + bits
                assert sandwich_contains(k, s, p) == (p in members)

    def test_membership_off_the_cube_matches_enumeration(self):
        # off-cube tails and wrong lengths are refused
        for k in range(5):
            for s in range(-2, k + 1):
                members = build_sandwich(k, s)
                for coords in product(range(-2, 3), *[(-1, 0, 1, 2)] * k):
                    assert sandwich_contains(k, s, coords) == (coords in members)
                    for wrong in (coords[:-1], coords + (0,)):
                        assert not sandwich_contains(k, s, wrong)

    def test_membership_rejects_off_cube_tails(self):
        assert not sandwich_contains(2, 0, (1, 0, 2))
        assert not sandwich_contains(2, 0, (1, 0))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            build_sandwich(-1, 0)
        with pytest.raises(ValueError):
            sandwich_size(-1, 0)


class TestProjections:
    def test_sigma0(self):
        assert sigma0((-1, 1, 0, 1)) == (-1, 2)
        with pytest.raises(ValueError, match="at least one coordinate"):
            sigma0(())


class TestSigmaZeroSets:
    def test_profile_triples(self):
        assert profile_triple(2, "lowerL") == {(0, 2), (1, 2), (1, 3)}
        assert profile_triple(2, "upperL") == {(0, 2), (0, 3), (1, 3)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_enumeration_count(self, k):
        sets = enumerate_maximal_sigma0_sets(k)
        assert len(sets) == (k + 1) * 2 * k * 2

    def test_points_sit_on_declared_facet_with_l_profile(self):
        # the constructor trusts its points, so the enumeration is
        # checked here: every point is a 0/1 vertex of the (k+1)-cube on
        # the declared facet, with its image in the declared triple
        for k in range(1, 6):
            for tau in enumerate_maximal_sigma0_sets(k):
                triple = profile_triple(tau.anchor, tau.shape)
                for p in tau.points:
                    assert type(p) is tuple
                    assert len(p) == k + 1
                    assert set(p) <= {0, 1}
                    assert all(type(c) is int for c in p)
                    assert p[tau.facet_axis] == tau.facet_level
                    assert sigma0(p) in triple

    def test_maximality(self):
        # no facet point with an in-profile image is left out
        for k in range(1, 6):
            for tau in enumerate_maximal_sigma0_sets(k):
                triple = profile_triple(tau.anchor, tau.shape)
                full = {
                    p
                    for p in cube_points(k + 1)
                    if p[tau.facet_axis] == tau.facet_level
                    and sigma0(p) in triple
                }
                assert tau.points == full

    def test_subsets_remain_valid(self):
        tau = max(enumerate_maximal_sigma0_sets(3), key=lambda t: len(t.points))
        some = frozenset(sorted(tau.points)[:2])
        smaller = SigmaZeroSet(
            k=tau.k,
            points=some,
            facet_axis=tau.facet_axis,
            facet_level=tau.facet_level,
            anchor=tau.anchor,
            shape=tau.shape,
        )
        assert len(smaller.points) == 2

    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SigmaZeroSet(
                k=1,
                points=frozenset(),
                facet_axis=3,
                facet_level=0,
                anchor=0,
                shape="lowerL",
            )
        with pytest.raises(ValueError):
            SigmaZeroSet(
                k=1,
                points=frozenset(),
                facet_axis=0,
                facet_level=0,
                anchor=1,
                shape="lowerL",
            )
        with pytest.raises(ValueError, match="shape must be lowerL or upperL"):
            SigmaZeroSet(
                k=1,
                points=frozenset(),
                facet_axis=0,
                facet_level=0,
                anchor=0,
                shape="middleL",
            )


class TestJson:
    def test_points_round_trip(self):
        pts = frozenset({(1, -1), (0, 2)})
        data = points_to_json(pts)
        assert data == [[0, 2], [1, -1]]
        assert {checked_coordinates(row) for row in data} == pts

    @pytest.mark.parametrize(
        "row", [[2.7, 0], [2.0, 0], ["5", 0], [True, 0], [None], 7, [[1]]]
    )
    def test_points_from_json_refuses_non_integers(self, row):
        with pytest.raises(ValueError, match="bad lattice point"):
            [checked_coordinates(r) for r in ([0, 0], row)]

    def test_sandwich_document(self):
        doc = sandwich_to_json(1, -1, build_sandwich(1, -1))
        assert doc["k"] == 1 and doc["s"] == -1
        assert doc["cardinality"] == 3
        assert doc["layers"]["-1"] == []
        assert doc["layers"]["0"] == [[0, 0]]
        assert doc["layers"]["1"] == [[1, 0], [1, 1]]
        assert doc["points"] == [[0, 0], [1, 0], [1, 1]]
