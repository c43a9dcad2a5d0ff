"""T-shape membership, decisions, certificates, and sampled bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole import geometry
from centerpole.geometry import (
    Hyperplane,
    RationalPoint,
    affine_hull_dim,
    matrix_rank,
)
from centerpole import tshape
from centerpole.tshape import (
    KNOWN_T_VALUES,
    TShapeCertificate,
    certificate_to_json,
    is_t_shaped,
    moment_curve_points,
    verify_t_value_bounds,
)
from rational_reference import is_in_Tn

P = lambda *c: RationalPoint(c)


class TestMembership:
    def test_base_case_is_the_origin(self):
        assert is_in_Tn((0,), 1)
        assert not is_in_Tn((1,), 1)
        assert not is_in_Tn(("-1/2",), 1)

    def test_plane_with_upward_ray(self):
        assert is_in_Tn((5, 0), 2)
        assert is_in_Tn((-3, 0), 2)
        assert is_in_Tn((0, 7), 2)
        assert not is_in_Tn((0, -1), 2)
        assert not is_in_Tn((3, 1), 2)

    def test_third_level_recursion(self):
        assert is_in_Tn((7, 0, 2), 3)
        assert is_in_Tn((0, 4, 1), 3)
        assert is_in_Tn((9, -6, 0), 3)
        assert not is_in_Tn((1, 2, 3), 3)
        assert not is_in_Tn((1, 0, -2), 3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            is_in_Tn((0, 0), 1)
        with pytest.raises(ValueError):
            is_in_Tn((0,), 0)


class TestDecisions:
    def test_empty_set(self):
        res = is_t_shaped([])
        assert res.t_shaped
        assert res.certificate is not None
        assert res.certificate.hyperplanes == ()

    def test_nonempty_line_subsets_never_qualify(self):
        assert not is_t_shaped([P(0)]).t_shaped
        assert not is_t_shaped([P(2), P(-5)]).t_shaped

    def test_two_points_in_the_plane(self):
        res = is_t_shaped([P(0, 0), P(3, 1)])
        assert res.t_shaped
        assert len(res.certificate.hyperplanes) == 1

    def test_collinear_points_in_the_plane(self):
        res = is_t_shaped([P(0, 0), P(1, 1), P(7, 7)])
        assert res.t_shaped

    def test_triangle_is_not_t_shaped(self):
        res = is_t_shaped([P(0, 0), P(1, 0), P(0, 1)])
        assert not res.t_shaped
        assert res.certificate is None

    def test_duplicates_are_ignored(self):
        res = is_t_shaped([P(0, 0), P(0, 0), P(3, 1), P(3, 1)])
        assert res.t_shaped

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            is_t_shaped([P(0, 0), P(0, 0, 0)])

    def test_two_plane_cover_in_space(self):
        pts = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)]
        res = is_t_shaped(pts)
        assert res.t_shaped
        assert len(res.certificate.hyperplanes) <= 2
        assert res.certificate.verify([p for p in pts])

    def test_sample_drawn_from_the_model_set_is_t_shaped(self):
        pts = [(1, 2, 0), (-3, 5, 0), (2, 0, 1), (4, 0, 7), (0, 0, 3)]
        assert all(is_in_Tn(p, 3) for p in pts)
        assert is_t_shaped([P(*p) for p in pts]).t_shaped

    def test_accepts_raw_coordinate_rows(self):
        assert is_t_shaped([(0, 0), (3, 1)]).t_shaped


class TestCertificates:
    def test_assignment_must_point_to_an_incident_hyperplane(self):
        pts = [P(0, 0), P(3, 1)]
        cert = is_t_shaped(pts).certificate
        wrong = TShapeCertificate(
            hyperplanes=cert.hyperplanes,
            assignment={p: 5 for p in pts},
        )
        assert cert.verify(pts)
        assert not wrong.verify(pts)

    def test_verify_rejects_a_repeated_or_a_parallel_hyperplane(self):
        # each point is on the first hyperplane, so only general position
        # can refuse these covers
        pts = [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0)]
        (h,) = is_t_shaped(pts).certificate.hyperplanes
        parallel = Hyperplane(h.normal, h.offset + 1)
        for second in (h, parallel):
            cert = TShapeCertificate((h, second), {p: 0 for p in pts})
            assert not cert.verify(pts)

    def test_verify_rejects_missing_points(self):
        pts = [P(0, 0), P(3, 1)]
        cert = is_t_shaped(pts).certificate
        assert not cert.verify(pts + [P(9, 9)])

    def test_json_form(self):
        pts = [P(0, 0), P(3, 1)]
        doc = certificate_to_json(is_t_shaped(pts).certificate)
        assert set(doc) == {"hyperplanes", "assignment"}
        assert len(doc["assignment"]) == 2
        rows = [row for row, _ in doc["assignment"]]
        assert rows == sorted(rows)


def affine_image(points, matrix, shift):
    """Apply x -> Mx + b with exact rational entries."""
    out = []
    for p in points:
        coords = tuple(
            sum((Fraction(matrix[i][j]) * p.coords[j] for j in range(p.dim)),
                Fraction(shift[i]))
            for i in range(p.dim)
        )
        out.append(RationalPoint(coords))
    return out


small_coord = st.integers(-4, 4)


class TestInvariance:
    @given(
        st.lists(
            st.tuples(small_coord, small_coord, small_coord),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_monotonicity(self, rows):
        pts = [P(*r) for r in rows]
        if not is_t_shaped(pts).t_shaped:
            return
        for drop in range(len(pts)):
            sub = pts[:drop] + pts[drop + 1 :]
            assert is_t_shaped(sub).t_shaped

    @given(
        st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=5),
        st.sampled_from(
            [
                ([[1, 0], [0, 1]], [3, -2]),
                ([[0, 1], [1, 0]], [0, 0]),
                ([[2, 1], [1, 1]], [-1, 5]),
                ([[1, 2], [0, "1/3"]], ["1/2", 0]),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_invertible_affine_maps_preserve_the_verdict(self, rows, map_):
        matrix, shift = map_
        pts = [P(*r) for r in rows]
        image = affine_image(pts, matrix, shift)
        assert is_t_shaped(pts).t_shaped == is_t_shaped(image).t_shaped


class TestMomentCurve:
    def test_construction(self):
        pts = moment_curve_points(3, 2, [2, "1/2"])
        assert pts[0].coords == (2, 4, 8)
        assert pts[1].coords == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        )

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_parameters_are_exact(self, bad):
        with pytest.raises(TypeError):
            moment_curve_points(2, 2, [1, bad])

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            moment_curve_points(3, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            moment_curve_points(3, 2, [1, 1])
        with pytest.raises(ValueError):
            moment_curve_points(0, 1, [1])

    def test_no_hyperplane_holds_more_than_n_points(self):
        # any n+1 parameters give affinely independent points
        from itertools import combinations

        pts = moment_curve_points(2, 5, [1, 2, 3, 4, 5])
        for triple in combinations(pts, 3):
            assert affine_hull_dim(list(triple)) == 2

    def test_small_witnesses_are_not_t_shaped(self):
        assert not is_t_shaped(moment_curve_points(2, 3, [1, 2, 3])).t_shaped
        assert not is_t_shaped(
            moment_curve_points(3, 7, [1, 2, 3, 4, 5, 6, 7])
        ).t_shaped

    def test_below_threshold_moment_samples_are_t_shaped(self):
        pts = moment_curve_points(3, 5, [1, 2, 3, 4, 5])
        assert is_t_shaped(pts).t_shaped


class TestSearchWork:
    # 18 distinct points of 19 draws from {-1,0,1}^4.  The search makes
    # 2 675 independence tests (matrix_rank calls) on it; the bound leaves
    # about 12 % for a change in candidate order.  Without the last-level
    # cut and with the rank test ahead of the separation test it made about
    # 764 000 and took 12 s, so the counter stops the search at the bound.
    RANK_CALL_BOUND = 3000

    def test_the_grid_draw_is_refused_within_the_rank_call_bound(
        self, monkeypatch
    ):
        rng = random.Random(1)
        pts = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(19)]
        assert len(set(pts)) == 18
        calls = 0

        def counted(rows):
            nonlocal calls
            calls += 1
            assert calls <= self.RANK_CALL_BOUND, "rank call bound exceeded"
            return matrix_rank(rows)

        monkeypatch.setattr(tshape, "matrix_rank", counted)
        res = is_t_shaped(pts)
        assert not res.t_shaped
        assert res.detail == "no certificate found under spanned-hyperplane search"
        assert calls > 0


class TestOneScaling:
    @pytest.mark.parametrize(
        "rows",
        [
            # full-dimensional, T-shaped with two lines
            [(0, 0), (1, 0), (2, 0), (0, Fraction(1, 2)), (0, Fraction(3, 2))],
            # full-dimensional, not T-shaped
            [(1, 1, 1), (2, 4, 8), (3, 9, 27), (4, 16, 64), (Fraction(1, 2), 0, 5)],
            # on one plane
            [(0, 0, 0), (Fraction(1, 3), 1, 0), (5, 2, 0)],
        ],
    )
    def test_the_points_are_scaled_once(self, monkeypatch, rows):
        # the hull test and the search share one clear_denominators of the
        # points; the rank tests scale only their normals
        points = [P(*r) for r in rows]
        calls = []
        clear = geometry.clear_denominators

        def counted(given):
            given = [tuple(row) for row in given]
            calls.append(given)
            return clear(given)

        monkeypatch.setattr(geometry, "clear_denominators", counted)
        monkeypatch.setattr(tshape, "clear_denominators", counted)
        is_t_shaped(points)
        assert calls.count([p.coords for p in points]) == 1


class TestBoundsReport:
    def test_plane_report(self):
        report = verify_t_value_bounds(2, trials=10, seed=7)
        assert report["ok"]
        assert report["t_value"] == KNOWN_T_VALUES[2] == 3
        assert report["random_size"] == 2
        assert report["random_failures"] == []
        assert report["witness_size"] == 3
        assert not report["witness_t_shaped"]

    def test_space_report(self):
        report = verify_t_value_bounds(3, trials=3, seed=11)
        assert report["ok"]
        assert report["witness_size"] == 7

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            verify_t_value_bounds(5, trials=1, seed=0)
