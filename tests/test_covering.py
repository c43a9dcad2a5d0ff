"""Constructive cover shifts against the brute-force oracle."""

from itertools import product

import covering_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole import covering
from centerpole.covering import (
    CoverCertificate,
    brute_force_cover_shifts,
    constructive_cover_shift,
    verify_covering_lemma,
)
from centerpole.cube import (
    SigmaZeroSet,
    build_sandwich,
    enumerate_maximal_sigma0_sets,
    sandwich_contains,
)
from covering_reference import minus

ALL_CASE_LABELS = {
    "0.1",
    "0.2",
    "0.3",
    "0.4",
    "I.1.0/a>s",
    "I.1.0/a=s",
    "I.1.0/a<s",
    "I.1.1/a>s",
    "I.1.1/a<s",
    "I.1.1/a=s",
    "I.2.0/a>=s",
    "I.2.0/a=s-1",
    "I.2.0/a<s-1",
    "I.2.1/a=k-1",
    "I.2.1/s<=a<k-1",
    "I.2.1/a=s-1",
    "I.2.1/a<s-1",
}


def maximal(k, axis, level, anchor, shape):
    for tau in enumerate_maximal_sigma0_sets(k):
        if (tau.facet_axis, tau.facet_level, tau.anchor, tau.shape) == (
            axis,
            level,
            anchor,
            shape,
        ):
            return tau
    raise AssertionError("no maximal set with those parameters")


def subset_of(tau, points):
    return SigmaZeroSet(
        k=tau.k,
        points=frozenset(points),
        facet_axis=tau.facet_axis,
        facet_level=tau.facet_level,
        anchor=tau.anchor,
        shape=tau.shape,
    )


def full_box_scan(tau_points, k, s):
    """Reference oracle: check every shift in the unit box directly."""
    hits = []
    for x in product((-1, 0, 1), repeat=k + 1):
        if all(sandwich_contains(k, s, minus(q, x)) for q in tau_points):
            hits.append(x)
    hits.sort()
    return hits


class TestConstructiveShift:
    def test_singleton_origin_needs_no_shift(self):
        tau = subset_of(
            maximal(3, 0, 0, 0, "lowerL"), {(0, 0, 0, 0)}
        )
        cert = constructive_cover_shift(tau, 1)
        assert cert.case_label == "0.1"
        assert cert.shift == (0, 0, 0, 0)

    def test_lower_shape_anchor_at_s_shifts_down_the_facet_axis(self):
        tau = maximal(3, 1, 0, 0, "lowerL")
        cert = constructive_cover_shift(tau, 0)
        assert cert.case_label == "I.1.0/a=s"
        assert cert.shift == (0, -1, 0, 0)

    def test_upper_shape_anchor_below_s_shifts_diagonally(self):
        tau = maximal(3, 1, 1, 0, "upperL")
        cert = constructive_cover_shift(tau, 1)
        assert cert.case_label == "I.2.1/a=s-1"
        assert cert.shift == (1, 1, 0, 0)

    def test_empty_set_gets_zero_shift(self):
        tau = subset_of(maximal(2, 1, 0, 0, "lowerL"), set())
        cert = constructive_cover_shift(tau, 0)
        assert cert.case_label == "empty"
        assert cert.shift == (0, 0, 0)

    def test_facet_swap_applies_case_0(self):
        # every point of this set has head coordinate 1, so the swap
        # treats it as sitting on the axis-0 facet at level 1
        tau = maximal(2, 1, 1, 0, "lowerL")
        assert all(p[0] == 1 for p in tau.points)
        cert = constructive_cover_shift(tau, 0)
        assert cert.case_label in {"0.3", "0.4"}
        assert cert.verify()

    def test_rejects_out_of_range_s(self):
        tau = maximal(2, 0, 0, 0, "lowerL")
        with pytest.raises(ValueError):
            constructive_cover_shift(tau, 1)

    def test_every_case_label_is_reachable(self):
        seen = set()
        for k in range(1, 5):
            for s in range(-1, k - 1):
                for tau in enumerate_maximal_sigma0_sets(k):
                    seen.add(constructive_cover_shift(tau, s).case_label)
        assert seen >= ALL_CASE_LABELS

    def test_tampered_certificate_fails_verification(self):
        tau = maximal(2, 1, 0, 0, "lowerL")
        good = constructive_cover_shift(tau, 0)
        bad = CoverCertificate(
            tau=tau,
            s=good.s,
            shift=(good.shift[0] + 5,) + good.shift[1:],
            case_label=good.case_label,
        )
        assert good.verify()
        assert not bad.verify()

    def test_wrong_dimension_shift_fails_verification(self):
        tau = maximal(2, 1, 0, 0, "lowerL")
        cert = CoverCertificate(
            tau=tau, s=0, shift=(0, 0), case_label="0.1"
        )
        assert not cert.verify()


@st.composite
def facet_subsets(draw):
    k = draw(st.integers(1, 4))
    s = draw(st.integers(-1, k - 2))
    sets = enumerate_maximal_sigma0_sets(k)
    tau = sets[draw(st.integers(0, len(sets) - 1))]
    pts = sorted(tau.points)
    keep = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    sub = subset_of(tau, (p for p, f in zip(pts, keep) if f))
    return sub, s


class TestCoveringProperty:
    @given(facet_subsets())
    @settings(max_examples=300, deadline=None)
    def test_any_facet_subset_is_covered_by_its_constructive_shift(self, pair):
        tau, s = pair
        cert = constructive_cover_shift(tau, s)
        assert cert.verify()
        assert all(abs(c) <= 1 for c in cert.shift)
        support = {i for i, c in enumerate(cert.shift) if c != 0}
        assert support <= {0, tau.facet_axis}

    @given(facet_subsets())
    @settings(max_examples=100, deadline=None)
    def test_constructive_shift_appears_in_the_oracle_list(self, pair):
        tau, s = pair
        cert = constructive_cover_shift(tau, s)
        hits = brute_force_cover_shifts(tau.points, tau.k, s)
        assert cert.shift in hits


class TestBruteForceOracle:
    def test_matches_full_box_scan(self):
        for s in (-1, 0, 1):
            for tau in enumerate_maximal_sigma0_sets(2):
                pts = tau.points
                assert brute_force_cover_shifts(pts, 2, s) == full_box_scan(pts, 2, s)

    def test_empty_set_admits_every_shift_in_the_box(self):
        hits = brute_force_cover_shifts(frozenset(), 1, -1)
        assert len(hits) == 9
        assert hits == full_box_scan([], 1, -1)

    def test_output_is_sorted_lexicographically(self):
        tau = subset_of(maximal(2, 1, 0, 0, "lowerL"), {(0, 0, 0)})
        hits = brute_force_cover_shifts(tau.points, 2, 0)
        assert len(hits) > 1
        assert hits == sorted(hits)

    def test_the_claimed_range_is_sharp(self):
        # one past the claimed range, at (k, s) = (2, 1), some maximal set
        # has no shift in the unit box; in range, at (2, 0), every one has
        sets = enumerate_maximal_sigma0_sets(2)
        assert len(sets) == 24
        assert any(not brute_force_cover_shifts(tau.points, 2, 1) for tau in sets)
        assert all(brute_force_cover_shifts(tau.points, 2, 0) for tau in sets)

    def test_rejects_wrong_dimension_points(self):
        with pytest.raises(ValueError):
            brute_force_cover_shifts({(0, 0)}, 2, 0)
        # the least point has the right length; a longer one must not be
        # truncated to it
        with pytest.raises(ValueError):
            brute_force_cover_shifts({(0, 0, 0), (0, 0, 0, 1)}, 2, 0)
        # the wrong-length point is not the least one
        with pytest.raises(ValueError):
            brute_force_cover_shifts({(0, 0, 0), (1, 0)}, 2, 0)


def assert_failures_name_missed_points(report, k, s):
    """The report fails exactly the maximal sets whose shift, as the
    (possibly patched) table prescribes it, misses the built sandwich,
    and names the least point missed.  Returns how many named points are
    not the least point of their set."""
    sandwich = build_sandwich(k, s)
    expected = []
    beyond_least = 0
    for tau in enumerate_maximal_sigma0_sets(k):
        cert = covering.constructive_cover_shift(tau, s)
        shift = cert.shift
        missed = [p for p in tau.points if minus(p, shift) not in sandwich]
        if missed:
            expected.append(
                {
                    "facet": [tau.facet_axis, tau.facet_level],
                    "anchor": tau.anchor,
                    "shape": tau.shape,
                    "reason": f"case {cert.case_label}: point {min(missed)} "
                    f"minus shift {shift} is not in the built sandwich",
                }
            )
            beyond_least += min(missed) != min(tau.points)
    assert expected
    assert report["failures"] == expected
    return beyond_least


class TestVerificationHarness:
    @pytest.mark.parametrize(
        "k,s,total",
        [(1, -1, 8), (2, -1, 24), (2, 0, 24), (3, 1, 48), (4, 2, 80)],
    )
    def test_no_failures_in_range(self, k, s, total):
        report = verify_covering_lemma(k, s)
        assert report["k"] == k and report["s"] == s
        assert report["total"] == total
        assert report["failures"] == []

    def test_rejects_out_of_range_s(self):
        with pytest.raises(ValueError):
            verify_covering_lemma(2, 1)

    def test_each_certificate_is_verified_once(self, monkeypatch):
        calls = []
        verify = CoverCertificate.verify

        def counted(cert):
            calls.append(cert)
            return verify(cert)

        monkeypatch.setattr(CoverCertificate, "verify", counted)
        for k, s in ((1, -1), (3, 1), (4, 0)):
            calls.clear()
            report = verify_covering_lemma(k, s)
            assert report["total"] == len(calls) == 4 * k * (k + 1)

    def test_a_wrong_shift_is_reported_with_the_point_it_misses(self, monkeypatch):
        # A lax predicate passes every certificate, and a flipped e_0
        # makes the table prescribe wrong shifts; only the check against
        # the built sandwich is left to catch them.
        monkeypatch.setattr(covering, "sandwich_contains", lambda k, s, p: True)
        monkeypatch.setattr(covering, "_shift", flipped_e0_shift)
        assert_failures_name_missed_points(verify_covering_lemma(3, 1), 3, 1)

    def test_every_point_is_checked_not_only_the_least(self, monkeypatch):
        def always_e0(tau, s):
            return CoverCertificate(tau, s, (1,) + (0,) * tau.k, "e0")

        monkeypatch.setattr(covering, "constructive_cover_shift", always_e0)
        report = verify_covering_lemma(3, 1)
        beyond_least = assert_failures_name_missed_points(report, 3, 1)
        # e_0 moves the least point of some sets into the sandwich
        assert beyond_least > 0


class TestMaximalSetsAreBuiltOncePerK:
    """A sweep over every s of one k builds the maximal sets once, and
    still checks every set for every s."""

    def test_each_k_is_built_once_and_every_set_checked_for_every_s(
        self, monkeypatch
    ):
        built, checked = [], []
        enumerate_sets = covering.enumerate_maximal_sigma0_sets
        verify = CoverCertificate.verify

        def counted_enumerate(k):
            built.append(k)
            return enumerate_sets(k)

        def counted_verify(cert):
            checked.append(cert)
            return verify(cert)

        monkeypatch.setattr(covering, "enumerate_maximal_sigma0_sets", counted_enumerate)
        monkeypatch.setattr(CoverCertificate, "verify", counted_verify)
        covering._maximal_sets.cache_clear()
        for k in (4, 5):
            for s in range(-1, k - 1):
                checked.clear()
                report = verify_covering_lemma(k, s)
                assert report["total"] == len(checked) == 4 * k * (k + 1)
            assert built == list(range(4, k + 1))

    def test_the_cached_sets_are_a_tuple_of_the_enumeration(self):
        covering._maximal_sets.cache_clear()
        sets = covering._maximal_sets(3)
        assert type(sets) is tuple
        assert sets == tuple(enumerate_maximal_sigma0_sets(3))
        assert covering._maximal_sets(3) is sets

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_warm_cache_gives_the_report_of_a_cold_one(self, k):
        for s in range(-1, k - 1):
            covering._maximal_sets.cache_clear()
            cold = verify_covering_lemma(k, s)
            assert covering._maximal_sets.cache_info().currsize == 1
            assert verify_covering_lemma(k, s) == cold
            assert covering._maximal_sets.cache_info().hits >= 1


_table_shift = covering._shift


def flipped_e0_shift(dim, axis, head, along):
    """The table's shift with e_0 replaced by -e_0."""
    return _table_shift(dim, axis, -head, along)


def lax_formula(k, s, point):
    return True


def reference_report(monkeypatch, k, s, contains=covering_reference.sandwich_contains):
    """The report of the reference, with its own
    certificate check in place of ``CoverCertificate.verify``."""
    with monkeypatch.context() as patch:
        patch.setattr(
            CoverCertificate,
            "verify",
            lambda cert: covering_reference.certificate_holds(cert, contains),
        )
        return covering_reference.covering_report(k, s)


class TestTupleChecksMatchTheReference:
    """Both covering checks must report exactly what the reference
    checks report, failure text included."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_reports_are_equal(self, monkeypatch, k):
        for s in range(-1, k - 1):
            assert verify_covering_lemma(k, s) == reference_report(monkeypatch, k, s)

    def test_reports_are_equal_under_a_flipped_e0_and_a_lax_formula(self, monkeypatch):
        monkeypatch.setattr(covering, "sandwich_contains", lax_formula)
        monkeypatch.setattr(covering, "_shift", flipped_e0_shift)
        failures = 0
        for k in range(1, 7):
            for s in range(-1, k - 1):
                report = verify_covering_lemma(k, s)
                assert report == reference_report(monkeypatch, k, s, lax_formula)
                failures += len(report["failures"])
        assert failures

    def test_reports_are_equal_when_every_shift_is_e0(self, monkeypatch):
        def always_e0(tau, s):
            return CoverCertificate(tau, s, (1,) + (0,) * tau.k, "e0")

        monkeypatch.setattr(covering, "constructive_cover_shift", always_e0)
        failures = 0
        for k in range(1, 7):
            for s in range(-1, k - 1):
                report = verify_covering_lemma(k, s)
                assert report == reference_report(monkeypatch, k, s)
                failures += len(report["failures"])
        assert failures

    def test_a_wrong_shift_is_caught_by_the_certificate_alone(self, monkeypatch):
        # The converse of test_a_wrong_shift_is_reported_with_the_point_it_misses:
        # a lax built-sandwich lookup passes every shift and a flipped e_0
        # makes the table prescribe wrong shifts, so only the certificate
        # check is left to catch them.
        class Everything:
            def __contains__(self, point):
                return True

        monkeypatch.setattr(covering, "build_sandwich", lambda k, s: Everything())
        monkeypatch.setattr(covering, "_shift", flipped_e0_shift)
        k, s = 3, 1
        expected, labels = [], []
        with monkeypatch.context() as patch:
            patch.setattr(CoverCertificate, "verify", lambda cert: True)
            for tau in enumerate_maximal_sigma0_sets(k):
                cert = covering.constructive_cover_shift(tau, s)
                if not covering_reference.certificate_holds(cert):
                    expected.append(
                        [tau.facet_axis, tau.facet_level, tau.anchor, tau.shape]
                    )
                    labels.append(cert.case_label)
        failures = verify_covering_lemma(k, s)["failures"]
        assert expected
        assert [f["facet"] + [f["anchor"], f["shape"]] for f in failures] == expected
        for failure, label in zip(failures, labels):
            assert failure["reason"].startswith(f"case {label}: constructive failure: ")
