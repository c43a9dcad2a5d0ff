"""The lifted rules against the closures they replaced.

``plus0_extension``, ``plus1_extension`` and ``plus2_extension`` build
their rules from one level table: a rescaled level that is a key of
the table takes that level's coloring of x, any other level takes the
constant of its band.  The code below is the earlier implementation,
kept here only as a reference: one ``evaluate`` closure per rule, a
chain of level tests, the band coloring ``psi`` with closed ends, and
the v = 1 case of ``plus2`` written in X translated so that the upper
center's base point is the origin.  Each closure colors a tuple of
``Fraction`` coordinates, calls the rules it lifts through their
checked entry, and is turned into a (z, q) rule by ``fraction_rule``.
Every color must be equal to it: on pinned levels and on band points,
at fractional levels, with custom witnesses and for lifts of lifts.
"""
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole.colorings import (
    cone_coloring,
    halfspace_coloring,
    pair_coloring,
    plus0_extension,
    plus1_extension,
    plus2_extension,
    standard_simplex,
)
from centerpole.geometry import RationalPoint
from rational_reference import fraction_rule

F = Fraction

# --- the reference: one closure per lifted rule ------------------------


def ref_split_level(point):
    return tuple(point[:-1]), point[-1]


def ref_psi(t, v, w):
    if t <= 0:
        return 3
    if t <= v:
        return 0
    if t <= w:
        return 1
    return 2


def ref_plus0(base):
    def evaluate(point):
        x, t = ref_split_level(point)
        if t == 0:
            return base(x)
        return 0 if t < 0 else 1

    return fraction_rule(
        base.dim + 1, base.color_count, evaluate, f"plus0[{base.label}]"
    )


def ref_plus1(base, aux2):
    def chi2(x):
        return min({0, 1} - {base(tuple(-v for v in x))})

    def evaluate(point):
        x, t = ref_split_level(point)
        if t == 0:
            return base(x)
        if t == 1:
            return aux2(x)
        if t == 2:
            return chi2(x)
        if t < 0:
            return 2
        if t < 1:
            return 1
        return 0

    return fraction_rule(
        base.dim + 1, base.color_count, evaluate, f"plus1[{base.label}]"
    )


def ref_plus2(base, A, auxes=None):
    pts = sorted((RationalPoint(tuple(p)) for p in A), key=lambda p: p.coords[-1])
    a = RationalPoint(pts[0].coords[:-1])
    b = RationalPoint(pts[1].coords[:-1])
    level_a = pts[0].coords[-1]
    level_b = pts[1].coords[-1]
    auxes = auxes or {}
    chi0 = base

    def mirror(center, x):
        return tuple(2 * c - v for c, v in zip(center.coords, x))

    if level_a == level_b:
        sigma = 1 / Fraction(level_a)
        pair = auxes.get("pair") or pair_coloring(a, b)

        def chi2(x):
            return min({0, 1, 2} - {chi0(mirror(a, x)), chi0(mirror(b, x))})

        def evaluate(point):
            x, t = ref_split_level(point)
            t = t * sigma
            if t == 0:
                return chi0(x)
            if t == 1:
                return pair(x)
            if t == 2:
                return chi2(x)
            return ref_psi(t, Fraction(1), Fraction(1))

        case = "levels-equal"
    else:
        sigma = 1 / Fraction(level_b - level_a)
        v = level_a * sigma
        w = v + 1
        aux_a = auxes.get("a") or halfspace_coloring(a)
        aux_b = auxes.get("b") or halfspace_coloring(b)
        if v == 1:
            shift = b.coords
            a_t = tuple(p - q for p, q in zip(a.coords, shift))

            def chi0_t(y):
                return chi0(tuple(p + q for p, q in zip(y, shift)))

            def chi1(y):
                return aux_a(tuple(p + q for p, q in zip(y, shift)))

            def phi(y):
                return aux_b(tuple(p + q for p, q in zip(y, shift)))

            def chi2(y):
                neg = tuple(-p for p in y)
                behind = chi0_t(tuple(2 * p - q for p, q in zip(a_t, y)))
                ahead = chi0_t(tuple(2 * p + q for p, q in zip(a_t, y)))
                fx, fnx = phi(y), phi(neg)
                if fx == fnx:
                    return min({0, 1, 2} - {ahead, behind})
                if behind != fx and fnx != ahead:
                    return fx
                if behind == fx and fnx != ahead:
                    return min({0, 1, 2} - {fnx, behind})
                if behind != fx and fnx == ahead:
                    return fx
                return fnx

            def evaluate(point):
                x, t = ref_split_level(point)
                y = tuple(p - q for p, q in zip(x, shift))
                t = t * sigma
                if t == 0:
                    return chi0_t(y)
                if t == 1:
                    return chi1(y)
                if t == 2:
                    return chi2(y)
                if t == 3:
                    return 1 - chi1(tuple(-p for p in y))
                if t == 4:
                    return min({0, 1} - {chi0_t(tuple(-p for p in y))})
                return ref_psi(t, Fraction(1), Fraction(2))

            case = "v=1,w=2"
        elif v == 2:

            def evaluate(point):
                x, t = ref_split_level(point)
                t = t * sigma
                if t == 0:
                    return chi0(x)
                if t == 1:
                    return 1 - aux_b(mirror(a, x))
                if t == 2:
                    return aux_a(x)
                if t == 3:
                    return aux_b(x)
                if t == 4:
                    return min(
                        {0, 1, 2} - {chi0(mirror(a, x)), aux_a(mirror(b, x))}
                    )
                if t == 6:
                    return min({0, 1} - {chi0(mirror(b, x))})
                return ref_psi(t, Fraction(2), Fraction(3))

            case = "v=2,w=3"
        else:
            band_at_two = ref_psi(Fraction(2), v, w)

            def evaluate(point):
                x, t = ref_split_level(point)
                t = t * sigma
                if t == 0:
                    return chi0(x)
                if t == v:
                    return aux_a(x)
                if t == w:
                    return 1 + aux_b(x)
                if t == 2 * v:
                    return min({0, 1, 2} - {chi0(mirror(a, x)), band_at_two})
                if t == 2 * w:
                    return min({0, 1} - {chi0(mirror(b, x))})
                return ref_psi(t, v, w)

            case = "generic-v"

    return fraction_rule(
        base.dim + 1, base.color_count, evaluate, f"plus2[{base.label};{case}]"
    )


# --- probes --------------------------------------------------------------


def cone(d):
    return cone_coloring(standard_simplex(d))


def level_unit(A):
    """The length of one rescaled level of plus2 over ``A``."""
    low, high = sorted(p[-1] for p in A)
    return F(low if low == high else high - low)


# every pinned level of every case (v and w are added per rule) and a
# band point on each side of each
PINNED = (0, 1, 2, 3, 4, 6)


def probe_levels(unit, extra=()):
    pinned = {F(s) for s in PINNED + tuple(extra)}
    near = {s + d for s in pinned for d in (F(-1, 7), F(1, 3))}
    return sorted(s * unit for s in pinned | near | {F(-5), F(11)})


def probe_bases(A):
    """Base points of X tied to the added centers: they hit the ties of
    the default halfspace witnesses and the mirrors through a and b."""
    a, b = (tuple(F(v) for v in p[:-1]) for p in A)
    combos = [(2, -1), (-1, 2), (1, -1), (-1, 1), (-1, 0), (0, -1), (3, -2), (0, 0)]
    return [a, b] + [tuple(i * p + j * q for p, q in zip(a, b)) for i, j in combos]


def assert_same(rule, ref, xs, levels):
    assert rule.label == ref.label
    assert (rule.dim, rule.color_count) == (ref.dim, ref.color_count)
    for x in xs:
        for t in levels:
            point = tuple(x) + (t,)
            assert rule(point) == ref(point), (rule.label, point)


# --- inputs --------------------------------------------------------------


def rationals(bound, max_denominator=6):
    return st.builds(
        Fraction, st.integers(-bound, bound), st.integers(1, max_denominator)
    ).map(lambda v: v.numerator if v.denominator == 1 else v)


def points(dim, bound=4):
    return st.tuples(*[rationals(bound) for _ in range(dim)])


positive_levels = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))


@st.composite
def added_points(draw, dim):
    """Two added centers of plus2 over X of dimension ``dim``, in one of
    the four cases: equal levels, v = 1, v = 2 or a generic v."""
    case = draw(st.sampled_from(["equal", "v=1", "v=2", "generic"]))
    unit = draw(positive_levels)
    if case == "equal":
        low = high = unit
    elif case == "generic":
        pair = st.lists(positive_levels, min_size=2, max_size=2, unique=True)
        low, high = sorted(draw(pair))
    else:
        low = unit * (1 if case == "v=1" else 2)
        high = low + unit
    a = draw(points(dim, 3))
    b = draw(points(dim, 3).filter(lambda p: low != high or p != a))
    added = [a + (low,), b + (high,)]
    return added if draw(st.booleans()) else added[::-1]


@st.composite
def two_colorings(draw, dim):
    """A two-coloring of X: a halfspace or a pair witness anywhere."""
    c = draw(points(dim, 3))
    if draw(st.booleans()):
        return halfspace_coloring(c)
    d = draw(points(dim, 3).filter(lambda p: p != c))
    return pair_coloring(c, d)


@st.composite
def base_pairs(draw, min_colors, depth):
    """A base rule with at least ``min_colors`` colors, as built by the
    library and by the reference; up to ``depth`` lifts deep."""
    kinds = ["cone"] + (["halfspace"] if min_colors <= 2 else [])
    if depth:
        kinds += ["plus0", "plus1", "plus2"]
    kind = draw(st.sampled_from(kinds))
    if kind == "cone":
        rule = cone(draw(st.integers(max(1, min_colors - 1), 3)))
        return rule, rule
    if kind == "halfspace":
        rule = halfspace_coloring(draw(points(2)))
        return rule, rule
    if kind == "plus0":
        new, ref = draw(base_pairs(min_colors, depth - 1))
        return plus0_extension(new), ref_plus0(ref)
    if kind == "plus1":
        new, ref = draw(base_pairs(max(3, min_colors), depth - 1))
        aux = draw(two_colorings(new.dim))
        return plus1_extension(new, aux), ref_plus1(ref, aux)
    new, ref = draw(base_pairs(4, depth - 1))
    A = draw(added_points(new.dim))
    return plus2_extension(new, A), ref_plus2(ref, A)


# --- the checks ----------------------------------------------------------


class TestSameColors:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_plus0_and_plus1(self, data):
        base, ref_base = data.draw(base_pairs(3, 1))
        aux = data.draw(two_colorings(base.dim))
        xs = data.draw(st.lists(points(base.dim), min_size=1, max_size=4))
        xs.append((0,) * base.dim)
        levels = probe_levels(1) + data.draw(st.lists(rationals(8), max_size=4))
        assert_same(plus0_extension(base), ref_plus0(ref_base), xs, levels)
        assert_same(plus1_extension(base, aux), ref_plus1(ref_base, aux), xs, levels)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_plus2_on_every_case(self, data):
        base = cone(3)
        A = data.draw(added_points(3))
        xs = probe_bases(A) + data.draw(st.lists(points(3), max_size=3))
        unit = level_unit(A)
        low = min(p[-1] for p in A)
        v = low / unit
        levels = probe_levels(unit, (v, v + 1, 2 * v, 2 * v + 2))
        levels += data.draw(st.lists(rationals(20), max_size=4))
        assert_same(plus2_extension(base, A), ref_plus2(base, A), xs, levels)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_plus2_with_custom_witnesses(self, data):
        base = cone(3)
        A = data.draw(added_points(3))
        keys = data.draw(st.sampled_from([["pair"], ["a"], ["b"], ["a", "b"]]))
        auxes = {key: data.draw(two_colorings(3)) for key in keys}
        xs = probe_bases(A) + data.draw(st.lists(points(3), max_size=3))
        unit = level_unit(A)
        v = min(p[-1] for p in A) / unit
        levels = probe_levels(unit, (v, v + 1, 2 * v, 2 * v + 2))
        assert_same(
            plus2_extension(base, A, auxes), ref_plus2(base, A, auxes), xs, levels
        )

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_lifts_of_lifts(self, data):
        rule, ref = data.draw(base_pairs(2, 2))
        xs = data.draw(st.lists(points(rule.dim - 1), min_size=1, max_size=4))
        levels = probe_levels(1) + data.draw(st.lists(rationals(8), max_size=4))
        assert_same(rule, ref, xs, levels)


class TestGrid:
    """Fixed grids, so that every pinned level and band of every case is
    compared on every run, whatever hypothesis draws."""

    GRID = list(product((-1, 0, F(1, 2), 2), repeat=3))

    def check(self, A, auxes=None, base=None):
        base = base or cone(3)
        rule, ref = plus2_extension(base, A, auxes), ref_plus2(base, A, auxes)
        unit = level_unit(A)
        v = min(p[-1] for p in A) / unit
        levels = probe_levels(unit, (v, v + 1, 2 * v, 2 * v + 2))
        assert_same(rule, ref, self.GRID + probe_bases(A), levels)

    def test_each_case_at_whole_levels(self):
        # (1, 6): a level gap of 5, whose inverse no float holds exactly
        for low, high in [(1, 1), (1, 2), (2, 3), (3, 4), (1, 6)]:
            self.check([(1, 0, 0, low), (0, 1, 0, high)])
            self.check([(1, 0, 0, low), (2, 0, 0, high)])
            self.check([(F(1, 2), -1, 2, low), (-1, F(2, 3), 1, high)])

    def test_fractional_levels(self):
        # v = 1/2 and w = 3/2 after rescaling; equal levels at 2/3; and
        # the v = 1 and v = 2 cases reached from fractional heights
        for low, high in [(F(1, 2), F(3, 2)), (F(2, 3), F(2, 3)), (F(1, 3), F(2, 3)),
                          (F(4, 5), F(6, 5)), (F(2, 3), 2)]:
            self.check([(1, 0, 0, low), (0, 1, 0, high)])
            self.check([(F(1, 2), -1, 2, low), (-1, F(2, 3), 1, high)])

    def test_custom_witnesses(self):
        aux = {
            "a": pair_coloring((0, 0, 1), (1, 1, 0)),
            "b": halfspace_coloring((2, 0, -1)),
        }
        pair = {"pair": halfspace_coloring((F(1, 2), 0, 0))}
        for low, high in [(1, 2), (2, 3), (F(1, 2), F(3, 2))]:
            self.check([(1, 0, 0, low), (0, 1, 0, high)], aux)
        self.check([(1, 0, 0, F(2, 3)), (0, 1, 0, F(2, 3))], pair)

    def test_lifts_of_lifts(self):
        inner = plus2_extension(cone(3), [(1, 0, 0, 1), (0, 1, 0, 2)])
        ref_inner = ref_plus2(cone(3), [(1, 0, 0, 1), (0, 1, 0, 2)])
        for rule, ref in [
            (plus0_extension(inner), ref_plus0(ref_inner)),
            (plus1_extension(plus0_extension(cone(2)), halfspace_coloring((0, 0, 1))),
             ref_plus1(ref_plus0(cone(2)), halfspace_coloring((0, 0, 1)))),
        ]:
            xs = list(product((-1, 0, 2), repeat=rule.dim - 1))
            assert_same(rule, ref, xs, probe_levels(1))
        A = [(1, 0, 0, 1, 1), (0, 1, 0, 0, 2)]
        rule, ref = plus2_extension(inner, A), ref_plus2(ref_inner, A)
        xs = list(product((-1, 0, 1), repeat=4))
        assert_same(rule, ref, xs, probe_levels(1))
