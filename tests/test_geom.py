import math
from fractions import Fraction as F

import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inclab import geom
from inclab.errors import CoincidentObjects, UnsupportedObject, ValidationError
from inclab.geom import (
    Circle,
    Implicit,
    ImplicitPair,
    Line,
    Plane,
    Point3,
    Sphere,
    TriPoly,
    canonicalize,
    point,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


class TestScalars:
    def test_rational_sqrt_perfect(self):
        assert geom.rational_sqrt(F(9, 4)) == F(3, 2)
        assert geom.rational_sqrt(F(0)) == 0

    def test_rational_sqrt_imperfect(self):
        assert geom.rational_sqrt(F(2)) is None
        assert geom.rational_sqrt(F(-1)) is None

    def test_primitive_vector(self):
        assert geom.primitive_vector((F(2, 3), F(4, 3), F(-2))) == (1, 2, -3)
        assert geom.primitive_vector((F(0), F(-4), F(6))) == (0, 2, -3)
        # first nonzero positive
        assert geom.primitive_vector((F(-1), F(2), F(0)))[0] > 0
        assert all(type(c) is int for c in geom.primitive_vector((F(-1, 2), 3, F(0))))
        with pytest.raises(ValidationError):
            geom.primitive_vector((F(0), 0, F(0)))
        with pytest.raises(ValidationError):
            geom.primitive_vector((F(1), 0.5, F(0)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=50) | st.just(F(0)),
        min_size=1, max_size=6,
    ))
    @example([F(0), F(-3, 4), F(0), F(5, 6)])
    @example([F(0), F(0)])
    def test_clear_denominators_and_primitive_vector(self, v):
        ints, den = geom.clear_denominators(v)
        assert den == math.lcm(*(c.denominator for c in v))
        assert all(type(c) is int for c in ints)
        assert [F(c, den) for c in ints] == v
        if not any(v):
            with pytest.raises(ValidationError):
                geom.primitive_vector(v)
            return
        prim = geom.primitive_vector(v)
        assert all(type(c) is int for c in prim)
        assert math.gcd(*prim) == 1
        assert next(c for c in prim if c) > 0
        # parallel: one rational multiple of v
        lead = next(c for c in v if c)
        scale = prim[v.index(lead)] / lead
        assert [scale * c for c in v] == list(prim)


class TestTriPoly:
    def test_translate(self):
        f = TriPoly({(2, 0, 0): F(1)})  # x^2
        g = f.translate((F(1), F(0), F(0)))  # (x-1)^2
        assert g.evaluate(point(1, 5, 5)) == 0
        assert g.evaluate(point(3, 0, 0)) == 4

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
            .filter(lambda m: sum(m) <= 4),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            max_size=8,
        ),
        st.lists(st.tuples(rationals, rationals, rationals), min_size=1, max_size=6),
        st.integers(1, 3),
    )
    # the value is zero at one point and not at the other, over den 6
    @example({(2, 0, 0): F(1, 2), (0, 0, 1): F(-1, 3), (0, 0, 0): F(1, 4)},
             [(F(1, 2), F(7), F(9, 8)), (F(1, 3), F(0), F(1))], 1)
    @example({(0, 0, 0): F(-3, 7)}, [(F(1, 5), F(0), F(2))], 2)
    def test_integer_terms_sign(self, terms, coords, scale):
        # each point is signed at its own cleared coordinates, and over a
        # common denominator that is not the least one (scale > 1)
        f = TriPoly(terms)
        pts = [Point3(*c) for c in coords]
        ints, den = geom.integer_coords(pts)
        assert f.integer_terms() is f.integer_terms()  # cleared once
        for p, (x, y, z) in zip(pts, ints):
            want = f.evaluate(p)
            for d, xyz in ((den, (x, y, z)), (scale * den, (scale * x, scale * y, scale * z))):
                got = geom.integer_value(f.integer_terms(d), *xyz)
                assert type(got) is int
                assert (got > 0) - (got < 0) == (want > 0) - (want < 0)

    def test_zero_poly_degree(self):
        assert TriPoly.zero().degree() == -1


class TestCanonicalize:
    def test_plane_scaling(self):
        p1 = canonicalize(Plane(F(1, 2), F(1), F(0), F(3)))
        p2 = canonicalize(Plane(F(2), F(4), F(0), F(12)))
        assert p1 == p2

    def test_line_representation(self):
        l1 = canonicalize(Line(point(0, 0, 0), (F(1), F(1), F(0))))
        l2 = canonicalize(Line(point(5, 5, 0), (F(-2), F(-2), F(0))))
        assert l1 == l2

    def test_circle_orientation(self):
        c1 = canonicalize(Circle(point(0, 0, 0), (F(0), F(0), F(2)), F(1)))
        c2 = canonicalize(Circle(point(0, 0, 0), (F(0), F(0), F(-1)), F(1)))
        assert c1 == c2

    @settings(max_examples=40, deadline=None)
    @given(rationals, rationals, rationals, rationals)
    def test_plane_canonical_idempotent(self, a, b, c, d):
        if a == 0 and b == 0 and c == 0:
            return
        p = canonicalize(Plane(a, b, c, d))
        assert canonicalize(p) == p

    @settings(max_examples=40, deadline=None)
    @given(rationals, rationals, rationals)
    def test_line_canonical_idempotent(self, x, y, z):
        ln = Line(point(x, y, z), (F(1), F(2), F(-2)))
        c = canonicalize(ln)
        assert canonicalize(c) == c
        # canonical origin is orthogonal to the direction
        assert geom.dot(c.origin.as_tuple(), c.direction) == 0


class TestSurfaceIntersections:
    def test_sphere_sphere_circle(self):
        r = geom.surface_pair_intersection(
            Sphere(point(0, 0, 0), F(25)), Sphere(point(6, 0, 0), F(25))
        )
        assert isinstance(r, Circle)
        assert r.center == point(3, 0, 0)
        assert r.radius2 == 16

    def test_sphere_sphere_tangent(self):
        r = geom.surface_pair_intersection(
            Sphere(point(0, 0, 0), F(1)), Sphere(point(2, 0, 0), F(1))
        )
        assert r == point(1, 0, 0)

    def test_sphere_sphere_disjoint(self):
        r = geom.surface_pair_intersection(
            Sphere(point(0, 0, 0), F(1)), Sphere(point(10, 0, 0), F(1))
        )
        assert r is None

    def test_plane_sphere_great_circle(self):
        r = geom.surface_pair_intersection(
            Plane(F(0), F(0), F(1), F(0)), Sphere(point(0, 0, 0), F(4))
        )
        assert isinstance(r, Circle)
        assert r.radius2 == 4

    def test_plane_plane_line(self):
        r = geom.surface_pair_intersection(
            Plane(F(1), F(0), F(0), F(0)), Plane(F(0), F(1), F(0), F(0))
        )
        assert isinstance(r, Line)
        assert r == canonicalize(r) == canonicalize(Line(point(0, 0, 0), (F(0), F(0), F(1))))

    def test_coincident(self):
        with pytest.raises(CoincidentObjects):
            geom.surface_pair_intersection(
                Plane(F(1), F(1), F(0), F(2)), Plane(F(2), F(2), F(0), F(4))
            )

    @settings(max_examples=30, deadline=None)
    @given(rationals, rationals, rationals)
    def test_symmetry(self, cx, cy, cz):
        s1 = Sphere(point(0, 0, 0), F(9))
        s2 = Sphere(point(cx, cy, cz), F(4))
        if s2.center == s1.center:
            return
        r12 = geom.surface_pair_intersection(s1, s2)
        r21 = geom.surface_pair_intersection(s2, s1)
        assert type(r12) is type(r21)
        if isinstance(r12, Circle):
            assert canonicalize(r12) == canonicalize(r21)


class TestCurveIntersections:
    def test_line_line_crossing(self):
        pts = geom.curve_pair_intersection(
            Line(point(0, 0, 0), (F(1), F(0), F(0))),
            Line(point(2, -1, 0), (F(0), F(1), F(0))),
        )
        assert pts == [point(2, 0, 0)]

    def test_line_line_skew(self):
        pts = geom.curve_pair_intersection(
            Line(point(0, 0, 0), (F(1), F(0), F(0))),
            Line(point(0, 1, 1), (F(0), F(1), F(0))),
        )
        assert pts == []

    def test_circle_circle_two_points(self):
        c1 = Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(25))
        c2 = Circle(point(6, 0, 0), (F(0), F(0), F(1)), F(25))
        pts = geom.curve_pair_intersection(c1, c2)
        assert sorted(pts, key=lambda p: p.y) == [point(3, -4, 0), point(3, 4, 0)]

    def test_line_circle(self):
        c = Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(25))
        ln = Line(point(0, 4, 0), (F(1), F(0), F(0)))
        pts = geom.curve_pair_intersection(ln, c)
        assert sorted(pts, key=lambda p: p.x) == [point(-3, 4, 0), point(3, 4, 0)]

    def test_irrational_intersections_dropped(self):
        # unit circle and the line y = x meet at irrational points
        c = Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(1))
        ln = Line(point(0, 0, 0), (F(1), F(1), F(0)))
        assert geom.curve_pair_intersection(ln, c) == []


Z_AXIS = (F(0), F(0), F(1))
CIRCLE_25 = Circle(point(0, 0, 0), Z_AXIS, F(25))  # x^2 + y^2 = 25, z = 0


def _meet(c1, c2):
    """The common points of two curves, sorted, each checked on both."""
    pts = sorted(geom.curve_pair_intersection(c1, c2), key=Point3.as_tuple)
    assert all(geom.point_on_curve(p, c) for p in pts for c in (c1, c2))
    return pts


class TestCurveIntersectionBranches:
    @pytest.mark.parametrize("origin, want", [
        (point(3, 4, -2), [point(3, 4, 0)]),  # crosses the plane on the circle
        (point(1, 1, -2), []),  # crosses it inside the circle
    ])
    def test_line_crossing_circle_plane(self, origin, want):
        assert _meet(Line(origin, (F(0), F(0), F(1))), CIRCLE_25) == want

    def test_line_parallel_off_plane(self):
        assert _meet(Line(point(0, 0, 1), (F(1), F(0), F(0))), CIRCLE_25) == []

    def test_tangent_line_in_plane(self):
        assert _meet(Line(point(-7, 5, 0), (F(1), F(0), F(0))), CIRCLE_25) == [point(0, 5, 0)]

    def test_circle_line_order(self):
        ln = Line(point(0, 4, 0), (F(1), F(0), F(0)))
        assert _meet(CIRCLE_25, ln) == _meet(ln, CIRCLE_25) == [point(-3, 4, 0), point(3, 4, 0)]

    def test_circles_in_crossing_planes(self):
        # x = 0, y^2 + z^2 = 25 and z = 3, x^2 + y^2 = 16
        c1 = Circle(point(0, 0, 0), (F(1), F(0), F(0)), F(25))
        c2 = Circle(point(0, 0, 3), Z_AXIS, F(16))
        assert _meet(c1, c2) == _meet(c2, c1) == [point(0, -4, 3), point(0, 4, 3)]

    def test_circles_in_parallel_planes(self):
        assert _meet(CIRCLE_25, Circle(point(0, 0, 1), Z_AXIS, F(25))) == []

    def test_concentric_coplanar_circles(self):
        assert _meet(CIRCLE_25, Circle(point(0, 0, 0), Z_AXIS, F(16))) == []


# pairwise non-parallel normals
NORMALS = [(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 2, -2), (0, 3, 4)]
OFFSETS = st.tuples(*[st.integers(-2, 2)] * 3)


@st.composite
def circle_pairs(draw):
    """Two distinct circles in crossing, parallel or shared planes, and the
    points they were both drawn through.

    Each centre is x plus cross(n, u) for its normal n and an integer
    offset u, so x lies in both planes unless the second is shifted along
    its normal.  An offset that is a multiple of the first gives collinear
    centres (tangent or concentric circles in a shared plane).  Crossing
    circles may instead be centred on the bisector, in their planes, of x
    and a second point y on the planes' common line, so they meet twice.
    A squared radius is |x - a|^2, or that plus a shift that takes x off."""
    x = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3))
    layout = draw(st.sampled_from(["crossing", "shared", "parallel"]))
    n1 = draw(st.sampled_from(NORMALS))
    n2 = draw(st.sampled_from([n for n in NORMALS if n != n1])) if layout == "crossing" else n1
    u1 = draw(OFFSETS)
    u2 = draw(st.one_of(OFFSETS, st.sampled_from([1, -1, 2, -2]).map(lambda k: geom.vscale(k, u1))))
    lift = draw(st.integers(1, 3)) if layout == "parallel" else 0
    a1 = geom.vadd(x, geom.cross(n1, u1))
    a2 = geom.vadd(geom.vadd(x, geom.cross(n2, u2)), geom.vscale(lift, n2))
    common = [x]
    t = draw(st.sampled_from([0, 0, 1, -2, F(1, 2)])) if layout == "crossing" else 0
    if t:
        d = geom.cross(n1, n2)
        common.append(geom.vadd(x, geom.vscale(t, d)))
        mid = geom.vadd(x, geom.vscale(F(t) / 2, d))
        a1 = geom.vadd(mid, geom.vscale(draw(st.integers(-2, 2)), geom.cross(n1, d)))
        a2 = geom.vadd(mid, geom.vscale(draw(st.integers(-2, 2)), geom.cross(n2, d)))
    shifts = st.sampled_from([0, 0, 0, 1, F(1, 4), F(-1, 2), F(9, 4)])
    s1, s2 = draw(shifts), draw(shifts)
    r1 = geom.norm2(geom.vsub(a1, x)) + s1
    r2 = geom.norm2(geom.vsub(a2, x)) + s2
    assume(r1 > 0 and r2 > 0)
    c1, c2 = Circle(Point3(*a1), n1, r1), Circle(Point3(*a2), n2, r2)
    assume(canonicalize(c1) != canonicalize(c2))
    on_both = s1 == s2 == 0 and not lift
    return c1, c2, [Point3(*p) for p in common] if on_both else []


class TestCircleCircleDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(circle_pairs())
    # tangent and concentric in a shared plane, a rational radius 5/2, and
    # tangent across crossing planes
    @example((Circle(point(0, 0, 0), Z_AXIS, F(1)), Circle(point(2, 0, 0), Z_AXIS, F(1)),
              [point(1, 0, 0)]))
    @example((CIRCLE_25, Circle(point(0, 0, 0), Z_AXIS, F(16)), []))
    @example((Circle(point(0, 0, 0), Z_AXIS, F(25, 4)), Circle(point(3, 0, 0), Z_AXIS, F(25, 4)),
              [point(F(3, 2), -2, 0), point(F(3, 2), 2, 0)]))
    @example((CIRCLE_25, Circle(point(5, 0, 3), (F(1), F(0), F(0)), F(9)), [point(5, 0, 0)]))
    def test_matches_two_branch_oracle(self, case):
        c1, c2, common = case
        got = _meet(c1, c2)
        assert geom.curve_pair_intersection(c1, c2) == got  # in (x, y, z) order
        assert got == _meet(c2, c1)
        assert got == sorted(oracle.circle_circle(c1, c2), key=Point3.as_tuple)
        assert set(common) <= set(got)


@st.composite
def line_circle_pairs(draw):
    """A circle through x and a line, with the points they both pass
    through.  The line crosses the circle's plane at x, lies in the plane
    (through x, tangent at x, or at a random direction) or runs parallel to
    it off it.  A squared radius is |x - a|^2, or that plus a shift that
    takes x off the circle and may leave irrational meets."""
    x = draw(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3))
    n = draw(st.sampled_from(NORMALS))
    spoke = geom.cross(n, draw(OFFSETS))
    assume(not geom.is_zero_vec(spoke))
    a = geom.vadd(x, spoke)
    shift = draw(st.sampled_from([0, 0, 0, 1, F(1, 4), F(-1, 2), F(9, 4)]))
    r2 = geom.norm2(spoke) + shift
    assume(r2 > 0)
    layout = draw(st.sampled_from(["crossing", "in-plane", "tangent", "parallel"]))
    if layout == "crossing":
        d = draw(OFFSETS)
        assume(geom.dot(n, d) != 0)
    elif layout == "tangent":
        d = geom.cross(n, spoke)
    else:
        d = geom.cross(n, draw(OFFSETS))
        assume(not geom.is_zero_vec(d))
    lift = draw(st.integers(1, 2)) if layout == "parallel" else 0
    slide = draw(st.sampled_from([0, 1, F(-1, 2)]))
    origin = geom.vadd(geom.vadd(x, geom.vscale(lift, n)), geom.vscale(slide, d))
    common = [Point3(*x)] if shift == 0 and not lift else []
    return Line(Point3(*origin), d), Circle(Point3(*a), n, r2), common


class TestLineCircleDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line_circle_pairs())
    # transversal on and inside the circle, parallel off its plane, tangent
    # and secant in it, and a secant with irrational meets
    @example((Line(point(3, 4, -2), Z_AXIS), CIRCLE_25, [point(3, 4, 0)]))
    @example((Line(point(1, 1, -2), Z_AXIS), CIRCLE_25, []))
    @example((Line(point(0, 0, 1), (F(1), F(0), F(0))), CIRCLE_25, []))
    @example((Line(point(-7, 5, 0), (F(1), F(0), F(0))), CIRCLE_25, [point(0, 5, 0)]))
    @example((Line(point(0, 4, 0), (F(2), F(0), F(0))), CIRCLE_25,
              [point(-3, 4, 0), point(3, 4, 0)]))
    # a secant whose direction points against its primitive direction
    @example((Line(point(0, 4, 0), (F(-2), F(0), F(0))), CIRCLE_25,
              [point(3, 4, 0), point(-3, 4, 0)]))
    @example((Line(point(0, 0, 0), (F(1), F(1), F(0))), Circle(point(0, 0, 0), Z_AXIS, F(1)), []))
    def test_matches_three_branch_oracle(self, case):
        line, circle, common = case
        got = geom.curve_pair_intersection(line, circle)
        assert got == geom.curve_pair_intersection(circle, line)
        assert got == oracle.line_circle(line, circle)
        assert all(geom.point_on_curve(p, c) for p in got for c in (line, circle))
        assert set(common) <= set(got)


def test_pair_functions_raise_alike():
    sphere = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 0, 0): F(-1)})
    plane = TriPoly({(0, 0, 1): F(1)})
    equal = [
        (geom.surface_pair_intersection, Plane(1, 1, 0, 2), Plane(2, 2, 0, 4)),
        (geom.surface_pair_intersection, Sphere(point(1, 2, 3), 4), Sphere(point(1, 2, 3), 4)),
        (geom.curve_pair_intersection,
         Line(point(0, 0, 0), (1, 1, 0)), Line(point(2, 2, 0), (-2, -2, 0))),
        (geom.curve_pair_intersection, CIRCLE_25, Circle(point(0, 0, 0), (0, 0, 2), 25)),
        # respelled: the origin moved along v and v times -3, the normal
        # times -3 and r^2 unreduced
        (geom.curve_pair_intersection,
         Line(point(F(1, 2), 0, 1), (F(2, 3), 1, 0)), Line(point(F(3, 2), F(3, 2), 1), (-2, -3, 0))),
        (geom.curve_pair_intersection, CIRCLE_25, Circle(point(0, 0, 0), (0, 0, -3), "75/3")),
        (geom.curve_pair_intersection, Circle(point(F(1, 2), F(-2, 3), 1), (1, 2, -2), F(9, 4)),
         Circle(Point3(F(2, 4), F(-4, 6), F(3, 3)), (-3, -6, 6), "18/8")),
    ]
    for pair, a, b in equal:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(CoincidentObjects):
                pair(x, y)
    implicit = [
        (geom.surface_pair_intersection, Implicit(sphere), Plane(0, 0, 1, 0)),
        (geom.surface_pair_intersection, Sphere(point(0, 0, 0), 1), Implicit(sphere)),
        (geom.curve_pair_intersection, ImplicitPair(sphere, plane), CIRCLE_25),
        (geom.curve_pair_intersection, CIRCLE_25, ImplicitPair(sphere, plane)),
    ]
    for pair, a, b in implicit:
        with pytest.raises(UnsupportedObject):
            pair(a, b)


class TestMembership:
    def test_point_on_sphere(self):
        s = Sphere(point(0, 0, 0), F(25))
        assert geom.point_on_surface(point(3, 4, 0), s)
        assert not geom.point_on_surface(point(3, 4, 1), s)

    def test_point_on_circle_needs_plane(self):
        c = Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(25))
        assert geom.point_on_curve(point(3, 4, 0), c)
        assert not geom.point_on_curve(point(3, 4, 1), c)

    def test_surface_contains_curve(self):
        s = Sphere(point(0, 0, 0), F(25))
        c = Circle(point(3, 0, 0), (F(1), F(0), F(0)), F(16))
        assert geom.surface_contains_curve(s, c)
        assert geom.surface_contains_curve(c.plane(), c)
        assert not geom.surface_contains_curve(Sphere(point(9, 0, 0), F(25)), c)
        lines = [
            (Line(point(1, 2, 0), (F(3), F(-1), F(0))), True),  # in the plane z = 0
            (Line(point(1, 2, 0), (F(-6), F(2), F(0))), True),  # the same, scaled
            (Line(point(1, 2, 5), (F(3), F(-1), F(0))), False),  # parallel, off it
            (Line(point(1, 2, 0), (F(3), F(-1), F(1))), False),  # crossing it
            (Line(point(1, 2, 5), (F(0), F(0), F(1))), False),  # crossing it at right angles
        ]
        for plane in (Plane(0, 0, 1, 0), Plane(0, 0, F(-1, 2), 0)):
            for line, inside in lines:
                assert geom.surface_contains_curve(plane, line) == inside


class TestValidation:
    def test_zero_normal_plane(self):
        with pytest.raises(ValidationError):
            Plane(F(0), F(0), F(0), F(1))

    def test_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            Sphere(point(0, 0, 0), F(0))

    def test_zero_direction_line(self):
        with pytest.raises(ValidationError):
            Line(point(0, 0, 0), (F(0), F(0), F(0)))

    def test_fraction_fields_kept_others_coerced(self):
        o, d, n = point(0, 0, 0), (F(1), F(2), F(-2)), (F(0), F(0), F(1))
        assert Line(o, d).direction is d
        assert Circle(o, n, F(4)).normal is n
        assert Line(o, [F(1), 0, "2"]).direction == (F(1), F(0), F(2))
        assert Circle(o, [0, 0, 1], 4) == Circle(o, n, F(4))
        for obj, fields in [(Plane(1, 2, "3/6", F(4)), "abcd"), (Sphere(o, 2), ["radius2"]),
                            (Circle(o, [0, 0, 1], "4"), ["radius2"])]:
            assert all(type(getattr(obj, f)) is F for f in fields)
        assert all(type(c) is F for c in Line(o, [1, 0, 2]).direction)

    @pytest.mark.parametrize("make, message", [
        (lambda: Plane(F(0), F(0), F(0), F(1)), "plane normal must be nonzero"),
        (lambda: Plane(0, 0, 0, 1), "plane normal must be nonzero"),
        (lambda: Sphere(point(0, 0, 0), F(-1)), "sphere needs radius2 > 0"),
        (lambda: Sphere(point(0, 0, 0), 0.5), "refusing to coerce float"),
        (lambda: Line(point(0, 0, 0), (F(1), F(0))), "line direction needs 3 entries"),
        (lambda: Line(point(0, 0, 0), [0, 0, 0]), "line direction must be nonzero"),
        (lambda: Circle(point(0, 0, 0), (F(0), F(1)), F(1)), "circle normal needs 3 entries"),
        (lambda: Circle(point(0, 0, 0), (F(0),) * 3, F(1)), "circle normal must be nonzero"),
        (lambda: Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(0)), "circle needs radius2 > 0"),
        (lambda: Circle(point(0, 0, 0), (F(0), F(0), 1.0), F(1)), "refusing to coerce float"),
    ])
    def test_validation_messages(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


# ---------------------------------------------------------------------------
# the integer forms, and the predicates and meets decided on them

MIXED = st.sampled_from([1, 1, 2, 3, 5, 6]).flatmap(
    lambda den: st.integers(-3 * den, 3 * den).map(lambda num: F(num, den)))
MIXED_VECTORS = st.tuples(MIXED, MIXED, MIXED)
NONZERO_VECTORS = MIXED_VECTORS.filter(any)
SCALES = st.sampled_from([1, -1, 2, F(1, 3), F(-5, 2)])


def _sphere_poly(s):
    unit = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 0, 0): -s.radius2})
    return unit.translate(s.center.as_tuple())


def _poly(s):
    return TriPoly.linear(s.a, s.b, s.c, s.d) if isinstance(s, Plane) else _sphere_poly(s)


@st.composite
def surface_meets(draw):
    """Two planes or spheres over mixed denominators in a drawn layout, and
    points where the predicates turn: a point x that most layouts put on
    both surfaces, the centres, points on the line of centres and in the
    planes, and points off everything.

    Sphere pairs run through x (a circle, or a tangency when x is on the
    line of centres), touch outside or inside, are nested, concentric,
    coincident, or free with a non-square r^2.  A plane and a sphere run
    through x, touch at x, miss, or cut a great circle.  Two planes cross
    through x, are parallel, or are one plane spelled twice."""
    x = draw(MIXED_VECTORS)
    c1 = draw(MIXED_VECTORS)
    v = draw(NONZERO_VECTORS)
    n = draw(NONZERO_VECTORS)
    alpha = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]))
    layout = draw(st.sampled_from([
        "through", "outside", "inside", "nested", "concentric", "coincident", "free",
        "plane-through", "plane-touch", "plane-miss", "plane-centre",
        "planes-cross", "planes-parallel", "planes-same",
    ]))
    c2 = geom.vadd(c1, v)
    vv = geom.norm2(v)
    if layout in ("through", "plane-through", "plane-touch") and x != c1:
        r1 = geom.norm2(geom.vsub(x, c1))
    else:
        r1 = draw(MIXED.filter(lambda r: r > 0))
    through_x = geom.vadd(x, geom.cross(n, draw(MIXED_VECTORS)))  # in the plane through x
    plane_at = lambda normal, at, lift=0: Plane(*normal, -geom.dot(normal, at) + lift)
    if layout == "through":
        pair = (Sphere(Point3(*c1), r1), Sphere(Point3(*c2), geom.norm2(geom.vsub(x, c2)) or 1))
    elif layout == "outside":
        pair = (Sphere(Point3(*c1), alpha**2 * vv), Sphere(Point3(*c2), (1 - alpha)**2 * vv))
    elif layout == "inside":
        pair = (Sphere(Point3(*c1), alpha**2 * vv), Sphere(Point3(*c2), (1 + alpha)**2 * vv))
    elif layout == "nested":
        pair = (Sphere(Point3(*c1), alpha**2 * vv / 4), Sphere(Point3(*c2), 9 * vv))
    elif layout == "concentric":
        # another r^2, one of them with r1's numerator over another denominator
        other = draw(st.sampled_from([r1 + 1, r1 + F(1, 4), F(r1.numerator, r1.denominator + 1)]))
        pair = (Sphere(Point3(*c1), r1), Sphere(Point3(*c1), other))
    elif layout == "coincident":
        pair = (Sphere(Point3(*c1), r1), Sphere(Point3(*c1), F(r1.numerator, r1.denominator)))
    elif layout == "free":
        pair = (Sphere(Point3(*c1), r1), Sphere(Point3(*c2), draw(MIXED.filter(lambda r: r > 0))))
    elif layout == "plane-through":
        pair = (plane_at(n, x), Sphere(Point3(*c1), r1))
    elif layout == "plane-touch":
        normal = geom.vsub(x, c1) if x != c1 else n
        pair = (plane_at(geom.vscale(draw(SCALES), normal), x), Sphere(Point3(*c1), r1))
    elif layout == "plane-miss":
        pair = (plane_at(n, c1, geom.norm2(n) * (r1 + 1)), Sphere(Point3(*c1), r1))
    elif layout == "plane-centre":
        pair = (plane_at(n, c1), Sphere(Point3(*c1), r1))
    elif layout == "planes-cross":
        pair = (plane_at(n, x), plane_at(draw(NONZERO_VECTORS), x))
    else:
        k = draw(SCALES)
        lift = draw(st.sampled_from([1, F(-1, 2)])) if layout == "planes-parallel" else 0
        pair = (plane_at(n, x), plane_at(geom.vscale(k, n), x, lift))
    if draw(st.booleans()):
        pair = pair[::-1]
    on_axis = [geom.vadd(c1, geom.vscale(t, v)) for t in (0, F(1, 2), 1, 2, -alpha)]
    others = draw(st.lists(MIXED_VECTORS, max_size=3))
    return (*pair, [Point3(*p) for p in [x, through_x, *on_axis, *others]])


def _same_meet(got, want):
    assert type(got) is type(want)
    if isinstance(want, Line):
        assert canonicalize(got) == canonicalize(want)  # the direction's length is free
    else:
        assert got == want


class TestIntegerForms:
    @pytest.mark.parametrize("make", [
        lambda: point(F(1, 2), 3, F(-4, 6)),
        lambda: Plane(F(1, 2), F(-1, 3), 0, 7),
        lambda: Sphere(point(F(1, 2), 0, F(1, 3)), F(9, 4)),
        lambda: Line(point(1, F(2, 5), 0), (F(2, 3), F(-4, 3), 0)),
        lambda: Circle(point(0, F(1, 6), 1), (0, 0, -2), F(5, 3)),
    ], ids=["point", "plane", "sphere", "line", "circle"])
    def test_form_changes_no_identity(self, make):
        obj, twin = make(), make()
        assert "ints" not in obj.__dict__  # nothing is built at construction
        key, text = hash(obj), repr(obj)
        form = obj.ints
        assert obj.__dict__["ints"] is form is obj.ints
        assert obj == twin and twin == obj
        assert hash(obj) == hash(twin) == key
        assert repr(obj) == repr(twin) == text
        assert {obj, twin} == {twin}

    def test_form_values(self):
        p = point(F(1, 2), 3, F(-4, 6))
        assert p.ints == ((3, 18, -4), 6)
        assert Plane(F(1, 2), F(-1, 3), 0, 7).ints == (3, -2, 0, 42)
        sphere = Sphere(p, F(9, 4))
        assert sphere.ints == (p.ints, 9, 4) and sphere.ints[0] is p.ints
        assert Line(p, (F(-2, 3), F(4, 3), 0)).ints == ((1, -2, 0), p.ints)
        assert Circle(p, (0, 0, -2), F(5, 3)).ints == (p.ints, 5, 3, (0, 0, 1))
        assert all(type(c) is int for c in p.ints[0])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(surface_meets())
    # tangent spheres, outside and inside, over mixed denominators
    @example((Sphere(point(0, 0, 0), F(1, 4)), Sphere(point(F(3, 2), 0, 0), F(1)),
              [point(F(1, 2), 0, 0), point(0, 0, 0)]))
    @example((Sphere(point(F(1, 3), 0, 0), F(1, 9)), Sphere(point(F(2, 3), 0, 0), F(4, 9)),
              [point(0, 0, 0), point(1, 0, 0)]))
    # a circle with non-square r^2, a point on it and one on its axis
    @example((Sphere(point(0, 0, 0), F(2)), Sphere(point(0, 0, 2), F(2)),
              [point(1, 1, 1), point(0, 0, 1), point(1, 1, 0)]))
    # concentric, and coincident over a respelled centre
    @example((Sphere(point(1, 2, 3), F(4)), Sphere(point(1, 2, 3), F(5)), [point(1, 2, 5)]))
    @example((Sphere(point(1, 2, 3), F(1, 2)), Sphere(point(1, 2, 3), F(1, 3)), []))
    @example((Sphere(point(F(2, 4), 0, 0), F(4)), Sphere(point(F(1, 2), 0, 0), F(8, 2)), []))
    # a plane touching a sphere, two spellings of one plane, and parallel
    # planes whose primitive normals are equal
    @example((Plane(0, 0, F(1, 2), -1), Sphere(point(0, 0, 0), F(4)), [point(0, 0, 2)]))
    @example((Plane(1, 2, 3, 4), Plane(F(-1, 2), -1, F(-3, 2), -2), [point(-4, 0, 0)]))
    @example((Plane(F(1, 2), 1, F(3, 2), 2), Plane(-1, -2, -3, -5), [point(-4, 0, 0)]))
    def test_matches_fraction_oracle(self, case):
        s1, s2, pts = case
        try:
            want = oracle.surface_pair_intersection(s1, s2)
        except CoincidentObjects:
            with pytest.raises(CoincidentObjects):
                geom.surface_pair_intersection(s1, s2)
            surfaces, curves = (s1, s2, Implicit(_poly(s1))), []
        else:
            got = geom.surface_pair_intersection(s1, s2)
            _same_meet(got, want)
            _same_meet(geom.surface_pair_intersection(s2, s1), oracle.surface_pair_intersection(s2, s1))
            surfaces = (s1, s2, Implicit(_poly(s1)), Implicit(_poly(s2)))
            curves = [ImplicitPair(_poly(s1), _poly(s2))]
            if isinstance(want, Point3):
                pts = [*pts, want]
            elif isinstance(want, Line):
                assert canonicalize(got) == got
                skew = geom.cross(want.direction, (1, 2, 5))
                curves += [want, got, Line(want.origin, skew if any(skew) else (1, 0, 0))]
            elif want is not None:
                pts = [*pts, want.center]
                curves += [want, Line(want.center, want.normal), Circle(want.center, want.normal, want.radius2 + 1),
                           Circle(want.center, geom.vadd(want.normal, (1, 0, 0)), want.radius2)]
        for p in pts:
            for s in surfaces:
                assert geom.point_on_surface(p, s) == oracle.point_on_surface(p, s)
            for c in curves:
                assert geom.point_on_curve(p, c) == oracle.point_on_curve(p, c)
        for s in (s1, s2):
            for c in curves:
                if not isinstance(c, ImplicitPair):
                    assert geom.surface_contains_curve(s, c) == oracle.surface_contains_curve(s, c)
                    if c is want:
                        assert geom.surface_contains_curve(s, c)


@st.composite
def line_pairs(draw):
    """Two lines over mixed denominators and their common points, or None
    when they are one line: lines crossing at x, skew (the second lifted off
    x along v1 x v2), parallel (the second moved off the first), or one line
    respelled, its origin moved along v and its direction scaled."""
    x, v1, v2 = draw(MIXED_VECTORS), draw(NONZERO_VECTORS), draw(NONZERO_VECTORS)
    n = geom.cross(v1, v2)
    assume(any(n))
    layout = draw(st.sampled_from(["crossing", "skew", "parallel", "same"]))
    o1 = geom.vadd(x, geom.vscale(draw(MIXED), v1))
    o2 = geom.vadd(x, geom.vscale(draw(MIXED), v2))
    l1 = Line(Point3(*o1), v1)
    if layout == "crossing":
        return l1, Line(Point3(*o2), v2), [Point3(*x)]
    if layout == "skew":
        lift = geom.vscale(draw(MIXED.filter(bool)), n)
        return l1, Line(Point3(*geom.vadd(o2, lift)), v2), []
    along = geom.vscale(draw(SCALES), v1)
    if layout == "parallel":
        return l1, Line(Point3(*geom.vadd(o1, geom.vscale(draw(MIXED.filter(bool)), v2))), along), []
    return l1, Line(Point3(*geom.vadd(o1, geom.vscale(draw(MIXED), v1))), along), None


class TestLineLineDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line_pairs())
    # crossing at a point over mixed denominators, skew, parallel, and one
    # line respelled with its origin moved along v and its direction times -3
    @example((Line(point(F(-1, 2), F(-2, 5), F(1, 3)), (1, F(2, 5), 0)),
              Line(point(F(3, 2), 0, F(4, 3)), (F(-1, 6), 0, F(-1, 6))),
              [point(F(1, 2), 0, F(1, 3))]))
    @example((Line(point(0, 0, 0), (1, 0, 0)), Line(point(0, 1, F(1, 2)), (0, 1, 0)), []))
    @example((Line(point(F(1, 3), 0, 0), (1, 2, 0)), Line(point(F(1, 3), 0, F(1, 7)), (-2, -4, 0)), []))
    @example((Line(point(F(1, 2), F(1, 3), 0), (F(2, 3), 1, -1)),
              Line(point(F(7, 6), F(4, 3), -1), (-2, -3, 3)), None))
    def test_matches_fraction_oracle(self, case):
        l1, l2, common = case
        for a, b in ((l1, l2), (l2, l1)):
            if common is None:
                for meet in (geom.curve_pair_intersection, oracle.curve_pair_intersection):
                    with pytest.raises(CoincidentObjects):
                        meet(a, b)
            else:
                assert geom.curve_pair_intersection(a, b) == oracle.curve_pair_intersection(a, b) == common


def test_curve_meets_build_no_plane_and_no_canonical_form(monkeypatch):
    # every curve meet decides on the integer forms: parallel, skew and
    # crossing lines, a line on, off and across a circle, and circles in
    # crossing, parallel and shared planes, concentric or one circle twice
    lines = [Line(point(0, 4, 0), (1, 0, 0)), Line(point(0, 0, 1), (1, 0, 0)),
             Line(point(3, 4, -2), Z_AXIS), Line(point(0, 1, 5), (0, -2, 0))]
    circles = [CIRCLE_25, Circle(point(0, 0, 0), (-2, 0, 0), 25), Circle(point(0, 0, 3), Z_AXIS, 16),
               Circle(point(0, 0, 1), Z_AXIS, 25), Circle(point(6, 0, 0), Z_AXIS, 25),
               Circle(point(0, 0, 0), Z_AXIS, 16), Circle(point(0, 0, 0), (0, 0, 3), 25)]
    curves = lines + circles
    want = [_outcome(oracle.curve_pair_intersection, a, b) for a in curves for b in curves]

    class Refused:
        def __new__(cls, *args):
            raise AssertionError("a curve meet built a Plane")

    def refuse(obj):
        raise AssertionError("a curve meet called canonicalize")

    monkeypatch.setattr(geom, "Plane", Refused)
    monkeypatch.setattr(geom, "canonicalize", refuse)
    assert [_outcome(geom.curve_pair_intersection, a, b) for a in curves for b in curves] == want
    assert "CoincidentObjects" in want


def _outcome(meet, a, b):
    try:
        return sorted(meet(a, b), key=Point3.as_tuple)
    except CoincidentObjects as exc:
        return type(exc).__name__
