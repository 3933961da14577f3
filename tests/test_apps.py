import random
from fractions import Fraction as F

import oracle
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inclab import apps, construct, geom
from inclab.errors import DegenerateShape, ValidationError
from inclab.geom import dist2, point

UNIT_SQUARE = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
EQUILATERAL = [point(0, 0, 0), point(1, 1, 0), point(1, 0, 1)]

# every sign of t = (1 + rho1 - rho2) / 2, which places the apex circle's
# centre on the line pq: behind p, at p, midway, at q, beyond q
SHAPES = [
    apps.TriangleShape(1, 3),  # t = -1/2
    apps.TriangleShape(F(4, 9), F(13, 9)),  # t = 0: rho2 = 1 + rho1
    apps.TriangleShape(1, 2),  # t = 0
    apps.TriangleShape(1, 1),  # t = 1/2: rho1 = rho2
    apps.TriangleShape(F(9, 4), F(9, 4)),  # t = 1/2
    apps.TriangleShape(F(25, 9), F(16, 9)),  # t = 1: rho1 = 1 + rho2
    apps.TriangleShape(F(3, 2), F(1, 3)),  # t = 13/12
]


@st.composite
def point_sets(draw, min_size=3, max_size=7):
    """Distinct rational points with denominators up to 12: all or some on
    one small lattice, so that similar triangles occur."""
    den = draw(st.integers(1, 12))
    lattice = st.integers(0, 2).map(lambda a: F(a, den))
    free = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
    on_lattice, anywhere = st.tuples(lattice, lattice, lattice), st.tuples(free, free, free)
    n = draw(st.integers(min_size, max_size))
    some_point = draw(st.sampled_from([on_lattice, st.one_of(on_lattice, anywhere)]))
    coords = draw(st.lists(some_point, min_size=n, max_size=n, unique=True))
    return [point(*c) for c in coords]


@st.composite
def census_cases(draw):
    """A point set and a shape: a fixed one, one taken from three of the
    points, or one with large denominators."""
    P = draw(point_sets())
    kind = draw(st.sampled_from(["fixed", "from_points", "from_points", "large"]))
    if kind == "fixed":
        return P, draw(st.sampled_from(SHAPES))
    try:
        if kind == "from_points":
            return P, apps.shape_from_points(*draw(st.permutations(P))[:3])
        big = st.integers(10**5, 10**6)
        d1, d2 = draw(big), draw(big)
        return P, apps.TriangleShape(
            F(draw(st.integers(d1 // 4, 4 * d1)), d1), F(draw(st.integers(d2 // 4, 4 * d2)), d2)
        )
    except DegenerateShape:
        assume(False)


@st.composite
def repeated_cases(draw):
    """Distinct points with mixed denominators up to 12 and a target: a
    squared distance of theirs, one divided by 13 or k / 13 (13 divides no
    denominator of the points, so d2 den^2 is not an integer), or any small
    fraction."""
    P = draw(point_sets(min_size=2, max_size=7))
    pairs = [dist2(p, q) for i, p in enumerate(P) for q in P[i + 1:]]
    d2 = draw(st.one_of(
        st.sampled_from(pairs),
        st.sampled_from(pairs).map(lambda d: d / 13),
        st.integers(1, 12).map(lambda k: F(k, 13)),
        st.fractions(min_value=F(1, 50), max_value=20, max_denominator=50),
    ))
    return P, d2


APEX_SHAPES = [
    apps.TriangleShape(1, 1),
    apps.TriangleShape(1, 2),
    apps.TriangleShape(F(25, 9), F(16, 9)),
    apps.TriangleShape(F(4, 9), F(13, 9)),
]


@st.composite
def apex_cases(draw):
    """Up to 14 distinct points of [0, k]^3, k = 3 or 4, over the
    denominator 1, 2 or 3, which have many collinear triples and coplanar
    quadruples, so many apex axes coincide or cross; and a shape with
    L = 1 (1,1 and 1,2) or L > 1 (25/9,16/9 and 4/9,13/9), or one taken
    from three of the points."""
    k = draw(st.sampled_from([3, 4]))
    den = draw(st.sampled_from([1, 2, 3]))
    cell = st.tuples(st.integers(0, k), st.integers(0, k), st.integers(0, k))
    cells = draw(st.lists(cell, min_size=3, max_size=14, unique=True))
    P = [point(F(x, den), F(y, den), F(z, den)) for x, y, z in cells]
    if draw(st.booleans()):
        return P, draw(st.sampled_from(APEX_SHAPES))
    try:
        return P, apps.shape_from_points(*draw(st.permutations(P))[:3])
    except DegenerateShape:
        assume(False)


def _raised(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


class TestDistances:
    def test_collinear(self):
        assert apps.distinct_distances([point(i, 0, 0) for i in range(5)]) == 4

    def test_unit_square(self):
        assert apps.distinct_distances(UNIT_SQUARE) == 2

    def test_bipartite(self):
        assert apps.bipartite_distinct_distances(
            [point(0, 0, 0)], [point(1, 0, 0), point(0, 2, 0)]
        ) == 2

    def test_bipartite_rejects_overlap(self):
        # the shared point would count the zero distance
        O, A = point(0, 0, 0), point(1, 0, 0)
        with pytest.raises(ValidationError, match="P1 and P2 must be disjoint"):
            apps.bipartite_distinct_distances([O], [O, A])

    def test_bipartite_matches_t(self):
        P1 = [point(1, 0, 0), point(0, 2, 0)]
        P2 = [point(0, 0, 3), point(4, 4, 4)]
        _, t = construct.gen_distance_spheres(P1, P2)
        assert apps.bipartite_distinct_distances(P1, P2) == t

    def test_oracle_agreement(self):
        P = construct.gen_random_on_variety("paraboloid", 30, seed=2).points
        expected = len({dist2(p, q) for i, p in enumerate(P) for q in P[i + 1:]})
        assert apps.distinct_distances(P) == expected

    def test_repeated_square(self):
        assert apps.repeated_distances(UNIT_SQUARE, 1) == 4
        assert apps.repeated_distances(UNIT_SQUARE, 2) == 2

    def test_repeated_grid(self):
        grid = [point(i, j, 0) for i in range(4) for j in range(4)]
        assert apps.repeated_distances(grid, 1) == 24

    def test_repeated_rational(self):
        pts = [point(0, 0, 0), point(F(1, 2), 0, 0), point(1, 0, 0)]
        assert apps.repeated_distances(pts, F(1, 4)) == 2
        # no two points of an integer set are at squared distance 1/3
        assert apps.repeated_distances(UNIT_SQUARE, F(1, 3)) == 0

    def test_repeated_requires_positive(self):
        with pytest.raises(ValidationError):
            apps.repeated_distances(UNIT_SQUARE, 0)

    def test_repeated_rejects_duplicates(self):
        # [O, A, A] at d2 = 1 would count the pair (O, A) once per copy of A,
        # and a duplicate is rejected even when the target is never reached
        P = [point(0, 0, 0), point(F(1, 2), 0, 0), point(F(1, 2), 0, 0)]
        for d2 in (F(1, 4), F(1, 3)):
            with pytest.raises(ValidationError, match="points must be distinct"):
                apps.repeated_distances(P, d2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(repeated_cases())
    @example(([point(0, 0, 0), point(F(1, 2), 0, 0), point(F(1, 3), F(1, 4), 0)], F(1, 4)))
    @example(([point(0, 0, 0), point(F(1, 2), 0, 0), point(F(1, 3), F(1, 4), 0)], F(1, 5)))
    def test_repeated_matches_oracle(self, case):
        P, d2 = case
        assert apps.repeated_distances(P, d2) == oracle.repeated_distances(P, d2)


class TestTriangleShape:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateShape):
            apps.TriangleShape(4, 1)  # squared sides 1, 4, 1: flat
        with pytest.raises(DegenerateShape):
            apps.TriangleShape(-1, 1)

    def test_valid_shapes(self):
        apps.TriangleShape(1, 1)
        apps.TriangleShape(1, 2)
        apps.TriangleShape(F(9, 4), F(25, 16))

    def test_from_points(self):
        s = apps.shape_from_points(*EQUILATERAL)
        assert s.rho1 == 1 and s.rho2 == 1


class TestTriangleCircles:
    def test_equilateral_locus(self):
        circles = apps.triangle_circles(
            [point(0, 0, 0), point(1, 0, 0)], apps.TriangleShape(1, 1)
        )
        assert len(circles) == 1
        circle, mult = circles[0]
        assert circle.center == point(F(1, 2), 0, 0)
        assert circle.radius2 == F(3, 4)
        assert mult == 2  # both orderings give the same locus

    def test_right_isosceles_locus(self):
        circles = apps.triangle_circles(
            [point(0, 0, 0), point(1, 0, 0)], apps.TriangleShape(1, 2)
        )
        centers = {c.center for c, _ in circles}
        assert point(0, 0, 0) in centers
        assert all(m == 1 for _, m in circles)

    def test_multiplicity_bound(self):
        rng = random.Random(3)
        P = sorted(
            {point(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
             for _ in range(14)},
            key=lambda p: (p.x, p.y, p.z),
        )
        for shape in (apps.TriangleShape(1, 1), apps.TriangleShape(1, 2)):
            assert all(m <= 2 for _, m in apps.triangle_circles(P, shape))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(census_cases())
    def test_matches_fraction_oracle(self, case):
        P, shape = case
        got = [(repr(c), m) for c, m in apps.triangle_circles(P, shape)]
        assert got == [(repr(c), m) for c, m in oracle.triangle_circles(P, shape)]


class TestBruteforce:
    def test_equilateral(self):
        assert apps.similar_triangles_bruteforce(EQUILATERAL, apps.TriangleShape(1, 1)) == 1

    def test_unit_square(self):
        assert apps.similar_triangles_bruteforce(UNIT_SQUARE, apps.TriangleShape(1, 2)) == 4

    def test_collinear_excluded(self):
        pts = [point(i, 0, 0) for i in range(4)]
        assert apps.similar_triangles_bruteforce(pts, apps.TriangleShape(1, 1)) == 0

    def test_scaled_and_rotated_counted(self):
        # two homothetic right-isosceles triangles
        pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0),
               point(10, 10, 0), point(14, 10, 0), point(10, 14, 0)]
        count = apps.similar_triangles_bruteforce(pts, apps.TriangleShape(1, 2))
        assert count >= 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(census_cases())
    def test_matches_fraction_oracle(self, case):
        P, shape = case
        assert apps.similar_triangles_bruteforce(P, shape) == \
            oracle.similar_triangles_bruteforce(P, shape)


class TestCensus:
    def test_too_few_points(self):
        # the arity check comes before the apex table, which takes two points
        for P in ([], [point(0, 0, 0)], UNIT_SQUARE[:2]):
            with pytest.raises(ValidationError, match="need at least three points"):
                apps.similar_triangles_via_incidences(P, apps.TriangleShape(1, 1))

    def test_unit_square_census(self):
        census = apps.similar_triangles_via_incidences(UNIT_SQUARE, apps.TriangleShape(1, 2))
        assert census.count_bruteforce == 4
        assert census.incidences == 8
        assert census.flags == []
        assert census.cospherical_coplanar_max <= 8

    def test_exact_triangle(self):
        census = apps.similar_triangles_via_incidences(EQUILATERAL, apps.TriangleShape(1, 1))
        assert census.count_bruteforce == 1
        assert census.incidences >= 2
        assert census.flags == []

    def test_circle_shared_by_two_pairs(self):
        # t = -1: the pairs (0, 1) and (-2, -3) on the x axis share the apex
        # circle centred at x = -1, and (-1, 1, 0) on it completes a scalene
        # triangle with each of them
        P = [point(0, 0, 0), point(1, 0, 0), point(-2, 0, 0), point(-3, 0, 0), point(-1, 1, 0)]
        shape = apps.TriangleShape(2, 5)
        census = apps.similar_triangles_via_incidences(P, shape)
        assert census.count_bruteforce == apps.similar_triangles_bruteforce(P, shape) == 2
        assert max(census.multiplicities) == 2

    def test_random_instance_invariants(self):
        rng = random.Random(12)
        P = sorted(
            {point(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
             for _ in range(16)},
            key=lambda p: (p.x, p.y, p.z),
        )
        census = apps.similar_triangles_via_incidences(P, apps.TriangleShape(1, 1))
        assert census.count_bruteforce == apps.similar_triangles_bruteforce(
            P, apps.TriangleShape(1, 1)
        )
        assert 3 * census.count_bruteforce <= 2 * census.incidences
        assert all(m <= 2 for m in census.multiplicities)
        assert census.cospherical_coplanar_max <= 2 * len(P)


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(census_cases())
    # frame scale L > 1, where some circles' W / L is not an integer and the
    # census skips them: t = 0 and L = 9 over den 3 (a triangle on the
    # circle of (0, 0, 0), (1, 0, 0)), and t = 1/2 and L = 3 over den 2 (one
    # 120-degree isosceles triangle)
    @example((
        [point(0, 0, 0), point(1, 0, 0), point(0, F(2, 3), 0), point(F(1, 3), F(1, 3), 0),
         point(0, 0, F(2, 3))],
        apps.TriangleShape(F(4, 9), F(13, 9)),
    ))
    @example((
        [point(0, 0, 0), point(F(-1, 2), F(-1, 2), 0), point(F(1, 2), 0, F(-1, 2)),
         point(F(1, 2), 0, 0), point(F(1, 2), F(1, 2), F(1, 2))],
        apps.TriangleShape(F(1, 3), F(1, 3)),
    ))
    def test_count_matches_fraction_bruteforce(self, case):
        P, shape = case
        census = apps.similar_triangles_via_incidences(P, shape)
        assert census.count_bruteforce == oracle.similar_triangles_bruteforce(P, shape)
        expected = oracle.triangle_circles(P, shape)
        # the census's numbers come from the integer table, the witnesses
        # from triangle_circles
        assert len(census.multiplicities) == len(expected)
        assert sorted(census.multiplicities) == sorted(m for _, m in expected)
        assert [(repr(c), m) for c, m in apps.triangle_circles(P, shape)] == \
            [(repr(c), m) for c, m in expected]
        circles = [c for c, _ in expected]
        assert census.incidences == len(oracle.incidence_edges(P, circles))
        assert census.cospherical_coplanar_max == oracle.coplanar_cospherical_max(circles)[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(apex_cases())
    # t = 0: the circles of (p, q) and (q, p) lie on the sphere centred at
    # the midpoint of pq, which is neither a point of P nor a crossing of
    # two axes here; only the coaxial pair finds it, and no plane or other
    # sphere holds two circles
    @example(([point(0, 0, 0), point(1, 0, 0), point(0, 2, 0)], APEX_SHAPES[3]))
    # t = 0: the four diagonal circles of the unit square lie on one sphere
    # centred at (1/2, 1/2, 0), where the diagonals cross
    @example((UNIT_SQUARE, APEX_SHAPES[3]))
    # the 27 points of [0, 3)^3: many circles share axes and spheres
    @example(([point(x, y, z) for x in range(3) for y in range(3) for z in range(3)],
              APEX_SHAPES[1]))
    def test_apex_count_matches_all_pairs(self, case):
        census = apps.similar_triangles_via_incidences(*case)
        apex = apps._apex_circles(*case)
        frame = list(apex.pairs)
        assert census.cospherical_coplanar_max == \
            oracle.all_pairs_cospherical_max(frame, apex.scale)[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(point_sets(min_size=0, max_size=4), st.booleans(), st.sampled_from(SHAPES))
    def test_bad_input_errors_match_oracle(self, P, duplicate, shape):
        if duplicate and P:
            P = P + [P[-1]]
        assume(len(P) < 3 or duplicate)

        def oracle_census(P, shape):
            oracle.similar_triangles_bruteforce(P, shape)
            oracle.triangle_circles(P, shape)

        error = _raised(oracle_census, P, shape)
        assert error is not None
        assert _raised(apps.similar_triangles_via_incidences, P, shape) == error
        for ours, ref in ((apps.triangle_circles, oracle.triangle_circles),
                          (apps.similar_triangles_bruteforce, oracle.similar_triangles_bruteforce)):
            assert _raised(ours, P, shape) == _raised(ref, P, shape)
