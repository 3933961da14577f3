import random
from fractions import Fraction as F

import pytest

from inclab import apps, construct, geom
from inclab.errors import DegenerateShape, ValidationError
from inclab.geom import dist2, point

UNIT_SQUARE = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
EQUILATERAL = [point(0, 0, 0), point(1, 1, 0), point(1, 0, 1)]


class TestDistances:
    def test_collinear(self):
        assert apps.distinct_distances([point(i, 0, 0) for i in range(5)]) == 4

    def test_unit_square(self):
        assert apps.distinct_distances(UNIT_SQUARE) == 2

    def test_bipartite(self):
        assert apps.bipartite_distinct_distances(
            [point(0, 0, 0)], [point(1, 0, 0), point(0, 2, 0)]
        ) == 2

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


class TestCensus:
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
        assert all(m <= 2 for _, m in census.circles)
        assert census.cospherical_coplanar_max <= 2 * len(P)
