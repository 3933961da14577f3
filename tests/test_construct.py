import random
from fractions import Fraction as F

import pytest

from inclab import construct, engine, geom
from inclab.errors import GuardExceeded, ValidationError
from inclab.geom import Circle, Sphere, dist2, point


class TestElekes:
    def test_sizes_and_counts(self):
        for kk in (1, 2, 4):
            inst = construct.gen_elekes_grid(kk)
            assert len(inst.points) == 2 * kk**3
            assert len(inst.curves) == kk**3
            count, _ = engine.count_incidences(inst.points, inst.curves)
            assert count == kk**4

    def test_every_line_has_kk_points(self):
        inst = construct.gen_elekes_grid(3)
        _, graph = engine.count_incidences(inst.points, inst.curves)
        for oid in graph.object_ids:
            assert sum(1 for (_, o) in graph.edges if o == oid) == 3

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            construct.gen_elekes_grid(17)


class TestParaboloidLift:
    def test_point_on_parabola_and_surface(self):
        inst = construct.gen_paraboloid_lift([(0, 0)], witnesses=[(1, 0, 0)])
        parabola = inst.curves[0]
        surface = inst.surfaces[0]
        p = point(1, 0, 1)
        assert geom.point_on_curve(p, parabola)
        assert surface.poly.evaluate(p) == 0

    def test_surface_vanishes_on_parabola(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b = F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5))
            w = tuple(F(rng.randint(-4, 4)) for _ in range(3))
            surf = construct.lift_surface(a, b, *w)
            for i in range(-12, 13):
                x = F(i, 5)
                assert surf.poly.evaluate(construct.lift_point(x, a * x + b)) == 0

    def test_planar_count_preserved(self):
        kk = 2
        grid = construct.gen_elekes_grid(kk)
        planar_count, _ = engine.count_incidences(grid.points, grid.curves)
        lines = [(a, b) for a in range(1, kk + 1) for b in range(1, kk**2 + 1)]
        pts = [(i, j) for i in range(1, kk + 1) for j in range(1, 2 * kk**2 + 1)]
        lifted = construct.gen_paraboloid_lift(lines, planar_points=pts)
        lifted_count, _ = engine.count_incidences(lifted.points, lifted.curves)
        assert planar_count == lifted_count == 16

    def test_duplicate_lines_rejected(self):
        with pytest.raises(ValidationError):
            construct.gen_paraboloid_lift([(1, 2), (1, 2)])


class TestPacking:
    def test_identity(self):
        inst = construct.gen_elekes_grid(2)
        same = construct.gen_packing_copies(inst, 1, seed=0)
        assert same.points == inst.points

    def test_three_copies(self):
        inst = construct.gen_elekes_grid(2)
        packed = construct.gen_packing_copies(inst, 3, seed=0)
        count, _ = engine.count_incidences(packed.points, packed.curves)
        assert count == 48
        assert len(set(packed.points)) == 3 * len(inst.points)


class TestVarietyPoints:
    def test_sphere_membership(self):
        inst = construct.gen_random_on_variety("sphere", 40, seed=1)
        assert len(set(inst.points)) == 40
        for p in inst.points:
            assert p.x**2 + p.y**2 + p.z**2 == 1

    def test_sphere_shifted(self):
        c = point(1, 2, 3)
        inst = construct.gen_random_on_variety("sphere", 10, seed=2, center=c, radius2=F(9, 4))
        for p in inst.points:
            assert dist2(p, c) == F(9, 4)

    def test_sphere_irrational_radius_rejected(self):
        with pytest.raises(ValidationError):
            construct.gen_random_on_variety("sphere", 5, seed=0, radius2=2)

    def test_sphere_zero_radius_rejected(self):
        # every stereographic draw would be the centre: no second point exists
        with pytest.raises(ValidationError, match="> 0"):
            construct.gen_random_on_variety("sphere", 3, 0, radius2=0)

    def test_paraboloid_membership(self):
        inst = construct.gen_random_on_variety("paraboloid", 40, seed=3)
        for p in inst.points:
            assert p.z == p.x**2 + p.y**2

    def test_plane_membership(self):
        inst = construct.gen_random_on_variety("plane", 40, seed=4)
        assert all(p.z == 0 for p in inst.points)

    def test_deterministic(self):
        a = construct.gen_random_on_variety("sphere", 10, seed=9)
        b = construct.gen_random_on_variety("sphere", 10, seed=9)
        assert a.points == b.points


class TestDistanceSpheres:
    def test_trivial(self):
        spheres, t = construct.gen_distance_spheres([point(0, 0, 0)], [point(1, 0, 0)])
        assert t == 1 and len(spheres) == 1
        count, _ = engine.count_incidences([point(0, 0, 0)], spheres)
        assert count == 1

    def test_shared_distance(self):
        P1 = [point(0, 0, 0), point(2, 0, 0)]
        P2 = [point(1, 0, 0)]
        spheres, t = construct.gen_distance_spheres(P1, P2)
        assert t == 1 and len(spheres) == 1
        count, _ = engine.count_incidences(P1, spheres)
        assert count == 2

    def test_mn_identity(self):
        P1 = construct.gen_random_on_variety("paraboloid", 15, seed=6).points
        rng = random.Random(7)
        P2 = sorted(
            {point(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(20, 40))
             for _ in range(10)},
            key=lambda p: (p.x, p.y, p.z),
        )
        spheres, t = construct.gen_distance_spheres(P1, P2)
        assert len(spheres) == len(P2) * t
        count, _ = engine.count_incidences(P1, spheres)
        assert count == len(P1) * len(P2)

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            construct.gen_distance_spheres([point(0, 0, 0)], [point(0, 0, 0)])


class TestUnitSpheres:
    def test_unit_square(self):
        pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
        spheres = construct.gen_unit_spheres(pts)
        count, _ = engine.count_incidences(pts, spheres)
        assert count == 8

    def test_collinear(self):
        pts = [point(i, 0, 0) for i in range(4)]
        count, _ = engine.count_incidences(pts, construct.gen_unit_spheres(pts))
        assert count == 6

    def test_twice_unit_pairs(self):
        rng = random.Random(8)
        pts = sorted(
            {point(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 1))
             for _ in range(30)},
            key=lambda p: (p.x, p.y, p.z),
        )
        u = sum(
            1 for i in range(len(pts)) for j in range(i + 1, len(pts))
            if dist2(pts[i], pts[j]) == 1
        )
        count, _ = engine.count_incidences(pts, construct.gen_unit_spheres(pts))
        assert count == 2 * u


class TestAxisMultiplicity:
    def test_point_on_axis(self):
        gamma = Circle(point(0, 0, 0), (F(0), F(0), F(1)), F(1))
        assert construct.circle_axis_multiplicity(gamma, [point(0, 0, 5)]) == 1
        assert construct.circle_axis_multiplicity(gamma, []) == 0
        assert construct.circle_axis_multiplicity(gamma, [point(1, 0, 0)]) == 0

    def test_distance_sphere_relation(self):
        P1 = [point(1, 0, 0), point(0, 1, 0), point(-1, 0, 0)]
        P2 = [point(0, 0, 1), point(0, 0, -1), point(0, 0, 2)]
        spheres, t = construct.gen_distance_spheres(P1, P2)
        seen = {}
        import itertools

        for s1, s2 in itertools.combinations(spheres, 2):
            r = geom.surface_pair_intersection(s1, s2)
            if isinstance(r, geom.CircleCurve):
                seen.setdefault(geom.canonicalize(r.circle), set()).update((s1, s2))
        for gamma in seen:
            mult = sum(1 for s in spheres if geom.surface_contains_curve(s, gamma))
            axis_mult = construct.circle_axis_multiplicity(gamma, P2)
            assert mult <= axis_mult
            assert mult <= 2 * t
            if any(geom.point_on_curve(p, gamma) for p in P1):
                assert mult == axis_mult
