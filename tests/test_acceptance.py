"""Acceptance suite: one test per criterion, each printing its own
pass/fail line under pytest -v.  All counts are exact; bound evaluation is
shape-only with unit constants."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from inclab import apps, bounds, construct, engine, geom, partition
from inclab.bounds import BoundFormula
from inclab.geom import Line, Sphere, dist2, point

# ratio reports collected by the criteria as they run; criterion 11 asserts
# that none of them is flagged.  The reporting criteria run their checks
# through once-per-session helpers, and criterion 11 calls those helpers
# too, so it sees every report whether it runs alone or in the suite.
RATIO_REPORTS = []


def _record(observed, formula, params):
    RATIO_REPORTS.append(bounds.verify_instance(observed, BoundFormula(formula, params)))


def random_int_points(n, seed, lo=-12, hi=12, zhi=None):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(point(
            rng.randint(lo, hi), rng.randint(lo, hi),
            rng.randint(lo, zhi if zhi is not None else hi),
        ))
    return sorted(pts, key=lambda p: (p.x, p.y, p.z))


@functools.cache
def _distance_sphere_identity():
    """The checks of criterion #1, run once per session."""
    rng = random.Random(100)
    sizes = [(rng.randint(4, 15), rng.randint(3, 10)) for _ in range(24)] + [(40, 25)]
    for idx, (m, n) in enumerate(sizes):
        P1 = construct.gen_random_on_variety("paraboloid", m, seed=200 + idx).points
        P2 = random_int_points(n, seed=300 + idx, lo=-9, hi=9)
        P2 = [point(p.x, p.y, p.z + 100) for p in P2]  # keep P1, P2 disjoint
        spheres, t = construct.gen_distance_spheres(P1, P2)
        assert len(spheres) == n * t
        count, _ = engine.count_incidences(P1, spheres)
        assert count == m * n
        if idx % 6 == 0:
            _record(count, "spheres_variety", {"m": m, "n": len(spheres)})


def test_criterion_01_distance_sphere_identity():
    """25 seeded instances: I(P1, distance spheres) = m * n exactly."""
    _distance_sphere_identity()


def test_criterion_02_unit_distance_identity():
    """Incidences with unit spheres = 2 * U on grids and random sets."""
    cases = []
    for a, b, c in [(3, 3, 1), (4, 4, 2), (6, 6, 2), (5, 2, 2), (6, 6, 1)]:
        cases.append([point(i, j, k) for i in range(a) for j in range(b) for k in range(c)])
    for s in range(25):
        cases.append(random_int_points(random.Random(s).randint(8, 30), seed=400 + s,
                                       lo=0, hi=5, zhi=2))
    for pts in cases:
        u = sum(
            1 for p, q in itertools.combinations(pts, 2) if dist2(p, q) == 1
        )
        count, _ = engine.count_incidences(pts, construct.gen_unit_spheres(pts))
        assert count == 2 * u


@functools.cache
def _elekes_tightness():
    """The checks of criterion #3, run once per session."""
    series = []
    for kk in range(1, 7):
        inst = construct.gen_elekes_grid(kk)
        count, _ = engine.count_incidences(inst.points, inst.curves)
        assert count == kk**4
        m, n = len(inst.points), len(inst.curves)
        series.append((m, count))
        ratio = count / (m ** (2 / 3) * n ** (2 / 3))
        assert abs(ratio - 2 ** (-2 / 3)) < 1e-12
        _record(count, "lines_GK", {"m": m, "n": n, "q": n})
    slope, _, residual = bounds.fit_exponent(series)
    assert abs(slope - 4 / 3) < 1e-12
    assert residual < 1e-12


def test_criterion_03_elekes_tightness():
    """I(kk) = kk^4; fitted exponent vs m is 4/3; ratio is 2^(-2/3)."""
    _elekes_tightness()


@functools.cache
def _similar_triangle_pipeline():
    """The checks of criterion #4, run once per session."""
    shapes = [apps.TriangleShape(1, 1), apps.TriangleShape(1, 2),
              apps.TriangleShape(F(25, 9), F(16, 9))]
    sizes = [8] * 25 + [12] * 15 + [16] * 7 + [24, 32, 40]
    assert len(sizes) == 50
    for idx, n in enumerate(sizes):
        P = random_int_points(n, seed=500 + idx)
        shape = shapes[idx % len(shapes)]
        census = apps.similar_triangles_via_incidences(P, shape)
        assert census.count_bruteforce == apps.similar_triangles_bruteforce(P, shape)
        assert 3 * census.count_bruteforce <= 2 * census.incidences
        assert all(m <= 2 for m in census.multiplicities)
        assert census.cospherical_coplanar_max <= 2 * n
        assert census.flags == []
        if idx % 10 == 0:
            _record(census.count_bruteforce, "similar_triangles", {"n": n})
    # unit square: expected count 4
    square = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(1, 1, 0)]
    census = apps.similar_triangles_via_incidences(square, apps.TriangleShape(1, 2))
    assert census.count_bruteforce == 4
    assert census.flags == []


def test_criterion_04_similar_triangle_pipeline():
    """Brute force = pipeline; 3*S <= 2*I; multiplicity <= 2; q <= 2n."""
    _similar_triangle_pipeline()


def test_criterion_05_partitioner_guarantees():
    """10 seeds at m=512, t=3, delta=1/4: cells <= 80 points, line
    crossings <= D+1 = 5, build < 60 s per seed."""
    gen = random.Random(600)
    for seed in range(10):
        pts = set()
        while len(pts) < 512:
            pts.add(point(gen.randint(-99, 99), gen.randint(-99, 99), gen.randint(-99, 99)))
        pts = sorted(pts, key=lambda p: (p.x, p.y, p.z))
        start = time.monotonic()
        part = partition.build_partition(pts, t=3, delta=F(1, 4), seed=seed)
        elapsed = time.monotonic() - start
        assert elapsed < 60
        census = partition.cell_census(pts, part)
        open_cells = {k: v for k, v in census.items() if k != partition.Z_LABEL}
        assert max(open_cells.values()) <= 80
        assert part.total_degree == 4
        lrng = random.Random(700 + seed)
        for _ in range(100):
            origin = point(lrng.randint(-80, 80), lrng.randint(-80, 80), lrng.randint(-80, 80))
            direction = (F(lrng.randint(-7, 7)), F(lrng.randint(-7, 7)), F(lrng.randint(1, 7)))
            crossings = partition.crossing_census(Line(origin, direction), part)
            assert crossings <= 5


def _shared_circle_instance(seed):
    """Spheres through a common circle plus random spheres and points."""
    rng = random.Random(seed)
    spheres = []
    # coaxial family through the circle x^2 + y^2 = 1 in z = 0
    for z in rng.sample(range(-4, 5), rng.randint(2, 4)):
        spheres.append(Sphere(point(0, 0, z), F(1 + z * z)))
    for _ in range(rng.randint(3, 8)):
        s = Sphere(point(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
                   F(rng.randint(1, 16)))
        if s not in spheres:
            spheres.append(s)
    pts = [point(1, 0, 0), point(0, 1, 0), point(-1, 0, 0)]
    pts += random_int_points(rng.randint(5, 20), seed=seed + 1, lo=-4, hi=4)
    pts = list(dict.fromkeys(pts))
    return pts, spheres


def test_criterion_06_decomposition_coverage():
    """Component products plus residual reproduce the incidence graph."""
    for seed in range(25):
        pts, spheres = _shared_circle_instance(800 + seed)
        assert len(pts) <= 64 and len(spheres) <= 64
        dec = engine.decompose(pts, spheres)
        covered = set(dec.residual_edges)
        for _, p_ids, s_ids in dec.components:
            covered.update((p, s) for p in p_ids for s in s_ids)
        _, graph = engine.count_incidences(pts, spheres)
        assert covered == set(graph.edges)
    # three spheres through one circle: J = |P_gamma| + 3 exactly
    pts = [point(1, 0, 0), point(0, 1, 0), point(5, 5, 5)]
    spheres = [Sphere(point(0, 0, 0), F(1)), Sphere(point(0, 0, 1), F(2)),
               Sphere(point(0, 0, -2), F(5))]
    dec = engine.decompose(pts, spheres)
    assert len(dec.components) == 1
    _, p_ids, s_ids = dec.components[0]
    j, _, _, _ = engine.j_value(dec)
    assert j == len(p_ids) + 3


def test_criterion_07_circle_axis_multiplicity():
    """Distance-sphere shared circles: multiplicity <= 2t and tied to the
    number of axis points, exhaustively on m, n <= 15 instances."""
    instances = []
    for seed in range(4):
        rng = random.Random(900 + seed)
        m, n = rng.randint(6, 15), rng.randint(3, 6)
        P1 = random_int_points(m, seed=910 + seed, lo=-2, hi=2)
        P2 = [point(p.x, p.y, p.z + 6) for p in random_int_points(n, 920 + seed, lo=-2, hi=2)]
        instances.append((P1, P2))
    # compact 15 x 15 instance: parallel grid slabs share few distances
    grid = [point(i, j, 0) for i in range(4) for j in range(4)][:15]
    instances.append((grid, [point(p.x, p.y, 3) for p in grid]))
    instances.append(([point(1, 0, 0), point(0, 1, 0), point(-1, 0, 0)],
                      [point(0, 0, 1), point(0, 0, -1), point(0, 0, 2)]))
    for P1, P2 in instances:
        spheres, t = construct.gen_distance_spheres(P1, P2)
        # every pair of spheres through a circle reports it, so the union of
        # pair members is the full set of spheres containing the circle
        shared = {}
        for i, j in itertools.combinations(range(len(spheres)), 2):
            result = geom.surface_pair_intersection(spheres[i], spheres[j])
            if isinstance(result, geom.Circle):
                shared.setdefault(geom.canonicalize(result), set()).update((i, j))
        for gamma, members in shared.items():
            mult = len(members)
            assert all(geom.surface_contains_curve(spheres[i], gamma) for i in members)
            axis_mult = construct.circle_axis_multiplicity(gamma, P2)
            assert mult <= 2 * t
            assert mult <= axis_mult
            if any(geom.point_on_curve(p, gamma) for p in P1):
                assert mult == axis_mult


def test_criterion_08_paraboloid_lift_identity():
    """Quadric vanishes identically on its parabola; planar count equals
    lifted count on the kk=2 grid."""
    rng = random.Random(1000)
    for _ in range(100):
        a = F(rng.randint(-8, 8), rng.randint(1, 5))
        b = F(rng.randint(-8, 8), rng.randint(1, 5))
        w = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        surface = construct.lift_surface(a, b, *w)
        for i in range(25):
            x = F(i - 12, 7)
            p = construct.lift_point(x, a * x + b)
            assert surface.poly.evaluate(p) == 0
    kk = 2
    grid = construct.gen_elekes_grid(kk)
    planar_count, _ = engine.count_incidences(grid.points, grid.curves)
    lines = [(a, b) for a in range(1, kk + 1) for b in range(1, kk**2 + 1)]
    pts = [(i, j) for i in range(1, kk + 1) for j in range(1, 2 * kk**2 + 1)]
    lifted = construct.gen_paraboloid_lift(lines, planar_points=pts)
    lifted_count, _ = engine.count_incidences(lifted.points, lifted.curves)
    assert planar_count == lifted_count


@functools.cache
def _unit_sphere_k33_free():
    """The checks of criterion #9, run once per session."""
    for seed in range(25):
        n = random.Random(seed).randint(10, 30)
        pts = random_int_points(n, seed=1100 + seed, lo=0, hi=4, zhi=2)
        spheres = construct.gen_unit_spheres(pts)
        count, graph = engine.count_incidences(pts, spheres)
        assert not engine.contains_krs(graph, 3, 3)
        if seed % 5 == 0:
            _record(count, "unit_variety", {"n": n})


def test_criterion_09_unit_sphere_k33_free():
    """contains_krs(3, 3) is false on 25 seeded unit-sphere instances."""
    _unit_sphere_k33_free()


def test_criterion_10_bound_evaluator_regression():
    """lines_GK exact value; k=2 specialization; regime continuity."""
    assert bounds.eval_bound(BoundFormula("lines_GK", {"m": 4096, "n": 4096, "q": 4096})) == 106496.0
    rng = random.Random(1200)
    for _ in range(100):
        m, n, q = (rng.randint(1, 10**6) for _ in range(3))
        a = bounds.eval_bound(BoundFormula("curves3d_main", {"m": m, "n": n, "q": q, "k": 2}))
        b = bounds.eval_bound(BoundFormula("lines_GK", {"m": m, "n": n, "q": q}))
        assert a == b
    for n in (64, 256, 1024, 4096):
        m = math.isqrt(n**3)
        small = partition.plan_degree(m, n, 2)
        large = partition.plan_degree(m + 1, n, 2)
        assert abs(small.D - large.D) <= 1


def test_criterion_11_scaling_evidence():
    """Unit-distance slope on planar grids <= 4/3 + 0.15, and no flagged
    ratios across the collected suite reports."""
    series = []
    for side in (8, 16, 32, 64):
        pts = [point(i, j, 0) for i in range(side) for j in range(side)]
        n = side * side
        u = apps.repeated_distances(pts, 1)
        assert u == 2 * side * (side - 1)
        series.append((n, u))
        _record(u, "unit_variety", {"n": n})
    slope, _, _ = bounds.fit_exponent(series)
    assert slope <= 4 / 3 + 0.15
    for reporting in (_distance_sphere_identity, _elekes_tightness,
                      _similar_triangle_pipeline, _unit_sphere_k33_free):
        reporting()
    assert len(RATIO_REPORTS) >= 4
    flagged = [r for r in RATIO_REPORTS if r.flag]
    assert flagged == []
