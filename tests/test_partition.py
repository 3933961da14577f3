import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from inclab import geom, partition, roots
from inclab.errors import BudgetExhausted, GuardExceeded, ValidationError
from inclab.geom import Line, Point3, TriPoly, integer_coords, point
from inclab.partition import Regime


def random_points(n, seed, lo=-60, hi=60):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(point(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi)))
    return sorted(pts, key=lambda p: (p.x, p.y, p.z))


class TestDegreePlan:
    def test_naive_regime(self):
        plan = partition.plan_degree(10, 100000, 2)
        assert plan.regime is Regime.NAIVE_ONLY and plan.D == 0

    def test_small_m_regime(self):
        plan = partition.plan_degree(1000, 1000, 2)
        assert plan.regime is Regime.SMALL_M
        # D = round(m^(1/2) / n^(1/4)) = round(1000^(1/4)) = 6
        assert plan.D == 6

    def test_large_m_regime(self):
        plan = partition.plan_degree(10**6, 100, 2)
        assert plan.regime is Regime.LARGE_M
        assert plan.D == 10

    def test_boundary_continuity(self):
        # at m = n^{3/2} the SmallM and LargeM degrees agree up to rounding
        n = 4096
        m = 262144  # n^{3/2}
        small = partition.plan_degree(m, n, 2)
        large = partition.plan_degree(m + 1, n, 2)
        assert abs(small.D - large.D) <= 1

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            partition.plan_degree(0, 10, 2)
        with pytest.raises(ValidationError):
            partition.plan_degree(10, 10, 1)


class TestRoundDegree:
    def test_schedule(self):
        assert [partition.round_degree(i) for i in range(1, 5)] == [1, 1, 2, 2]


class TestBuild:
    def test_single_round_balance(self):
        pts = random_points(64, seed=1)
        part = partition.build_partition(pts, t=1, delta=F(1, 4), seed=0)
        census = partition.cell_census(pts, part)
        open_cells = {k: v for k, v in census.items() if k != partition.Z_LABEL}
        limit = F(5, 8) * 64
        assert all(v <= limit for v in open_cells.values())
        assert sum(census.values()) == 64

    def test_three_rounds(self):
        pts = random_points(128, seed=2)
        part = partition.build_partition(pts, t=3, delta=F(1, 4), seed=0)
        assert [f.degree() for f in part.round_factors] == [1, 1, 2]
        census = partition.cell_census(pts, part)
        open_cells = {k: v for k, v in census.items() if k != partition.Z_LABEL}
        assert len(open_cells) <= 8
        assert max(open_cells.values()) <= F(5, 8) ** 3 * 128

    def test_deterministic(self):
        pts = random_points(64, seed=3)
        a = partition.build_partition(pts, t=2, delta=F(1, 4), seed=7)
        b = partition.build_partition(pts, t=2, delta=F(1, 4), seed=7)
        assert partition.partition_to_jsonable(a) == partition.partition_to_jsonable(b)

    def test_integer_build_pinned(self):
        # a seeded integer-point build, pinned byte for byte
        pts = random_points(24, seed=9)
        part = partition.build_partition(pts, t=2, delta=F(1, 4), seed=5)
        assert partition.partition_to_jsonable(part) == {
            "rounds": 2, "delta": "1/4", "seed": 5,
            "factors": [
                {"0,0,0": "-4591/128", "0,0,1": "-75/64", "0,1,0": "-73/64", "1,0,0": "43/64"},
                {"0,0,0": "-2475/128", "0,0,1": "-147/64", "0,1,0": "-9/64", "1,0,0": "-9/4"},
            ],
        }

    def test_three_round_build_pinned(self):
        # a seeded integer-point build with a degree-2 third round, pinned
        part = partition.build_partition(random_points(32, seed=12), t=3, delta=F(1, 4), seed=4)
        assert partition.partition_to_jsonable(part) == {
            "rounds": 3, "delta": "1/4", "seed": 4,
            "factors": [
                {"0,0,0": "-375/64", "0,0,1": "3/64", "0,1,0": "15/32", "1,0,0": "-29/64"},
                {"0,0,0": "-847/128", "0,0,1": "17/16", "0,1,0": "5/64", "1,0,0": "49/64"},
                {"0,0,0": "-3333/4", "0,0,1": "5/32", "0,0,2": "3/16", "0,1,0": "11/32",
                 "0,1,1": "-51/32", "0,2,0": "-7/16", "1,0,0": "1/4", "1,0,1": "-23/64",
                 "1,1,0": "39/32", "2,0,0": "29/32"},
            ],
        }

    def test_rational_build_pinned(self):
        # a seeded build on points over assorted denominators, pinned
        rng = random.Random(13)
        pts = set()
        while len(pts) < 20:
            pts.add(point(*(F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(3))))
        pts = sorted(pts, key=lambda p: (p.x, p.y, p.z))
        part = partition.build_partition(pts, t=2, delta=F(1, 4), seed=6)
        assert partition.partition_to_jsonable(part) == {
            "rounds": 2, "delta": "1/4", "seed": 6,
            "factors": [
                {"0,0,0": "-298769819/69488640", "0,0,1": "1/2", "0,1,0": "-115/64",
                 "1,0,0": "-25/32"},
                {"0,0,0": "176755/28672", "0,0,1": "-1/2", "0,1,0": "-5/64", "1,0,0": "-29/64"},
            ],
        }

    @pytest.mark.parametrize("n, t, delta, seed, best, message", [
        (32, 3, F(0), 0, F(5, 8), "round 3: no (1+0)-bisection found in 50 candidates"),
        (24, 3, F(1, 10), 1, F(2, 3), "round 3: no (1+1/10)-bisection found in 50 candidates"),
    ])
    def test_exhausted_search_pinned(self, n, t, delta, seed, best, message):
        # every candidate of the last round is scored and rejected
        with pytest.raises(BudgetExhausted) as info:
            partition.build_partition(
                random_points(n, seed=14), t=t, delta=delta, seed=seed, budget=50
            )
        assert info.value.best_imbalance == best
        assert str(info.value) == message

    def test_duplicate_points(self, monkeypatch):
        # four copies of one point: rejected before the first candidate
        monkeypatch.setattr(partition, "_best_threshold", None)
        with pytest.raises(ValidationError, match="points must be distinct"):
            partition.build_partition([point(1, 2, 3)] * 4, t=2, delta=F(1, 4), seed=0)
        pts = random_points(16, seed=15)
        with pytest.raises(ValidationError, match="points must be distinct"):
            partition.build_partition(pts + [point(*pts[3].as_tuple())], t=2, delta=F(1, 4),
                                      seed=0)

    def test_exhausted_reports_best_rejected_score(self, monkeypatch):
        # round 2 has two cells of 3 points: an open side holds 2 of 3 at best,
        # so the round stops before scoring a single candidate
        calls = []
        scan = partition._best_threshold

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(partition, "_best_threshold", counted)
        budget = 10_000
        with pytest.raises(BudgetExhausted) as info:
            partition.build_partition(
                random_points(6, seed=10), t=2, delta=F(1, 4), seed=0, budget=budget
            )
        assert 0 < len(calls) < budget
        assert "round 2" in str(info.value)
        assert info.value.best_imbalance > F(5, 8)
        assert info.value.best_imbalance == F(2, 3)

    def test_rounds_guard(self):
        with pytest.raises(GuardExceeded):
            partition.build_partition(random_points(64, 4), t=5, delta=F(1, 4), seed=0)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            partition.build_partition(random_points(4, 5), t=3, delta=F(1, 4), seed=0)


class TestRationalPoints:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        t=st.sampled_from([2, 3]),
        size=st.sampled_from([16, 20, 24, 32]),
        seed=st.integers(0, 2**16),
    )
    def test_every_round_bisects_its_cells(self, t, size, seed):
        rng = random.Random(seed)
        pts = set()
        while len(pts) < size:
            pts.add(point(*(F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(3))))
        pts = sorted(pts, key=lambda p: (p.x, p.y, p.z))
        delta = F(1, 4)
        part = partition.build_partition(pts, t=t, delta=delta, seed=seed)
        # rebuild each round's cells from the emitted factors, exactly
        cells = [pts]
        for factor in part.round_factors:
            children = []
            for cell in cells:
                neg = [p for p in cell if factor.evaluate(p) < 0]
                pos = [p for p in cell if factor.evaluate(p) > 0]
                for side in (neg, pos):
                    assert len(side) <= (1 + delta) / 2 * len(cell)
                children.extend(side for side in (neg, pos) if side)
            cells = children
        # no scanned threshold sits on a point's value, so nothing is in Z
        assert sum(map(len, cells)) == size
        assert part.census == partition.cell_census(pts, part)


class TestBuildCensus:
    @pytest.mark.parametrize("n, point_seed, t, seed", [
        (16, 18, 1, 0), (32, 19, 2, 3), (32, 12, 3, 4), (128, 7, 3, 1), (64, 18, 4, 0),
    ])
    def test_matches_cell_census(self, n, point_seed, t, seed):
        # (128, 7, 3, 1) is the build of TestCrossings.test_line_crossing_bound
        pts = random_points(n, seed=point_seed)
        part = partition.build_partition(pts, t=t, delta=F(1, 4), seed=seed)
        assert partition.Z_LABEL not in part.census
        assert all(len(label) == t for label in part.census)
        assert part.census == partition.cell_census(pts, part)
        assert part.census == oracle.cell_census(pts, part.round_factors)

    def test_not_serialized(self):
        part = partition.build_partition(random_points(16, seed=18), t=2, delta=F(1, 4), seed=0)
        data = partition.partition_to_jsonable(part)
        assert set(data) == {"rounds", "delta", "seed", "factors"}
        back = partition.partition_from_jsonable(data)
        assert back.census == {} and back == part


class TestClassify:
    def test_z_label_on_zero_set(self):
        pts = random_points(32, seed=6)
        part = partition.build_partition(pts, t=1, delta=F(1, 2), seed=0)
        census = partition.cell_census(pts, part)
        assert sum(census.values()) == 32
        for p in pts:
            label = partition.classify(p, part)
            if label != partition.Z_LABEL:
                assert all(s in "+-" for s in label)


class TestCrossings:
    def test_line_crossing_bound(self):
        pts = random_points(128, seed=7)
        part = partition.build_partition(pts, t=3, delta=F(1, 4), seed=1)
        total_deg = part.total_degree
        rng = random.Random(11)
        for _ in range(20):
            origin = point(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-40, 40))
            direction = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)), F(1))
            crossings = partition.crossing_census(Line(origin, direction), part)
            assert crossings <= total_deg + 1

    def test_line_inside_zero_set(self):
        factor = TriPoly({(0, 0, 1): F(1)})  # z = 0
        line = Line(point(0, 0, 0), (F(1), F(0), F(0)))
        assert partition.crossing_census(line, _part(factor)) == 0
        # inside the second factor's zero set, crossing the first's
        assert partition.crossing_census(line, _part(TriPoly({(1, 0, 0): F(1)}), factor)) == 0

    def test_integer_restriction(self):
        def restrict(f, origin, direction, den):
            [r] = partition._restricted(_part(f).round_factors, origin, direction, den)
            return r

        f = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(-25)})
        # f(3t, 4t) = 25 t^2 - 25
        assert restrict(f, (0, 0, 0), (3, 4, 0), 1) == [-25, 0, 25]
        # f((1/2 + 3t/2, 2t, 0)) = 25/4 t^2 + 3/2 t - 99/4, times den^2 = 4
        assert restrict(f, (1, 0, 0), (3, 4, 0), 2) == [-99, 6, 25]
        g = TriPoly({(1, 1, 0): F(1, 3), (0, 0, 1): F(-1, 2)})  # xy/3 - z/2
        line = Line(point(F(1, 2), 0, 1), (F(1), F(1, 3), F(0)))
        (origin, direction), den = integer_coords([line.origin, Point3(*line.direction)])
        got = restrict(g, origin, direction, den)
        want = oracle.restrict_to_line(g, line.origin, line.direction)
        ratio = F(got[-1]) / want[-1]
        assert ratio > 0 and [F(c) for c in got] == [ratio * c for c in want]

    def test_tangent_line_double_root(self):
        # the line y = 1 from x = -3 touches the cylinder x^2 + y^2 = 1 at t = 3
        cyl = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(-1)})
        line = Line(point(-3, 1, 0), (F(1), F(0), F(0)))  # f = (t - 3)^2
        assert partition.crossing_census(line, _part(cyl)) == 1
        plane = TriPoly({(1, 0, 0): F(1), (0, 0, 0): F(-5)})  # x = 5 at t = 8
        assert partition.crossing_census(line, _part(cyl, plane)) == 2

    def test_product_with_double_root(self):
        # along t (1, 1, 0): x = t, x + y = 2t and x^2 - 1 = t^2 - 1, so the
        # product 2 t^2 (t^2 - 1) has a double root at 0 and is isolated on
        # its own Sturm sequence: (-,-,+), (-,-,-), (+,+,-), (+,+,+)
        factors = [
            TriPoly({(1, 0, 0): F(1)}),
            TriPoly({(1, 0, 0): F(1), (0, 1, 0): F(1)}),
            TriPoly({(2, 0, 0): F(1), (0, 0, 0): F(-1)}),
        ]
        line = Line(point(0, 0, 0), (F(1), F(1), F(0)))
        assert partition.crossing_census(line, _part(*factors)) == 4
        assert oracle.crossing_census(line, factors) == 4

    def test_factors_share_a_root(self):
        # the plane x = 1 and the sphere |p|^2 = 2 meet at (1, 1, 0) on the line
        plane = TriPoly({(1, 0, 0): F(1), (0, 0, 0): F(-1)})
        sphere = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 0, 0): F(-2)})
        line = Line(point(-2, 1, 0), (F(1), F(0), F(0)))
        # plane t - 3, sphere (t - 1)(t - 3): (-,+), (-,-), (+,+)
        assert partition.crossing_census(line, _part(plane, sphere)) == 3

    def test_rational_root_at_first_midpoint(self):
        # x - 1/2 from (1/2, 0, 0) is t: its root 0 is the first bisection point
        plane = TriPoly({(1, 0, 0): F(1), (0, 0, 0): F(-1, 2)})
        line = Line(point(F(1, 2), 0, 0), (F(1), F(0), F(0)))
        assert partition.crossing_census(line, _part(plane)) == 2
        cone = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(-1)})  # x^2 - y^2: double at 0
        assert partition.crossing_census(Line(point(0, 0, 0), (F(1), F(1, 2), F(0))),
                                         _part(cone, plane)) == 2

    def test_factor_without_real_root(self):
        bowl = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(1)})
        line = Line(point(3, -2, 7), (F(1), F(2), F(-1)))
        assert partition.crossing_census(line, _part(bowl)) == 1
        plane = TriPoly({(0, 0, 1): F(1)})  # z = 7 - t
        assert partition.crossing_census(line, _part(bowl, plane)) == 2


def _normal(f):
    return tuple(f.terms.get(m, F(0)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _planes_meet(f, g):
    """A point on both planes f = 0 and g = 0, or None when they are parallel."""
    rows = [list(_normal(f)), list(_normal(g))]
    rows.append(list(geom.cross(*rows)))
    rhs = [-f.terms.get((0, 0, 0), F(0)), -g.terms.get((0, 0, 0), F(0)), F(0)]

    def det(m):
        return geom.dot(m[0], geom.cross(m[1], m[2]))

    d = det(rows)
    if d == 0:
        return None
    cols = [[r[:a] + [v] + r[a + 1:] for r, v in zip(rows, rhs)] for a in range(3)]
    return point(*(det(c) / d for c in cols))


def _along(normal, u):
    """A nonzero direction orthogonal to the normal, from u."""
    d = geom.cross(normal, u)
    return d if any(d) else geom.cross(normal, (F(1), F(2), F(3)))


INT_LINE = st.tuples(*[st.integers(-50, 50)] * 3, *[st.integers(-9, 9)] * 3)
RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=7)


@st.composite
def linear_round_cases(draw):
    """A seeded t = 1 or t = 2 build on integer or rational points, and
    lines of six kinds: random integer lines, random rational lines, lines
    through a point where every factor vanishes (a root shared by both
    planes at t = 2), lines parallel to the first plane, lines inside it,
    and lines along the intersection of the planes."""
    t = draw(st.sampled_from([1, 2]))
    size = draw(st.sampled_from([8, 16, 24]))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        pts = random_points(size, seed=seed, lo=-99, hi=99)
    else:
        rng = random.Random(seed)
        pts = set()
        while len(pts) < size:
            pts.add(point(*(F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(3))))
        pts = sorted(pts, key=lambda p: (p.x, p.y, p.z))
    part = partition.build_partition(pts, t=t, delta=F(1, 4), seed=seed)
    first = part.round_factors[0]
    anchor = _planes_meet(*part.round_factors) if t == 2 else None
    if anchor is None:  # a point of the first plane
        n = _normal(first)
        anchor = point(*(-first.terms.get((0, 0, 0), F(0)) * c / geom.norm2(n) for c in n))
    lines = []
    for kind in range(12):
        drawn = draw(INT_LINE)
        o, d = drawn[:3], drawn[3:]
        d = d if any(d) else (1, 0, 0)
        if kind % 6 == 0:
            lines.append(Line(point(*o), d))
        elif kind % 6 == 1:
            r = tuple(draw(RATIONAL) for _ in range(3))
            lines.append(Line(point(*(draw(RATIONAL) for _ in range(3))), r if any(r) else d))
        elif kind % 6 == 2:  # through the anchor at the parameter -s
            s = draw(st.sampled_from([F(0), F(1), F(-2, 3)]))
            lines.append(Line(point(*(a - s * c for a, c in zip(anchor.as_tuple(), d))), d))
        elif kind % 6 == 3:
            lines.append(Line(point(*o), _along(_normal(first), d)))
        elif kind % 6 == 4:
            lines.append(Line(anchor, _along(_normal(first), d)))
        else:
            d = geom.cross(*map(_normal, part.round_factors)) if t == 2 else d
            lines.append(Line(anchor, d if any(d) else (1, 0, 0)))
    return part, lines


class TestLinearRoundCrossings:
    """Rounds 1 and 2 are planes: their crossings come from the distinct
    roots of the linear restrictions, and no root isolation runs."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(linear_round_cases())
    def test_matches_fraction_oracle(self, case):
        part, lines = case
        want = [oracle.crossing_census(line, part.round_factors) for line in lines]
        with mock.patch.object(roots, "_samples", side_effect=AssertionError("Sturm path")):
            assert [partition.crossing_census(line, part) for line in lines] == want
            for line, count in zip(lines, want):
                o, d = line.origin.as_tuple(), line.direction
                if all(c.denominator == 1 for c in (*o, *d)):
                    ints = [int(c) for c in (*o, *d)]
                    assert partition._crossings(part.round_factors, ints[:3], ints[3:], 1) == count

    def test_shared_parallel_and_inside(self):
        x, y = TriPoly({(1, 0, 0): F(1)}), TriPoly({(0, 1, 0): F(1), (0, 0, 0): F(-2)})
        part = _part(x, y)
        cases = [
            (Line(point(-1, 1, 5), (F(1), F(1), F(0))), 2),   # both vanish at (0, 2, 5)
            (Line(point(-1, 1, 5), (F(1), F(-1), F(0))), 3),  # distinct roots
            (Line(point(3, 1, 5), (F(0), F(1), F(1))), 2),    # parallel to x = 0
            (Line(point(3, 7, 5), (F(0), F(0), F(1))), 1),    # parallel to both
            (Line(point(0, 1, 5), (F(0), F(1), F(1))), 0),    # inside x = 0
        ]
        with mock.patch.object(roots, "_samples", side_effect=AssertionError("Sturm path")):
            for line, count in cases:
                assert partition.crossing_census(line, part) == count
                assert oracle.crossing_census(line, part.round_factors) == count

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(linear_round_cases(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_quadratic_restricted_to_a_line(self, case, c):
        # q = (n . p)^2 + m . p + c with n the first plane's normal: along a
        # direction orthogonal to n, q restricts to degree <= 1, along any
        # other to degree 2, and both take the closed form
        part, lines = case
        n = _normal(part.round_factors[0])
        square = TriPoly.linear(*n, 0)
        q = square * square + TriPoly.linear(F(1), F(-2), F(1, 3), c)
        factors = [*part.round_factors, q]
        calls = []
        samples = roots._samples

        def counted(p):
            calls.append(p)
            return samples(p)

        with mock.patch.object(roots, "_samples", counted):
            for line in lines:
                calls.clear()
                got = partition.crossing_census(line, _part(*factors))
                assert got == oracle.crossing_census(line, factors)
                along = geom.dot(n, line.direction) == 0
                restricted = oracle.restrict_to_line(q, line.origin, line.direction)
                assert (oracle.udegree(restricted) >= 2) == (not along)
                # one restriction of degree 2 among planes needs no Sturm
                assert len(calls) == 0


def _gradient(f, p):
    """The gradient of f at p: the t coefficient of f(p + t e) per axis e."""
    axes = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    return tuple((oracle.restrict_to_line(f, p, e) + [F(0)] * 2)[1] for e in axes)


def _quadric_case(factors, line):
    """Which case of the closed form a line of planes and one quadric hits:
    the sign of the quadric's discriminant along it, and where each plane
    root lies against the quadric's roots, in `Fraction` arithmetic."""
    restricted = [oracle.restrict_to_line(f, line.origin, line.direction) for f in factors]
    degrees = [oracle.udegree(r) for r in restricted]
    if min(degrees) < 0 or max(degrees) < 2:
        return set()
    [(c0, c1, c2)] = [oracle.utrim(r) for r, d in zip(restricted, degrees) if d == 2]
    disc = c1 * c1 - 4 * c0 * c2
    if disc <= 0:
        return {"disc<0" if disc < 0 else "disc=0"}
    kinds = {"disc>0"}
    for r, d in zip(restricted, degrees):
        if d == 1:
            v = oracle.ueval([c0, c1, c2], -r[0] / r[1])
            kinds.add("at" if v == 0 else "between" if (v > 0) != (c2 > 0) else "outside")
    return kinds


def quadric_round_lines(rng, pts, part):
    """(factors, lines) pairs for a t = 3 build: the build's own factors
    with random integer and rational lines and lines through its points,
    then its quadric shifted by a constant to pass through a build point P
    (a line tangent to it at P) and through a point A of both planes (lines
    through A, where every factor vanishes, and one tangent there)."""
    first, second, quadric = part.round_factors
    points = rng.sample(pts, 2)

    def direction():
        d = tuple(F(rng.randint(-9, 9), rng.choice([1, 1, 2, 5])) for _ in range(3))
        return d if any(d) else (F(1), F(0), F(0))

    def tangent(shifted, at):
        return _along(_gradient(shifted, at), direction())

    own = [Line(point(*(rng.randint(-50, 50) for _ in range(3))), direction()) for _ in range(3)]
    own += [Line(point(*(F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(3))),
                 direction()) for _ in range(2)]
    own += [Line(p, direction()) for p in points]
    out = [(part.round_factors, own)]
    p = points[0]
    shifted = quadric - TriPoly.constant(quadric.evaluate(p))
    out.append(([first, second, shifted], [Line(p, tangent(shifted, p))]))
    anchor = _planes_meet(first, second)
    if anchor is not None:
        shifted = quadric - TriPoly.constant(quadric.evaluate(anchor))
        out.append(([first, second, shifted],
                    [Line(anchor, direction()), Line(anchor, tangent(shifted, anchor))]))
    return out


class TestQuadricRoundCrossings:
    """Round 3 is a quadric: a line meeting two planes and one quadric is
    counted from the linear roots and the quadric's two roots, and no root
    isolation runs; two quadrics still go through Sturm."""

    def test_matches_fraction_oracle(self):
        cases, kinds = [], set()
        for seed in range(24):
            rng = random.Random(seed)
            if seed % 2:
                pts = random_points(16, seed=seed, lo=-99, hi=99)
            else:
                pts = set()
                while len(pts) < 24:
                    pts.add(point(*(F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(3))))
                pts = sorted(pts, key=lambda p: (p.x, p.y, p.z))
            try:
                part = partition.build_partition(pts, t=3, delta=F(1, 4), seed=seed)
            except BudgetExhausted:
                continue
            for factors, lines in quadric_round_lines(rng, pts, part):
                for line in lines:
                    kinds |= _quadric_case(factors, line)
                    cases.append((factors, line, oracle.crossing_census(line, factors)))
        # every case of the closed form came up
        assert kinds == {"disc<0", "disc=0", "disc>0", "at", "between", "outside"}
        with mock.patch.object(roots, "_samples", side_effect=AssertionError("Sturm path")):
            for factors, line, count in cases:
                assert partition.crossing_census(line, _part(*factors)) == count
                o, d = line.origin.as_tuple(), line.direction
                if all(c.denominator == 1 for c in (*o, *d)):
                    ints = [int(c) for c in (*o, *d)]
                    assert partition._crossings(factors, ints[:3], ints[3:], 1) == count

    # x - a and y - b with the sphere |p|^2 = 2 along (-2, 1, 0) + t (1, 0, 0),
    # where the sphere is (t - 1)(t - 3)
    SPHERE = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 0, 0): F(-2)})
    ALONG_X = Line(point(-2, 1, 0), (F(1), F(0), F(0)))

    @pytest.mark.parametrize("factors, line, count, kinds", [
        # the bowl x^2 + y^2 + 1 has no real point
        ([TriPoly.linear(1, 0, 0, 0), TriPoly.linear(0, 1, 0, -2),
          TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(1)})],
         Line(point(-1, 1, 5), (F(1), F(-1), F(0))), 3, {"disc<0"}),
        # y = 1 touches the cylinder x^2 + y^2 = 1 at t = 3: (t - 3)^2
        ([TriPoly.linear(1, 0, 0, -5), TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(-1)})],
         Line(point(-3, 1, 0), (F(1), F(0), F(0))), 2, {"disc=0"}),
        # ... and the plane x = 0 vanishes at the double root too
        ([TriPoly.linear(1, 0, 0, 0), TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(-1)})],
         Line(point(-3, 1, 0), (F(1), F(0), F(0))), 2, {"disc=0"}),
        ([TriPoly.linear(1, 0, 0, -5), SPHERE], ALONG_X, 3, {"disc>0", "outside"}),
        ([TriPoly.linear(1, 0, 0, 0), SPHERE], ALONG_X, 4, {"disc>0", "between"}),
        ([TriPoly.linear(1, 0, 0, 1), SPHERE], ALONG_X, 3, {"disc>0", "at"}),
        # both roots of the sphere are plane roots
        ([TriPoly.linear(1, 0, 0, 1), SPHERE, TriPoly.linear(1, 0, 0, -1)], ALONG_X, 3, {"disc>0", "at"}),
        # a root at r1 and one outside: [r1, r2] holds a root, so no pair repeats
        ([TriPoly.linear(1, 0, 0, 1), TriPoly.linear(1, 0, 0, -7), SPHERE], ALONG_X, 4,
         {"disc>0", "at", "outside"}),
        # roots on both sides of [r1, r2] and one inside
        ([TriPoly.linear(1, 0, 0, 5), SPHERE, TriPoly.linear(1, 0, 0, 0), TriPoly.linear(1, 0, 0, -7)],
         ALONG_X, 6, {"disc>0", "between", "outside"}),
        # the same root twice, outside, and a rational root inside
        ([TriPoly.linear(1, 0, 0, -5), TriPoly.linear(2, 0, 0, -10), SPHERE, TriPoly.linear(2, 0, 0, 1)],
         ALONG_X, 5, {"disc>0", "between", "outside"}),
    ])
    def test_cases(self, factors, line, count, kinds):
        assert _quadric_case(factors, line) == kinds
        assert oracle.crossing_census(line, factors) == count
        with mock.patch.object(roots, "_samples", side_effect=AssertionError("Sturm path")):
            assert partition.crossing_census(line, _part(*factors)) == count

    @pytest.mark.parametrize("factors, count", [
        # two quadratic restrictions: the sphere (t - 1)(t - 3) and x^2 - 4
        ([TriPoly.linear(1, 0, 0, 0), SPHERE, TriPoly({(2, 0, 0): F(1), (0, 0, 0): F(-4)})], 6),
        # a cubic restriction: x^3 - x flips at x = -1, 0, 1, the plane at x = 5
        ([TriPoly.linear(1, 0, 0, -5), TriPoly({(3, 0, 0): F(1), (1, 0, 0): F(-1)})], 3),
    ])
    def test_other_lines_take_the_sturm_path(self, factors, count):
        calls = []
        samples = roots._samples

        def counted(p):
            calls.append(p)
            return samples(p)

        with mock.patch.object(roots, "_samples", counted):
            assert partition.crossing_census(self.ALONG_X, _part(*factors)) == count
        assert len(calls) == 1
        assert oracle.crossing_census(self.ALONG_X, factors) == count


def _part(*factors):
    return partition.PartitionPolynomial(list(factors), F(1, 4), 0)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=5)
MONOMIALS = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2]


@st.composite
def census_cases(draw):
    """Random rational factors of degree <= 2, rational points and lines.
    Some factors are shifted to vanish at a chosen point, and some lines
    start there, so points in Z and roots shared by factors show up."""
    pts = draw(st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=8, unique=True))
    pts = [point(*p) for p in pts]
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=5, unique=True))
        f = TriPoly({m: draw(SMALL) for m in chosen})
        if f.degree() < 1:
            f = TriPoly({(1, 0, 0): F(1), (0, 0, 0): draw(SMALL)})
        if draw(st.booleans()):
            anchor = draw(st.sampled_from(pts))
            f = f - TriPoly.constant(f.evaluate(anchor))
        factors.append(f)
    lines = []
    for _ in range(3):
        origin = draw(st.sampled_from(pts)) if draw(st.booleans()) else point(
            draw(SMALL), draw(SMALL), draw(SMALL))
        direction = (draw(SMALL), draw(SMALL), draw(SMALL))
        if all(c == 0 for c in direction):
            direction = (F(1), F(0), F(0))
        lines.append(Line(origin, direction))
    return pts, factors, lines


class TestCensusDifferential:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(census_cases())
    def test_matches_fraction_oracle(self, case):
        pts, factors, lines = case
        part = _part(*factors)
        assert partition.cell_census(pts, part) == oracle.cell_census(pts, factors)
        for p in pts:
            assert partition.classify(p, part) == oracle.classify(p, factors)
        for line in lines:
            assert partition.crossing_census(line, part) == oracle.crossing_census(line, factors)


def _scan(cell_values, pad):
    """The integer threshold scan, its score read back as a fraction."""
    tables = partition._score_tables([len(vals) for vals in cell_values])
    values = [v for vals in cell_values for v in vals]
    cell_of = [c for c, vals in enumerate(cell_values) for _ in vals]
    score, theta = partition._best_threshold(values, cell_of, pad, tables)
    return F(score, tables[0][0]), theta


THIRDS = st.fractions(min_value=-3, max_value=3).map(lambda x: F(round(x * 3), 3))
FIFTHS = st.fractions(min_value=-3, max_value=3).map(lambda x: F(round(x * 5), 5))


def _vector(draw, coords):
    v = tuple(draw(coords) for _ in range(3))
    return v if any(v) else (F(1), F(0), F(0))


@st.composite
def shared_root_cases(draw):
    """Factors that all vanish at one anchor A over thirds, and 24 lines with
    origins over thirds and directions over fifths.  Half of the lines pass
    through A, where every factor has a root; one factor is a sphere tangent
    to the first line through A and one the square of a plane through A, so
    double roots and roots shared between factors show up."""
    anchor = point(*(draw(THIRDS) for _ in range(3)))
    a = anchor.as_tuple()
    lines = []
    for index in range(24):
        direction = _vector(draw, FIFTHS)
        if index % 2:
            origin = point(*(draw(THIRDS) for _ in range(3)))
        else:  # through A at the parameter -s
            s = draw(st.sampled_from([F(0), F(1), F(-1, 2)]))
            origin = point(*(x - s * d for x, d in zip(a, direction)))
        lines.append(Line(origin, direction))
    d = lines[0].direction
    u = _vector(draw, THIRDS)
    n = (d[1] * u[2] - d[2] * u[1], d[2] * u[0] - d[0] * u[2], d[0] * u[1] - d[1] * u[0])
    if not any(n):
        n = (d[1], -d[0], F(0)) if d[0] or d[1] else (F(1), F(0), F(0))
    centre = [x + y for x, y in zip(a, n)]
    sphere = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)}) + TriPoly.linear(
        *(-2 * c for c in centre), sum(c * c for c in centre) - sum(x * x for x in n))
    m = _vector(draw, THIRDS)
    plane = TriPoly.linear(*m, -sum(x * y for x, y in zip(m, a)))
    chosen = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=4, unique=True))
    other = TriPoly({mono: draw(SMALL) for mono in chosen})
    if other.degree() < 1:
        other = TriPoly({(0, 1, 0): F(1)})
    other = other - TriPoly.constant(other.evaluate(anchor))
    pool = [sphere, plane * plane, plane, other]
    factors = draw(st.lists(st.sampled_from(range(4)), min_size=1, max_size=3, unique=True))
    pts = [anchor] + [point(*(draw(THIRDS) for _ in range(3))) for _ in range(4)]
    return pts, [pool[i] for i in factors], lines


class TestSharedRootDifferential:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shared_root_cases())
    def test_matches_fraction_oracle(self, case):
        pts, factors, lines = case
        part = _part(*factors)
        assert partition.cell_census(pts, part) == oracle.cell_census(pts, factors)
        assert partition.classify(pts[0], part) == partition.Z_LABEL
        want = [oracle.crossing_census(line, factors) for line in lines]
        assert [partition.crossing_census(line, part) for line in lines] == want
        back = partition.partition_from_jsonable(partition.partition_to_jsonable(part))
        assert [partition.crossing_census(line, back) for line in lines] == want

    def test_tangent_sphere_through_anchor(self):
        # the unit sphere about (0, 1, 0) touches the x axis at the origin,
        # where the plane x = 0 crosses it: (+, +), (+, -)
        sphere = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1), (0, 1, 0): F(-2)})
        plane = TriPoly({(1, 0, 0): F(1)})
        line = Line(point(F(-1, 3), 0, 0), (F(2, 5), F(0), F(0)))
        assert partition.crossing_census(line, _part(sphere, plane)) == 2
        assert partition.crossing_census(line, _part(sphere, plane * plane)) == 1

    def test_each_factor_cleared_once(self, monkeypatch):
        pts = random_points(32, seed=16)
        part = partition.build_partition(pts, t=3, delta=F(1, 4), seed=2)
        calls = []
        clear = geom.clear_denominators

        def counted(values):
            values = list(values)
            calls.append(len(values))
            return clear(values)

        # factors are cleared in geom (TriPoly.integer_terms), lines in partition
        monkeypatch.setattr(geom, "clear_denominators", counted)
        monkeypatch.setattr(partition, "clear_denominators", counted)
        rng = random.Random(17)
        lines = [Line(point(*(F(rng.randint(-50, 50), 3) for _ in range(3))),
                      tuple(F(rng.randint(1, 9), 7) for _ in range(3))) for _ in range(25)]
        got = [partition.crossing_census(line, part) for line in lines]
        partition.cell_census(pts, part)
        # one clearing per factor, then one per line (its six coordinates),
        # and the cell census's one of the points' coordinates
        want = [len(f.terms) for f in part.round_factors] + [6] * 25 + [3 * len(pts)]
        assert sorted(calls) == sorted(want)
        assert got == [oracle.crossing_census(line, part.round_factors) for line in lines]


CELL_VALUES = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6), min_size=1, max_size=5
)


class TestThresholdSweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(CELL_VALUES, st.integers(1, 3))
    def test_matches_bisect_scan(self, cell_values, pad):
        assert _scan(cell_values, pad) == oracle.best_threshold(cell_values, pad)

    @pytest.mark.parametrize("cell_values, want", [
        ([[5, 5, 5], [5]], (F(1), 8)),             # all values equal: 2(min - pad)
        ([[1], [2], [3]], (F(1), 0)),              # single-point cells always score 1
        ([[1, 3], [2, 4]], (F(1, 2), 5)),          # 1+2 and 3+4 score 1
        ([[0, 2], [1, 3], [0, 3]], (F(1, 2), 3)),  # equal values in different cells
        ([[0, 1, 2]], (F(2, 3), 1)),               # 1 and 3 tie: the first wins
    ])
    def test_known_scans(self, cell_values, want):
        assert _scan(cell_values, 1) == want
        assert oracle.best_threshold(cell_values, 1) == want


RECORD = {"rounds": 1, "delta": "1/4", "seed": 0, "factors": [{"1,0,0": "1"}]}
# a missing key, an unparsable field, a round count other than the factors',
# a field of a type the writer never writes, a negative delta, a round count
# outside 1..4, or a zero factor
BAD_RECORDS = [
    {},
    *({k: v for k, v in RECORD.items() if k != key} for key in RECORD),
    *({**RECORD, **change} for change in (
        {"rounds": "x"}, {"delta": "x"}, {"delta": "1/0"}, {"seed": "x"},
        {"rounds": 3}, {"rounds": 0}, {"factors": 1},
        {"rounds": 1.9}, {"rounds": 1.0}, {"rounds": "1"}, {"rounds": True},
        {"seed": 2.5}, {"seed": "0"}, {"seed": True}, {"seed": False},
        {"delta": 0.1}, {"delta": 0}, {"delta": "-1/4"},
        {"rounds": 0, "factors": []}, {"rounds": 5, "factors": [{"1,0,0": "1"}] * 5},
        {"factors": [{}]}, {"factors": [{"1,0,0": "0"}]},
    )),
]


class TestSerialization:
    def test_round_trip(self):
        pts = random_points(64, seed=8)
        part = partition.build_partition(pts, t=2, delta=F(1, 4), seed=3)
        data = partition.partition_to_jsonable(part)
        back = partition.partition_from_jsonable(data)
        assert partition.partition_to_jsonable(back) == data
        for p in pts:
            assert partition.classify(p, part) == partition.classify(p, back)

    def test_bad_factor_key(self):
        data = {"rounds": 1, "delta": "1/4", "seed": 0, "factors": [{"1,x,0": "1"}]}
        with pytest.raises(ValidationError):
            partition.partition_from_jsonable(data)

    @pytest.mark.parametrize("record", BAD_RECORDS)
    def test_bad_record(self, record):
        assert partition.partition_from_jsonable(RECORD).round_factors == [TriPoly({(1, 0, 0): 1})]
        with pytest.raises(ValidationError):
            partition.partition_from_jsonable(record)
