import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from inclab import partition
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
        f = TriPoly({(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 0): F(-25)})
        # f(3t, 4t) = 25 t^2 - 25
        assert partition._restrict(f, (0, 0, 0), (3, 4, 0), 1) == [-25, 0, 25]
        # f((1/2 + 3t/2, 2t, 0)) = 25/4 t^2 + 3/2 t - 99/4, times den^2 = 4
        assert partition._restrict(f, (1, 0, 0), (3, 4, 0), 2) == [-99, 6, 25]
        g = TriPoly({(1, 1, 0): F(1, 3), (0, 0, 1): F(-1, 2)})  # xy/3 - z/2
        line = Line(point(F(1, 2), 0, 1), (F(1), F(1, 3), F(0)))
        (origin, direction), den = integer_coords([line.origin, Point3(*line.direction)])
        got = partition._restrict(g, origin, direction, den)
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


def _part(*factors):
    return partition.PartitionPolynomial(list(factors), len(factors), F(1, 4), 0)


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


CELL_VALUES = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6), min_size=1, max_size=5
)


class TestThresholdSweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(CELL_VALUES, st.integers(1, 3))
    def test_matches_bisect_scan(self, cell_values, pad):
        assert partition._best_threshold(cell_values, pad) == oracle.best_threshold(
            cell_values, pad
        )

    @pytest.mark.parametrize("cell_values, want", [
        ([[5, 5, 5], [5]], (F(1), 8)),             # all values equal: 2(min - pad)
        ([[1], [2], [3]], (F(1), 0)),              # single-point cells always score 1
        ([[1, 3], [2, 4]], (F(1, 2), 5)),          # 1+2 and 3+4 score 1
        ([[0, 2], [1, 3], [0, 3]], (F(1, 2), 3)),  # equal values in different cells
        ([[0, 1, 2]], (F(2, 3), 1)),               # 1 and 3 tie: the first wins
    ])
    def test_known_scans(self, cell_values, want):
        assert partition._best_threshold(cell_values, 1) == want
        assert oracle.best_threshold(cell_values, 1) == want


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
