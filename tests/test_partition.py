import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from inclab import partition
from inclab.errors import BudgetExhausted, GuardExceeded, ValidationError
from inclab.geom import Line, point
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
        from inclab.geom import TriPoly

        factor = TriPoly({(0, 0, 1): F(1)})  # z = 0
        part = partition.PartitionPolynomial([factor], 1, F(1, 4), 0)
        line = Line(point(0, 0, 0), (F(1), F(0), F(0)))
        assert partition.crossing_census(line, part) == 0


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
