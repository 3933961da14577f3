import math
import random
from fractions import Fraction

import pytest

from inclab import bounds
from inclab.bounds import BoundFormula
from inclab.errors import InsufficientData, MissingParam, OutOfRange, ValidationError


class TestEvalBound:
    def test_lines_gk_exact(self):
        v = bounds.eval_bound(BoundFormula("lines_GK", {"m": 4096, "n": 4096, "q": 4096}))
        assert v == 106496.0

    def test_kst_naive(self):
        v = bounds.eval_bound(BoundFormula("KST_naive", {"m": 10, "n": 100, "k": 2}))
        assert v == 200.0

    def test_similar_triangles_second_path(self):
        v = bounds.eval_bound(BoundFormula("similar_triangles", {"n": 128}))
        assert abs(v - math.exp(15 / 7 * math.log(128))) < 1e-9 * v

    def test_curves3d_main_specializes_to_lines(self):
        rng = random.Random(1)
        for _ in range(50):
            m, n, q = (rng.randint(1, 10**6) for _ in range(3))
            a = bounds.eval_bound(BoundFormula("curves3d_main", {"m": m, "n": n, "q": q, "k": 2}))
            b = bounds.eval_bound(BoundFormula("lines_GK", {"m": m, "n": n, "q": q}))
            assert a == b

    def test_missing_param(self):
        with pytest.raises(MissingParam):
            bounds.eval_bound(BoundFormula("PS_planar", {"m": 10}))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("PS_planar", {"m": 10, "n": 10, "k": 1}))
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("dd_variety", {"n": 100, "epsilon": 0}))

    def test_unknown_formula(self):
        for check in (bounds.eval_bound, lambda f: bounds.verify_instance(3, f)):
            with pytest.raises(ValidationError, match="unknown bound formula"):
                check(BoundFormula("nope", {}))

    # pinned eval_bound values at m=500, n=900, q=40, r=4 for k=s=3 and for k=s=2
    GOLDEN = {
        "PS_planar": (11011.16449261042, 7272.301461753293),
        "SZ_planar": (15567.282349754183, 13557.959752180279),
        "circles_planar": (19418.415456633193, 19418.415456633193),
        "curves3d_main": (9051.826862228188, 7154.3184372266705),
        "curves3d_improved": (10957.323365229802, 9312.566880811828),
        "circles3d": (12450.355653870156, 12450.355653870156),
        "KST_naive": (47508.48758930787, 15900.0),
        "lines_GK": (7154.3184372266705, 7154.3184372266705),
        "variety_k": (11011.16449261042, 7272.301461753293),
        "variety_s": (15567.282349754183, 13557.959752180279),
        "mixed_k": (11011.16449261042, 7272.301461753293),
        "mixed_s": (15567.282349754183, 13557.959752180279),
        "spheres_variety": (16476.577250839742, 16476.577250839742),
        "spheres_3dim": (15567.282349754183, 15567.282349754183),
        "spheres_2dim": (7272.301461753293, 7272.301461753293),
        "dd_variety": (185.43928705149403, 185.43928705149403),
        "dd_bipartite": (80.86695549747675, 80.86695549747675),
        "unit_variety": (8689.404461450664, 8689.404461450664),
        "unit_bipartite": (15567.282349754183, 15567.282349754183),
        "general_surfaces": (19997.38194116883, 10546.689452814991),
        "rich_points_a": (3736.485386504598, 2475.0),
        "rich_points_b": (3457.5024480319157, 2496.137416945749),
        "similar_triangles": (2140521.8386833468, 2140521.8386833468),
        "degree_plan": (5.0, 4.0),
    }

    def test_all_formulas_evaluate(self):
        assert set(self.GOLDEN) == set(bounds.FORMULA_NAMES)
        for name, expected in self.GOLDEN.items():
            for ks, value in zip((3, 2), expected):
                params = {"m": 500, "n": 900, "q": 40, "r": 4, "k": ks, "s": ks}
                got = bounds.eval_bound(BoundFormula(name, params))
                assert got == pytest.approx(value, rel=1e-12), (name, ks)

    def test_non_integer_k_and_s(self):
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("PS_planar", {"m": 10, "n": 10, "k": Fraction(5, 2)}))
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("SZ_planar", {"m": 10, "n": 10, "s": Fraction(7, 3)}))
        v = bounds.eval_bound(BoundFormula("PS_planar", {"m": 10, "n": 10, "k": Fraction(4, 2)}))
        assert v == bounds.eval_bound(BoundFormula("PS_planar", {"m": 10, "n": 10, "k": 2}))

    def test_bound_too_large_for_float(self):
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("similar_triangles", {"n": 10**200}))
        with pytest.raises(OutOfRange):
            bounds.eval_bound(BoundFormula("lines_GK", {"m": 10**400, "n": 4, "q": 4}))

    def test_monotone_in_m_and_n(self):
        base = {"m": 500, "n": 900, "q": 40, "k": 3, "s": 3, "r": 4}
        skip = {"degree_plan"}  # a schedule, not a count bound
        for name in bounds.FORMULA_NAMES:
            if name in skip:
                continue
            v = bounds.eval_bound(BoundFormula(name, base))
            vm = bounds.eval_bound(BoundFormula(name, {**base, "m": 1000}))
            vn = bounds.eval_bound(BoundFormula(name, {**base, "n": 1800}))
            assert vm >= v - 1e-9
            assert vn >= v - 1e-9

    def test_degree_plan_matches_partition_module(self):
        from inclab import partition

        v = bounds.eval_bound(BoundFormula("degree_plan", {"m": 1000, "n": 1000, "k": 2}))
        assert v == partition.plan_degree(1000, 1000, 2).D


class TestVerify:
    def test_ratio_and_flag(self):
        report = bounds.verify_instance(
            256, BoundFormula("lines_GK", {"m": 128, "n": 64, "q": 64})
        )
        assert 0 < report.ratio < 1
        assert not report.flag

    def test_zero_observed(self):
        report = bounds.verify_instance(0, BoundFormula("lines_GK", {"m": 4, "n": 4, "q": 4}))
        assert report.ratio == 0.0

    def test_flag_threshold(self):
        report = bounds.verify_instance(
            10**9, BoundFormula("spheres_2dim", {"m": 4, "n": 4})
        )
        assert report.sense == bounds.UPPER and report.flag

    def test_lower_bound_flags_below(self):
        # the 960 integer points on x^2 + y^2 + z^2 = 5525 span 2,526 distinct
        # squared distances, 12.96 times the n^(7/9 - eps) shape: not a finding
        report = bounds.verify_instance(2526, BoundFormula("dd_variety", {"n": 960}))
        assert report.sense == bounds.LOWER
        assert report.ratio == pytest.approx(12.963186409281965, rel=1e-12)
        assert not report.flag
        # one distance among 10,000 points is far below it
        report = bounds.verify_instance(1, BoundFormula("dd_variety", {"n": 10_000}))
        assert report.ratio < 1 / bounds.FLAG_THRESHOLD and report.flag
        report = bounds.verify_instance(
            10**6, BoundFormula("dd_bipartite", {"m": 500, "n": 900})
        )
        assert report.sense == bounds.LOWER and not report.flag

    def test_degree_plan_has_no_sense(self):
        with pytest.raises(ValidationError):
            bounds.verify_instance(5, BoundFormula("degree_plan", {"m": 500, "n": 900, "k": 2}))

    def test_sense_checked_before_parameters(self):
        with pytest.raises(ValidationError, match="not a count bound"):
            bounds.verify_instance(5, BoundFormula("degree_plan", {}))


class TestFit:
    def test_exact_square(self):
        slope, intercept, residual = bounds.fit_exponent([(n, n * n) for n in (8, 16, 32, 64)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert residual < 1e-12

    def test_elekes_slope(self):
        series = [(2 * kk**3, kk**4) for kk in range(1, 7)]
        slope, _, residual = bounds.fit_exponent(series)
        assert abs(slope - 4 / 3) < 1e-12
        assert residual < 1e-12

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            bounds.fit_exponent([(1, 1), (2, 4)])

    def test_non_increasing_scales(self):
        with pytest.raises(ValidationError):
            bounds.fit_exponent([(4, 1), (2, 4), (8, 9)])

    @pytest.mark.parametrize("series", [
        [(0, 1), (1, 2), (2, 3)],
        [(-2, 1), (-1, 2), (1, 3)],
    ])
    def test_non_positive_scales(self, series):
        with pytest.raises(ValidationError, match="scales must be positive"):
            bounds.fit_exponent(series)
