import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from inclab import roots
from inclab.geom import clear_denominators


def poly_from_roots(rs):
    p = [F(1)]
    for r in rs:
        p = roots.umul(p, [-F(r), F(1)])
    return p


class TestBasics:
    def test_eval(self):
        assert roots.ueval([F(-6), F(1), F(1)], F(2)) == 0

    def test_divmod_exact(self):
        a = roots.umul([F(1), F(1)], [F(-2), F(1)])
        q, r = roots._udivmod(a, [F(1), F(1)])
        assert q == [F(-2), F(1)]
        assert r == []

    def test_pseudo_division_keeps_sign(self):
        # 2^2 (x^2 + 1) = (2x - 1)(2x + 1) + 5
        assert roots._udivmod([1, 0, 1], [1, 2]) == ([-1, 2], [5])
        # a negative leading coefficient still multiplies by |lc|^2 = 4
        assert roots._udivmod([1, 0, 1], [1, -2]) == ([-1, -2], [5])
        # and by |lc|^1 = 2, not lc: 2x = -(1 - 2x) + 1
        assert roots._udivmod([0, 1], [1, -2]) == ([-1], [1])

    def test_repeated_root_isolated_once(self):
        # (x - 1)^2 (x - 2) is isolated on its own Sturm sequence
        p = roots.umul(poly_from_roots([1, 1]), [F(-2), F(1)])
        (lo1, hi1), (lo2, hi2) = roots.isolate_real_roots(p)
        assert lo1 < 1 < hi1 < lo2 < 2 < hi2


class TestIsolation:
    def test_three_integer_roots(self):
        p = poly_from_roots([1, 2, 3])
        iv = roots.isolate_real_roots(p)
        assert len(iv) == 3
        for (lo, hi), r in zip(iv, (1, 2, 3)):
            assert lo <= r <= hi

    def test_no_real_roots(self):
        assert roots.isolate_real_roots([F(1), F(0), F(1)]) == []

    def test_rational_roots(self):
        p = poly_from_roots([F(1, 3), F(7, 2)])
        iv = roots.isolate_real_roots(p)
        assert len(iv) == 2

    def test_irrational_roots(self):
        # t^2 - 2
        iv = roots.isolate_real_roots([F(-2), F(0), F(1)])
        assert len(iv) == 2
        (a1, b1), (a2, b2) = iv
        assert b1 < a2  # separated

    def test_samples_alternate_signs(self):
        p = poly_from_roots([1, 2, 3])
        samples = roots.sample_points_between_roots(p)
        assert len(samples) == 4
        signs = [1 if roots.ueval(p, s) > 0 else -1 for s in samples]
        assert signs == [-1, 1, -1, 1]

    def test_constant_poly(self):
        assert roots.sample_points_between_roots([F(5)]) == [F(0)]

    def test_random_stress(self):
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randint(1, 4)
            rs = sorted(set(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(k)))
            p = poly_from_roots(rs)
            iv = roots.isolate_real_roots(p)
            assert len(iv) == len(rs)
            for (lo, hi), r in zip(iv, rs):
                assert lo <= r <= hi

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4))
    def test_sample_count_matches_roots(self, rs):
        distinct = sorted(set(rs))
        p = poly_from_roots(distinct)
        samples = roots.sample_points_between_roots(p)
        assert len(samples) == len(distinct) + 1
        assert all(roots.ueval(p, s) != 0 for s in samples)

    def test_close_roots(self):
        # sqrt(2) and its convergent 665857/470832, about 1.6e-12 apart
        p = roots.umul([F(-2), F(0), F(1)], [F(-665857), F(470832)])
        iv = roots.isolate_real_roots(p)
        assert len(iv) == 3
        (lo, hi), (lo2, hi2) = iv[1], iv[2]
        assert lo * lo < 2 < hi * hi and lo2 < F(665857, 470832) < hi2
        assert all(hi1 < lo2 for (_, hi1), (lo2, _) in zip(iv, iv[1:]))


def _is_dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


ROOTS = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@st.composite
def root_polys(draw):
    """Products of linear factors with rational roots, some repeated, some
    pairs closer than 2^-20, and quadratics without real or rational roots,
    times a rational scale of either sign."""
    p = [draw(st.sampled_from([F(1), F(-3), F(2, 7)]))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["root", "repeated", "close", "no_real", "irrational"]))
        r = draw(ROOTS)
        if kind == "root":
            factors = [[-r, F(1)]]
        elif kind == "repeated":
            factors = [[-r, F(1)]] * draw(st.integers(2, 3))
        elif kind == "close":
            gap = F(1, 2 ** draw(st.integers(21, 40)) + draw(st.integers(0, 5)))
            factors = [[-r, F(1)], [-r - gap, F(1)]]
        elif kind == "no_real":
            factors = [[r * r + draw(st.integers(1, 5)), F(0), F(1)]]
        else:
            factors = [[F(-draw(st.sampled_from([2, 3, 5, 7]))), F(0), F(1)]]
        for f in factors:
            p = roots.umul(p, f)
    return p


class TestFractionOracleDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(root_polys())
    def test_matches_fraction_sturm_counts(self, p):
        sf = oracle.squarefree(p)
        seq = oracle.sturm_sequence(sf) if oracle.udegree(sf) >= 1 else [sf]
        bound = oracle.root_bound(sf)
        total = oracle.count_roots(seq, -bound, bound) if len(seq) > 1 else 0

        intervals = roots.isolate_real_roots(p)
        assert len(intervals) == total
        for lo, hi in intervals:
            assert lo < hi and _is_dyadic(lo) and _is_dyadic(hi)
            assert oracle.ueval(p, lo) != 0 and oracle.ueval(p, hi) != 0
            assert oracle.count_roots(seq, lo, hi) == 1
        assert all(hi1 < lo2 for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]))

        samples = roots.sample_points_between_roots(p)
        assert len(samples) == total + 1
        assert all(_is_dyadic(s) and oracle.ueval(p, s) != 0 for s in samples)
        for a, b in zip(samples, samples[1:]):
            assert a < b and oracle.count_roots(seq, a, b) == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(root_polys(), st.integers(1, 12))
    def test_integer_samples_and_signs(self, p, scale):
        # the int path takes any positive multiple, and its pairs are the
        # wrapper's sample points, where the integer sign agrees with the oracle
        ints, _ = clear_denominators(p)
        samples = roots._samples([scale * c for c in ints])
        assert [F(a, 1 << k) for a, k in samples] == roots.sample_points_between_roots(p)
        for a, k in samples:
            v = oracle.ueval(p, F(a, 1 << k))
            assert v != 0 and (roots._hvalue(ints, a, k) > 0) == (v > 0)


class TestRootBound:
    def test_exponent_values(self):
        # Fujiwara: 1 + max(0, ceil((bitlen|c_(n-i)| - bitlen|lc| + 1) / i))
        assert roots._bound_exponent([-7, 0, 1]) == 3
        assert roots._bound_exponent([-(1 << 20), 1]) == 22
        assert roots._bound_exponent([5, 3]) == 3
        assert roots._bound_exponent([0, 1]) == 1
        assert roots._bound_exponent([1, 0, 0, 0, 0, 0, -10**9]) == 1
        assert roots._bound_exponent([-10**9, 0, 0, 0, 0, 0, 1]) == 6
        assert roots._bound_exponent([0, 0, 5]) == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10**9, 10**9)),
                    min_size=1, max_size=7),
           st.one_of(st.integers(1, 7), st.integers(1, 10**12)), st.booleans())
    @example([-(1 << 20)], 1, False)
    @example([-(1 << 20) * 3], 3, True)
    @example([-1, 0, 0, 0], 1, False)
    @example([0, 0, 0], 5, False)
    @example([1, 0, 0, 0, 0, 0, -10**9], 2, True)
    def test_every_root_strictly_inside(self, lower, lc, negative):
        # lower holds c_0 .. c_(n-1), often with zero entries; the leading
        # coefficient has either sign and is often > 1 in absolute value
        p = [*lower, -lc if negative else lc]
        e = roots._bound_exponent(p)
        # the bit-length Fujiwara exponent
        fujiwara = 1 + max([0] + [
            -((lc.bit_length() - 1 - abs(c).bit_length()) // i)
            for i, c in enumerate(reversed(lower), 1) if c
        ])
        assert e == fujiwara
        bound = F(1 << e)
        fp = [F(c) for c in p]
        assert oracle.ueval(fp, bound) != 0 and oracle.ueval(fp, -bound) != 0
        sf = oracle.squarefree(fp)
        if oracle.udegree(sf) >= 1:
            seq = oracle.sturm_sequence(sf)
            every = oracle.root_bound(sf)  # Cauchy's
            assert oracle.count_roots(seq, -bound, bound) == oracle.count_roots(seq, -every, every)
