"""Independent output checks.

Every reference here works on the benchmark's own integer data or on the
emitted output alone; nothing imports or calls inclab.  A check takes the
parsed JSON output of one op and returns True when it is right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def count_equals(expected: int):
    """`inclab count` must report exactly `expected` incidences."""

    def check(out: dict) -> bool:
        return out.get("incidences") == expected

    return check


def distance_sphere_count(p1, p2) -> int:
    """Every p in P1 lies on exactly one sphere around each q in P2."""
    return len(p1) * len(p2)


def elekes_count(kk: int) -> int:
    return kk**4


def _d2(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def unit_sphere_count(points, radius2: int) -> int:
    """2U: each unordered pair at squared distance radius2 gives two
    incidences, one on the sphere around either end."""
    return 2 * sum(1 for a, b in itertools.combinations(points, 2) if _d2(a, b) == radius2)


def _collinear(a, b, c) -> bool:
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    return u[1] * v[2] == u[2] * v[1] and u[2] * v[0] == u[0] * v[2] and u[0] * v[1] == u[1] * v[0]


def similar_triangle_count(points, rho1: Fraction, rho2: Fraction) -> int:
    """Unordered non-collinear triples whose squared sides, in some order
    (ab, ac, bc), are proportional to (1, rho1, rho2); integer arithmetic."""
    p1, q1 = rho1.numerator, rho1.denominator
    p2, q2 = rho2.numerator, rho2.denominator
    count = 0
    for a, b, c in itertools.combinations(points, 3):
        if _collinear(a, b, c):
            continue
        sides = (_d2(a, b), _d2(a, c), _d2(b, c))
        if any(
            ac * q1 == ab * p1 and bc * q2 == ab * p2
            for ab, ac, bc in itertools.permutations(sides)
        ):
            count += 1
    return count


def triangles(expected_bruteforce: int):
    """The brute-force count S matches the integer reference, and 3S <= 2I
    holds against the reported incidence count I."""

    def check(out: dict) -> bool:
        s, i = out.get("count_bruteforce"), out.get("incidences")
        return s == expected_bruteforce and isinstance(i, int) and 3 * s <= 2 * i

    return check


def _factor_degree(factor: dict) -> int:
    return max(sum(int(e) for e in key.split(",")) for key in factor)


def _evaluate(factor: dict, p) -> Fraction:
    total = Fraction(0)
    for key, coeff in factor.items():
        i, j, k = (int(e) for e in key.split(","))
        total += Fraction(coeff) * p[0] ** i * p[1] ** j * p[2] ** k
    return total


def partition_census(points, rounds: int, cross_lines: int):
    """The census recomputed exactly from the emitted factors matches, and
    no line meets more than total degree + 1 open cells."""

    def check(out: dict) -> bool:
        factors = out["partition"]["factors"]
        if len(factors) != rounds:
            return False
        census: dict[str, int] = {}
        for p in points:
            signs = []
            for f in factors:
                v = _evaluate(f, p)
                if v == 0:
                    signs = ["Z"]
                    break
                signs.append("+" if v > 0 else "-")
            label = "".join(signs)
            census[label] = census.get(label, 0) + 1
        if census != out["census"]:
            return False
        limit = sum(_factor_degree(f) for f in factors) + 1
        crossings = out["crossings"]
        return len(crossings) == cross_lines and all(0 <= c <= limit for c in crossings)

    return check
