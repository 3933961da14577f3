"""Exact real-root isolation for univariate polynomials, in integers.

Polynomials are coefficient lists in ascending degree order.  Inside, every
polynomial is an integer polynomial made primitive, because multiplying by
a positive constant keeps every sign; only the public entry points take
rational lists (ints or Fractions), which `geom.clear_denominators` clears
to ints.  Isolation uses one method: the Sturm sequence of p itself (p, its
derivative and their negated pseudo-remainders, scaled by |lc|^(delta+1)
so that no sign flips and divided by their content at each step), with
bisection from Fujiwara's power-of-two root bound, read off the
coefficients' bit lengths.  p need not be squarefree: every entry of its
sequence is g = gcd(p, p') times the matching entry of the Sturm sequence
of p / g, and g is nonzero wherever p is, so at two non-roots a < b the
sign changes V(a) - V(b) count the distinct roots of p in (a, b).
Every point is a dyadic pair (a, k) meaning a / 2^k, and every sign comes
from homogenized Horner in ints with shifts (`_hvalue`).  `_samples`
takes an integer polynomial and returns its sample points as such pairs,
for callers that sign integer polynomials there themselves, as the
partition crossing census does; `sample_points_between_roots` and
`isolate_real_roots` are thin wrappers that turn the pairs into dyadic
`Fraction`s that are never roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geom import clear_denominators

UPoly = list  # ascending coefficients: ints, or Fractions at the public API


def utrim(p: UPoly) -> UPoly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def ueval(p: UPoly, x) -> Fraction:
    """p(x), exactly, for a rational x."""
    total = Fraction(0)
    for c in reversed(utrim(p)):
        total = total * x + c
    return total


def uderiv(p: UPoly) -> UPoly:
    return utrim([i * c for i, c in enumerate(p)][1:])


def umul(a: UPoly, b: UPoly) -> UPoly:
    a, b = utrim(a), utrim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, which keeps every sign."""
    p = utrim(p)
    g = math.gcd(*p)
    return p if g <= 1 else [c // g for c in p]


def _integer(p: UPoly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of the
    rational polynomial p."""
    return _primitive(clear_denominators(utrim(p))[0])


def _udivmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """Pseudo-division: q, r with |lc(b)|^(delta+1) * a = q*b + r, where
    delta = deg a - deg b and deg r < deg b.  The multiplier is positive, so
    r has the sign pattern of the remainder of a by b."""
    a, b = utrim(a), utrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    delta = len(a) - len(b)
    if delta < 0:
        return [], a
    lc, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    q = [0] * (delta + 1)
    r = list(a)
    for shift in range(delta, -1, -1):
        coeff = r[-1] * sign  # lc * r[-1] / b[-1]
        if lc != 1:
            r = [c * lc for c in r]
            q = [c * lc for c in q]
        q[shift] += coeff
        for i, cb in enumerate(b):
            r[shift + i] -= coeff * cb
        r.pop()  # leading term cancels exactly
    return utrim(q), utrim(r)


def _sturm(p: list[int]) -> list[list[int]]:
    """The Sturm sequence of a primitive integer polynomial p, whether or
    not p is squarefree: p, its primitive derivative and their negated
    pseudo-remainders, each divided by its content, which is the signed
    remainder sequence up to positive factors; empty when p is constant."""
    if len(p) < 2:
        return []
    seq = [p, _primitive(uderiv(p))]
    while len(seq[-1]) > 1:
        r = _udivmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(_primitive([-c for c in r]))
    return seq


def _hvalue(p: list[int], a: int, k: int) -> int:
    """2^(k*deg p) * p(a / 2^k): homogenized Horner with shifts."""
    it = reversed(p)
    acc = next(it)
    s = 0
    for c in it:
        s += k
        acc = acc * a + (c << s)
    return acc


def _variations(seq: list[list[int]], a: int, k: int) -> int | None:
    """Sign changes of the sequence at a / 2^k, zeros skipped, or None when
    a / 2^k is a root of its first entry."""
    it = iter(seq)
    last = _hvalue(next(it), a, k)
    if not last:
        return None
    count = 0
    for q in it:
        v = _hvalue(q, a, k)
        if v:
            if (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _split(seq: list[list[int]], lo: tuple[int, int],
           hi: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """A dyadic point strictly inside (lo, hi) that is not a root of seq[0],
    with the sequence's sign changes there: the midpoint, or when that is a
    root, the first non-root of mid + 2^-(k+1), mid + 3 * 2^-(k+2), ...,
    all below mid + 2^-k <= hi."""
    k = max(lo[1], hi[1]) + 1
    m = (lo[0] << (k - 1 - lo[1])) + (hi[0] << (k - 1 - hi[1]))
    while (v := _variations(seq, m, k)) is None:
        m, k = 2 * m + 1, k + 1
    return (m, k), v


def _bound_exponent(p: list[int]) -> int:
    """An e with every root of the integer polynomial p strictly inside
    (-2^e, 2^e), from Fujiwara's bound.

    Every root has |x| < 2 max_i |c_(n-i) / lc|^(1/i), and
    |c / lc| < 2^(bitlen|c| - bitlen|lc| + 1), so e is 1 plus the
    largest of 0 and ceil((bitlen|c_(n-i)| - bitlen|lc| + 1) / i) over the
    nonzero c_(n-i)."""
    top = abs(p[-1]).bit_length() - 1
    e = 0
    for i, c in enumerate(reversed(p[:-1]), 1):
        if c:
            f = (abs(c).bit_length() - top + i - 1) // i  # the ceiling, in ints
            if f > e:
                e = f
    return e + 1


def _isolate(seq: list[list[int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Sorted isolating intervals of the distinct real roots of the
    primitive p = seq[0] with Sturm sequence seq, as pairs of dyadic points
    (a, k) meaning a / 2^k.  Each open interval holds exactly one root;
    neighbours may share an endpoint; no endpoint is a root."""
    e = _bound_exponent(seq[0])
    lo, hi = (-(1 << e), 0), (1 << e, 0)
    out = []
    stack = [(lo, hi, _variations(seq, *lo), _variations(seq, *hi))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo - vhi > 1:
            mid, vmid = _split(seq, lo, hi)
            stack.append((mid, hi, vmid, vhi))
            stack.append((lo, mid, vlo, vmid))
    return out


def _dyadic(point: tuple[int, int]) -> Fraction:
    a, k = point
    return Fraction(a, 1 << k)


def isolate_real_roots(p: UPoly) -> list[tuple[Fraction, Fraction]]:
    """Sorted isolating intervals (lo, hi) for the distinct real roots of p.

    Each open interval holds exactly one root, lo and hi are dyadic and
    never roots, and the intervals are strictly separated: hi < next lo.
    """
    seq = _sturm(_integer(p))
    if not seq:
        return []
    out = _isolate(seq)

    def refine(lo, hi):  # the half of (lo, hi) that keeps its root
        mid, vmid = _split(seq, lo, hi)
        return (lo, mid) if _variations(seq, *lo) - vmid else (mid, hi)

    for i in range(len(out) - 1):
        while _dyadic(out[i][1]) >= _dyadic(out[i + 1][0]):
            out[i], out[i + 1] = refine(*out[i]), refine(*out[i + 1])
    return [(_dyadic(lo), _dyadic(hi)) for lo, hi in out]


def _samples(p: list[int]) -> list[tuple[int, int]]:
    """Dyadic points (a, k), meaning a / 2^k, one inside each maximal
    root-free open interval of the real line cut by the real roots of the
    integer polynomial p; none is a root of p."""
    seq = _sturm(_primitive(p))
    intervals = _isolate(seq) if seq else []
    if not intervals:
        return [(0, 0)]
    # an isolating interval's ends are non-roots on either side of its root
    return [intervals[0][0]] + [hi for _, hi in intervals]


def sample_points_between_roots(p: UPoly) -> list[Fraction]:
    """Dyadic sample points, one inside each maximal root-free open interval
    of the real line determined by p's real roots."""
    return [_dyadic(x) for x in _samples(_integer(p))]
