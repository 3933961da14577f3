"""Polynomial partitioning at desk scale.

Rounds of simultaneous approximate bisection: each round searches for one
polynomial whose zero set splits every current cell into open sides holding
at most a (1+delta)/2 fraction of that cell's points.  Cells are sign
vectors of the round factors; points on any factor's zero set belong to the
class Z.  The search is randomized over Veronese-lifted linear functionals
with coefficients in 64ths snapped from Gaussian draws.  Coordinates are
cleared of denominators once, so each candidate's lifted values are Python
ints and one exact sweep over doubled midpoint thresholds both ranks and
certifies it; no point value ever sits on an accepted threshold.  Scores
are ints in units of 1/lcm(cell sizes), from score tables built once per
round, and (1+delta)/2 is compared with them by cross-multiplying.

The build's cells are its points' cell census: a point goes to the side
of the sign of 2 value - theta, a positive multiple of the factor's value
there, and no value sits on an accepted threshold, so no point is in Z.
`build_partition` returns that census with the partition (`census`, not
serialized); `cell_census` is the general census of any points, and its
reference.

The censuses stay in the same integers.  The integer form of a factor
lives on the `TriPoly` itself (`TriPoly.integer_terms`), cleared of
denominators once, and is the same form the incidence core signs implicit
objects with; a census only scales its terms by den**(d - |m|) for the
points' or the line's common denominator.  `cell_census` evaluates the
scaled terms on the cleared coordinates (`geom.integer_value`).  The
crossing census works on an integer line (o + t v) / den: `crossing_census`
clears a rational line's origin and direction once, and a caller with an
integer line passes it with den 1.  Every factor's restriction to the line
is read off power tables (o + t v)**e per axis.  When every restriction
has degree at most 1, as for the planes of rounds 1 and 2, the count is
the number of distinct roots plus one: a linear factor flips sign exactly
once, at its root, a constant never, so the open intervals between the k
distinct roots carry k + 1 pairwise distinct sign vectors.  One quadratic
restriction among them, as for the quadric of round 3, is closed form too:
its discriminant says whether it flips at two roots r1 < r2, and the sign
of s**2 q(p/s) at each linear root p/s says whether that root is r1 or r2
or lies between them.  The count is again the number of distinct roots
plus one, less one when no linear root lies in [r1, r2], since then the
intervals on either side of [r1, r2] carry the same sign vector
(`_crossings`).  Only a line with two quadratic restrictions (round 4) or
one of higher degree takes the sign vectors at the dyadic sample points
(a, k) between the roots of the product (`roots`, Sturm sequences), each
sign from an integer Horner value.  Each of these is a positive multiple
of the rational value, so every sign is exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from . import io, roots
from .errors import BudgetExhausted, GuardExceeded, ValidationError
from .geom import Line, Point3, TriPoly, clear_denominators, frac, integer_coords, integer_value

CellLabel = Union[tuple[str, ...], str]

Z_LABEL = "Z"

# candidate weights are multiples of 1/_WEIGHT_DEN, snapped from Gaussian draws
_WEIGHT_DEN = 64


# ---------------------------------------------------------------------------
# degree schedule

class Regime(Enum):
    NAIVE_ONLY = "NaiveOnly"
    SMALL_M = "SmallM"
    LARGE_M = "LargeM"


@dataclass(frozen=True)
class DegreePlan:
    regime: Regime
    D: int


def plan_degree(m: int, n: int, k: int, a=1, a_prime=1, c=1) -> DegreePlan:
    """Partition degree schedule with regime selection.

    SmallM fires for a'*n^(1/k) <= m <= a*n^(3/2) with
    D = round(c * m^(k/(3k-2)) / n^(1/(3k-2))); LargeM for m > a*n^(3/2)
    with D = round(c * n^(1/2)); below the naive threshold D = 0 and the
    Kovari-Sos-Turan bound applies directly.
    """
    if m < 1 or n < 1:
        raise ValidationError("need m, n >= 1")
    if k < 2:
        raise ValidationError("need k >= 2")
    a, a_prime, c = frac(a), frac(a_prime), frac(c)
    if a <= 0 or a_prime <= 0 or c <= 0:
        raise ValidationError("constants must be positive")
    # m < a' * n^(1/k)  <=>  (m/a')^k < n, exactly in rationals
    if (Fraction(m) / a_prime) ** k < n:
        return DegreePlan(Regime.NAIVE_ONLY, 0)
    # m > a * n^(3/2)  <=>  (m/a)^2 > n^3
    if (Fraction(m) / a) ** 2 > Fraction(n) ** 3:
        d = max(1, round(float(c) * math.sqrt(n)))
        return DegreePlan(Regime.LARGE_M, d)
    d = max(1, round(float(c) * m ** (k / (3 * k - 2)) / n ** (1 / (3 * k - 2))))
    return DegreePlan(Regime.SMALL_M, d)


# ---------------------------------------------------------------------------
# partition polynomial

@dataclass
class PartitionPolynomial:
    """The round factors of a partition.  `census` is the cell census of
    the points it was built on, read off the build (`build_partition`);
    it is empty for a partition read back from its record."""

    round_factors: list[TriPoly]
    delta: Fraction
    seed: int
    census: dict[CellLabel, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def total_degree(self) -> int:
        return sum(f.degree() for f in self.round_factors)


def round_degree(round_index: int) -> int:
    """Smallest d with binom(d+3,3)-1 >= number of sets bisected in round i."""
    sets = 2 ** (round_index - 1)
    d = 1
    while math.comb(d + 3, 3) - 1 < sets:
        d += 1
    return d


def _monomials_up_to(d: int) -> list[tuple[int, int, int]]:
    out = []
    for total in range(1, d + 1):
        for i in range(total + 1):
            for j in range(total - i + 1):
                out.append((i, j, total - i - j))
    out.sort()
    return out


def _snap(x: float) -> int:
    """Numerator of x rounded to a multiple of 1/_WEIGHT_DEN."""
    return round(x * _WEIGHT_DEN)


def _score_tables(sizes: Sequence[int]) -> list[list[int]]:
    """Each cell's scores in integer units of 1/lcm(sizes): a cell of m
    points, b of them below the threshold, scores max(b, m - b) / m.  Every
    table starts at the unit, the score of a cell left whole."""
    unit = math.lcm(*sizes)
    return [[max(b, m - b) * (unit // m) for b in range(m + 1)] for m in sizes]


def _best_threshold(values: list[int], cell_of: list[int], pad: int,
                    tables: list[list[int]]) -> tuple[int, int]:
    """Exact scan of doubled thresholds over integer point values, in any
    order, with cell_of[i] the cell of value i.

    The candidates, in order, are 2(min - pad) and 2(max + pad), then a + b
    for each pair of neighbouring distinct values a < b, so no value sits on
    a threshold.  A threshold's score is the largest open side of any cell
    as a fraction of that cell, in the units of the cells' `_score_tables`;
    returns the first (score, theta) with the smallest score.  One sweep
    over the values in order moves them below the threshold one at a time,
    updating only their own cell's score.
    """
    unit = tables[0][0]
    below = [0] * len(tables)
    scores = [unit] * len(tables)
    order = sorted(zip(values, cell_of))
    # with every value on one side each cell scores unit, so of the first
    # two candidates 2(min - pad) stands until a strictly lower score
    prev = order[0][0]
    best, best_theta = unit, 2 * (prev - pad)
    for v, c in order:
        if v != prev:  # every value <= prev is below prev + v
            worst = max(scores)
            if worst < best:
                best, best_theta = worst, prev + v
            prev = v
        b = below[c] = below[c] + 1
        scores[c] = tables[c][b]
    return best, best_theta


def _values(w: list[int], columns: list[list[int]]) -> list[int]:
    """Every point's value w . lift(p), from the lifts stored by monomial."""
    values = [0] * len(columns[0])
    for c, column in zip(w, columns):
        if c:
            values = [v + c * x for v, x in zip(values, column)]
    return values


def build_partition(
    points: Sequence[Point3], t: int, delta, seed: int, budget: int = 10_000
) -> PartitionPolynomial:
    """Build a t-round partitioning polynomial by seeded randomized search.

    Every accepted round factor is verified by exact counting: each open
    side of its zero set holds at most a (1+delta)/2 fraction of every
    current cell.  Raises BudgetExhausted when no candidate passes, and
    before the first candidate of a round whose cells no threshold can
    split that evenly.  The cells the rounds leave are returned as the
    partition's `census`, the points' cell census (see the module
    docstring).
    """
    if not 1 <= t <= 4:
        raise GuardExceeded("rounds t must be between 1 and 4")
    delta = frac(delta)
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    if len(points) < 2**t:
        raise ValidationError(f"need at least 2^{t} points")
    coords, den = integer_coords(points)
    if len(set(coords)) != len(coords):
        raise ValidationError("points must be distinct")
    rng = random.Random(seed)
    # a score s in units of 1/unit is at most (1+delta)/2 exactly when
    # 2 s delta.denominator <= (delta.denominator + delta.numerator) unit
    limit_num, limit_den = delta.denominator + delta.numerator, 2 * delta.denominator
    # each cell with its sign vector so far
    cells: list[tuple[tuple[str, ...], list[int]]] = [((), list(range(len(points))))]
    factors: list[TriPoly] = []

    for round_index in range(1, t + 1):
        tables = _score_tables([len(cell) for _, cell in cells])
        unit = tables[0][0]
        ceiling = limit_num * unit // limit_den  # the largest score accepted
        # no threshold sits on a value, so a cell's larger open side holds
        # at least half of it, rounded up: no score can be below target
        target = max(map(min, tables))
        if target > ceiling:
            raise BudgetExhausted(
                f"round {round_index}: no (1+{delta})-bisection exists: an open side "
                f"holds at least {Fraction(target, unit)} of some cell",
                best_imbalance=Fraction(target, unit),
            )
        cell_of = [0] * len(points)
        for c, (_, cell) in enumerate(cells):
            for pid in cell:
                cell_of[pid] = c
        d = round_degree(round_index)
        monomials = _monomials_up_to(d)
        # den**d * x**i y**j z**k from integer coordinates: every lift is
        # scaled by the same positive constant, and with weights in units of
        # 1/_WEIGHT_DEN a value of pad is one unit of the factor's value
        pad = _WEIGHT_DEN * den**d
        columns = [
            [den ** (d - i - j - k) * x**i * y**j * z**k for (x, y, z) in coords]
            for (i, j, k) in monomials
        ]
        accepted = None
        best_imbalance = None
        explore = min(budget, 400)
        w = None
        for attempt in range(budget):
            if accepted is not None and attempt >= explore:
                break
            if w is None or attempt % 8 != 0:
                w = [_snap(rng.gauss(0.0, 1.0)) for _ in monomials]
            else:
                # local coordinate-descent nudge on the previous direction
                w = list(w)
                idx = rng.randrange(len(w))
                w[idx] += _snap(rng.gauss(0.0, 0.5))
            if all(c == 0 for c in w):
                continue
            values = _values(w, columns)
            score, theta = _best_threshold(values, cell_of, pad, tables)
            if score > ceiling:
                if best_imbalance is None or score < best_imbalance:
                    best_imbalance = score
                continue
            if accepted is None or score < accepted[0]:
                accepted = (score, w, theta, values)
            if score <= target:
                break
        if accepted is None:
            raise BudgetExhausted(
                f"round {round_index}: no (1+{delta})-bisection found in {budget} candidates",
                best_imbalance=None if best_imbalance is None else Fraction(best_imbalance, unit),
            )
        _, w, theta, values = accepted
        terms = {mono: Fraction(c, _WEIGHT_DEN) for mono, c in zip(monomials, w) if c != 0}
        terms[(0, 0, 0)] = -Fraction(theta, 2 * pad)
        factors.append(TriPoly(terms))
        new_cells = []
        for signs, cell in cells:
            neg, pos = [], []
            for pid in cell:
                (neg if 2 * values[pid] < theta else pos).append(pid)
            new_cells.extend((signs + (s,), side) for s, side in (("-", neg), ("+", pos)) if side)
        cells = new_cells
    return PartitionPolynomial(factors, delta, seed, {signs: len(cell) for signs, cell in cells})


# ---------------------------------------------------------------------------
# classification and censuses

def _labels(points: Sequence[Point3], part: PartitionPolynomial) -> list[CellLabel]:
    """Each point's cell label, with every factor evaluated in integers."""
    coords, den = integer_coords(points)
    factors = [f.integer_terms(den) for f in part.round_factors]
    labels: list[CellLabel] = []
    for x, y, z in coords:
        signs = []
        for terms in factors:
            v = integer_value(terms, x, y, z)
            if v == 0:
                labels.append(Z_LABEL)
                break
            signs.append("+" if v > 0 else "-")
        else:
            labels.append(tuple(signs))
    return labels


def classify(p: Point3, part: PartitionPolynomial) -> CellLabel:
    return _labels([p], part)[0]


def cell_census(points: Sequence[Point3], part: PartitionPolynomial) -> dict[CellLabel, int]:
    census: dict[CellLabel, int] = {}
    for label in _labels(points, part):
        census[label] = census.get(label, 0) + 1
    return census


def _restricted(factors: Sequence[TriPoly], origin: tuple[int, int, int],
                direction: tuple[int, int, int], den: int) -> list[list[int]]:
    """Integer coefficients (ascending) of t -> den**d f((origin + t direction) / den)
    for each factor f of degree d, from its `integer_terms`, trimmed: a
    positive multiple of f along the line.  Each monomial is read off the
    tables of (o + t v)**e, one table per axis up to the largest degree."""
    forms = [f.integer_terms(den) for f in factors]
    top = max((f.degree() for f in factors), default=0)
    tables = []
    for o, v in zip(origin, direction):
        powers = [[1]]
        for _ in range(top):  # (o + t v) times the last power
            last = powers[-1]
            powers.append([o * a + v * b for a, b in zip(last + [0], [0] + last)])
        tables.append(powers)
    xs, ys, zs = tables
    out = []
    for terms in forms:
        total = [0] * (top + 1)
        for c, i, j, k in terms:
            poly = xs[i]
            if j:
                poly = roots.umul(poly, ys[j]) if i else ys[j]
            if k:
                poly = roots.umul(poly, zs[k]) if i or j else zs[k]
            for e, p in enumerate(poly):
                total[e] += c * p
        out.append(roots.utrim(total))
    return out


def crossing_census(line: Line, part: PartitionPolynomial) -> int:
    """Distinct open-cell sign vectors met along a line, from each factor's
    restriction to the line in integers: in closed form when at most one
    restriction has degree 2 and the rest degree <= 1, by exact univariate
    root isolation otherwise (`_crossings`)."""
    ints, den = clear_denominators((*line.origin.as_tuple(), *line.direction))
    return _crossings(part.round_factors, ints[:3], ints[3:], den)


def _crossings(factors: Sequence[TriPoly], origin: tuple[int, int, int],
               direction: tuple[int, int, int], den: int) -> int:
    """`crossing_census` of the line (origin + t direction) / den, for an
    integer origin and direction and a positive den.

    When every restriction has degree at most 1 (every factor of rounds 1
    and 2 is a plane), the count is the number of distinct roots plus one:
    a nonzero constant never changes sign, and c0 + c1 t with c1 != 0
    changes sign exactly once, at -c0/c1.  Between any two of the k + 1
    open intervals cut by the k distinct roots lies a root, and the factor
    vanishing there flips there and nowhere else, so the k + 1 sign vectors
    are pairwise distinct.  Roots are compared as gcd-reduced pairs (p, s)
    with s > 0; R is the set of them.

    One restriction q = c0 + c1 t + c2 t**2 of degree 2 among them (as on
    every line of a t = 3 build, whose third factor is a quadric) is closed
    form too.
    When c1**2 - 4 c0 c2 <= 0, q keeps its sign except at a double root,
    which only splits one interval into two with the same sign vector, so
    the count is |R| + 1.  Otherwise q flips at two simple roots r1 < r2,
    and a pair (p, s) of R is r1 or r2 exactly when v = s**2 q(p/s) =
    c0 s**2 + c1 p s + c2 p**2 is 0, and lies strictly between them exactly
    when v has the sign of -c2.  With `at` pairs at r1 or r2 there are
    k = |R| + 2 - at distinct roots.  Two of the k + 1 intervals carry the
    same sign vector exactly when the roots between them flip every factor
    an even number of times.  Every linear factor flips once, so no root
    of R is between them, and q flips at r1 and at r2, so the roots between
    them are r1 and r2 and nothing else.  So the count is k + 1, less one
    when no root of R lies in [r1, r2]: `at` is 0 and no v has the sign of
    -c2.

    Any other line (a restriction of degree 3 or more, or two of degree 2
    or more) reads its sign vectors at sample points between the roots of
    the factors' product (`roots._samples`).
    """
    restricted = _restricted(factors, origin, direction, den)
    if not all(restricted):
        return 0  # the line lies inside some factor's zero set: always Z
    found = set()
    higher = []
    for r in restricted:
        if len(r) == 2:
            c0, c1 = r
            g = math.gcd(c0, c1) if c1 > 0 else -math.gcd(c0, c1)
            found.add((-c0 // g, c1 // g))
        elif len(r) > 2:
            higher.append(r)
    if not higher:
        return len(found) + 1
    if len(higher) == 1 and len(higher[0]) == 3:
        [(c0, c1, c2)] = higher
        if c1 * c1 <= 4 * c0 * c2:
            return len(found) + 1
        at = between = 0
        for p, s in found:
            v = (c0 * s + c1 * p) * s + c2 * p * p
            if v == 0:
                at += 1
            elif (v > 0) != (c2 > 0):
                between += 1
        return len(found) + 3 - at - (at == 0 and between == 0)
    product = [1]
    for r in restricted:
        product = roots.umul(product, r)
    # no sample is a root of the product, so no value is 0
    return len({
        tuple([roots._hvalue(r, a, k) > 0 for r in restricted])
        for a, k in roots._samples(product)
    })


# ---------------------------------------------------------------------------
# serialization (JSON-ready dicts; exact values as strings)

def partition_to_jsonable(part: PartitionPolynomial) -> dict:
    return {
        "rounds": len(part.round_factors),
        "delta": str(part.delta),
        "seed": part.seed,
        "factors": [io.tripoly_to_record(f) for f in part.round_factors],
    }


def partition_from_jsonable(data: dict) -> PartitionPolynomial:
    """The partition of a record as `partition_to_jsonable` writes it: rounds
    and seed JSON integers, 1 to 4 rounds as `build_partition` allows, delta
    a rational string >= 0, and one nonzero factor per round."""
    try:
        factors, rounds, delta, seed = data["factors"], data["rounds"], data["delta"], data["seed"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad partition record: {exc!r}") from exc
    if type(rounds) is not int or type(seed) is not int:
        raise ValidationError("partition record: rounds and seed must be integers")
    if not 1 <= rounds <= 4:
        raise ValidationError("partition record: rounds must be between 1 and 4")
    delta = io.parse_rational(delta)
    if delta < 0:
        raise ValidationError("partition record: delta must be >= 0")
    if not isinstance(factors, list) or len(factors) != rounds:
        raise ValidationError(f"partition record needs one factor per round, {rounds} rounds")
    factors = [io.tripoly_from_record(f) for f in factors]
    if any(f.is_zero() for f in factors):
        raise ValidationError("partition record: a round factor is the zero polynomial")
    return PartitionPolynomial(factors, delta, seed)
