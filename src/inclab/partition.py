"""Polynomial partitioning at desk scale.

Rounds of simultaneous approximate bisection: each round searches for one
polynomial whose zero set splits every current cell into open sides holding
at most a (1+delta)/2 fraction of that cell's points.  Cells are sign
vectors of the round factors; points on any factor's zero set belong to the
class Z and drop out of later rounds.  The search is randomized over
Veronese-lifted linear functionals with rational coefficients snapped from
floats; acceptance is decided by exact counting only.
"""

from __future__ import annotations

import bisect
import math
import random

import numpy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from . import io, roots
from .errors import BudgetExhausted, GuardExceeded, ValidationError
from .geom import Line, Point3, TriPoly, frac

CellLabel = Union[tuple[str, ...], str]

Z_LABEL = "Z"


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
    round_factors: list[TriPoly]
    rounds: int
    delta: Fraction
    seed: int

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


def _lift(p: Point3, monomials) -> list[Fraction]:
    return [p.x**i * p.y**j * p.z**k for (i, j, k) in monomials]


def _snap(x: float, denom: int = 64) -> Fraction:
    return Fraction(round(x * denom), denom)


def _best_threshold(cell_values: list[list[Fraction]], limits: list[Fraction]):
    """Exact scan over candidate thresholds; returns the (score, theta)
    minimizing the worst open-side fraction, or None if no theta meets the
    per-cell limits.  cell_values are sorted."""
    merged = sorted({v for vals in cell_values for v in vals})
    if not merged:
        return None
    candidates = [merged[0] - 1]
    for a, b in zip(merged, merged[1:]):
        candidates.append(a)
        candidates.append((a + b) / 2)
    candidates.append(merged[-1])
    candidates.append(merged[-1] + 1)
    best = None
    for theta in candidates:
        worst = _verify_threshold(cell_values, limits, theta)
        if worst is not None and (best is None or worst < best[0]):
            best = (worst, theta)
    return best


def _float_best_threshold(fvals, limits):
    """Float screening pass over midpoint thresholds; returns the most
    balanced (score, theta) or None.  Results are only advisory: the caller
    re-checks the chosen theta with exact arithmetic."""
    merged = numpy.sort(numpy.unique(numpy.concatenate(fvals)))
    if merged.size == 0:
        return None
    candidates = [merged[0] - 1.0, merged[-1] + 1.0]
    if merged.size > 1:
        candidates.extend(((merged[:-1] + merged[1:]) / 2.0).tolist())
    best = None
    flimits = [float(l) for l in limits]
    for theta in candidates:
        worst = 0.0
        ok = True
        for vals, limit in zip(fvals, flimits):
            below = int(numpy.searchsorted(vals, theta, side="left"))
            above = len(vals) - int(numpy.searchsorted(vals, theta, side="right"))
            if below > limit or above > limit:
                ok = False
                break
            worst = max(worst, max(below, above) / len(vals))
        if ok and (best is None or worst < best[0]):
            best = (worst, theta)
    return best


def _verify_threshold(cell_values, limits, theta):
    """Exact feasibility check and score for one threshold."""
    worst = Fraction(0)
    for vals, limit in zip(cell_values, limits):
        below = bisect.bisect_left(vals, theta)
        above = len(vals) - bisect.bisect_right(vals, theta)
        if below > limit or above > limit:
            return None
        worst = max(worst, Fraction(max(below, above), len(vals)))
    return worst


def build_partition(
    points: Sequence[Point3], t: int, delta, seed: int, budget: int = 10_000
) -> PartitionPolynomial:
    """Build a t-round partitioning polynomial by seeded randomized search.

    Every accepted round factor is verified by exact counting: each open
    side of its zero set holds at most a (1+delta)/2 fraction of every
    current cell.  Raises BudgetExhausted when no candidate passes.
    """
    if not 1 <= t <= 4:
        raise GuardExceeded("rounds t must be between 1 and 4")
    delta = frac(delta)
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    if len(points) < 2**t:
        raise ValidationError(f"need at least 2^{t} points")
    rng = random.Random(seed)
    cells: list[list[int]] = [list(range(len(points)))]
    factors: list[TriPoly] = []

    for round_index in range(1, t + 1):
        d = round_degree(round_index)
        monomials = _monomials_up_to(d)
        lifts = {pid: _lift(points[pid], monomials) for cell in cells for pid in cell}
        limits = [Fraction(1 + delta, 2) * len(cell) for cell in cells]
        # float copies drive candidate scoring; acceptance stays exact
        flifts = [
            numpy.array([[float(v) for v in lifts[pid]] for pid in cell]) for cell in cells
        ]
        accepted = None
        best_score = None
        best_imbalance = None
        # stop early once no cell's larger open side exceeds half (rounded up)
        target = max(Fraction(-(-len(cell) // 2), len(cell)) for cell in cells)
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
            wf = numpy.array([float(c) for c in w])
            fvals = [numpy.sort(a @ wf) for a in flifts]
            approx = _float_best_threshold(fvals, limits)
            if approx is None:
                worst = min(
                    Fraction(max(len(v) // 2, len(v) - len(v) // 2), len(v)) for v in fvals
                )
                if best_imbalance is None or worst < best_imbalance:
                    best_imbalance = worst
                continue
            fscore, ftheta = approx
            if best_score is not None and fscore >= float(best_score):
                continue
            # exact re-check of the promising candidate before accepting it
            cell_values = [
                sorted(sum(wc * lc for wc, lc in zip(w, lifts[pid])) for pid in cell)
                for cell in cells
            ]
            score = _verify_threshold(cell_values, limits, Fraction(ftheta))
            if score is None:
                found = _best_threshold(cell_values, limits)
                if found is None:
                    continue
                score, theta = found
            else:
                theta = Fraction(ftheta)
            if best_score is None or score < best_score:
                best_score = score
                accepted = (w, theta)
            if score <= target:
                break
        if accepted is None:
            raise BudgetExhausted(
                f"round {round_index}: no (1+{delta})-bisection found in {budget} candidates",
                best_imbalance=float(best_imbalance) if best_imbalance is not None else None,
            )
        w, theta = accepted
        terms = {mono: coeff for mono, coeff in zip(monomials, w) if coeff != 0}
        terms[(0, 0, 0)] = terms.get((0, 0, 0), Fraction(0)) - theta
        factor = TriPoly(terms)
        factors.append(factor)
        new_cells = []
        for cell in cells:
            neg, pos = [], []
            for pid in cell:
                value = sum(wc * lc for wc, lc in zip(w, lifts[pid]))
                if value < theta:
                    neg.append(pid)
                elif value > theta:
                    pos.append(pid)
                # value == theta: the point is on Z(factor), drop from cells
            for side in (neg, pos):
                if side:
                    new_cells.append(side)
        cells = new_cells
        if not cells and round_index < t:
            raise BudgetExhausted(
                f"round {round_index}: all points absorbed into Z before round {t}"
            )
    return PartitionPolynomial(factors, t, delta, seed)


# ---------------------------------------------------------------------------
# classification and censuses

def classify(p: Point3, part: PartitionPolynomial) -> CellLabel:
    signs = []
    for f in part.round_factors:
        v = f.evaluate(p)
        if v == 0:
            return Z_LABEL
        signs.append("+" if v > 0 else "-")
    return tuple(signs)


def cell_census(points: Sequence[Point3], part: PartitionPolynomial) -> dict[CellLabel, int]:
    census: dict[CellLabel, int] = {}
    for p in points:
        label = classify(p, part)
        census[label] = census.get(label, 0) + 1
    return census


def crossing_census(line: Line, part: PartitionPolynomial) -> int:
    """Distinct open-cell sign vectors met along a line, by exact univariate
    root isolation of each factor restricted to the line."""
    restricted = [
        f.restrict_to_line(line.origin, line.direction) for f in part.round_factors
    ]
    if any(roots.udegree(r) < 0 for r in restricted):
        return 0  # the line lies inside some factor's zero set: always Z
    product = [Fraction(1)]
    for r in restricted:
        product = roots.umul(product, r)
    labels = set()
    for sample in roots.sample_points_between_roots(product):
        signs = []
        on_zero = False
        for r in restricted:
            v = roots.ueval(r, sample)
            if v == 0:
                on_zero = True
                break
            signs.append("+" if v > 0 else "-")
        if not on_zero:
            labels.add(tuple(signs))
    return len(labels)


# ---------------------------------------------------------------------------
# serialization (JSON-ready dicts; exact values as strings)

def partition_to_jsonable(part: PartitionPolynomial) -> dict:
    return {
        "rounds": part.rounds,
        "delta": str(part.delta),
        "seed": part.seed,
        "factors": [io.tripoly_to_record(f) for f in part.round_factors],
    }


def partition_from_jsonable(data: dict) -> PartitionPolynomial:
    return PartitionPolynomial(
        [io.tripoly_from_record(f) for f in data["factors"]],
        int(data["rounds"]), Fraction(data["delta"]), int(data["seed"]),
    )
