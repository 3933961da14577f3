"""Bound-formula evaluation, bound-vs-count reports, and log-log fits.

Every formula is evaluated with all implied constants set to 1, so values
describe shapes, not absolute bounds; the counts they are compared against
stay exact integers.  Each catalogue entry carries its sense: an upper
bound on a count, a lower bound (the distinct-distance counts `dd_variety`
and `dd_bipartite`), or none (the degree schedule `degree_plan`, which
`verify_instance` refuses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import partition
from .errors import InsufficientData, MissingParam, OutOfRange, ValidationError

DEFAULT_EPSILON = 0.01
FLAG_THRESHOLD = 10.0


@dataclass(frozen=True)
class BoundFormula:
    name: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


@dataclass
class BoundReport:
    formula: str
    sense: str  # UPPER or LOWER
    observed: int
    bound_value: float
    ratio: float
    flag: bool


def _clamped_log(x: float) -> float:
    # asymptotic log factors never help below their crossover; clamp at 1
    return max(1.0, math.log(x)) if x > 0 else 1.0


def _pw(x: float, num: int, den: int = 1) -> float:
    """x ** (num/den), exact when x is a perfect power: integer bases whose
    rational power is an integer evaluate without float drift.  The exact
    path is taken only while x ** num still fits in a float."""
    if num == 0:
        return 1.0
    if x > 0 and x == int(x) and num > 0 and num * math.log2(x) < 1023:
        target = int(x) ** num
        root = round(target ** (1.0 / den))
        for r in (root - 1, root, root + 1):
            if r >= 0 and r**den == target:
                return float(r)
    return x ** (num / den)


def _eps(params) -> float:
    eps = float(params.get("epsilon", DEFAULT_EPSILON))
    if eps <= 0:
        raise OutOfRange("epsilon must be > 0")
    return eps


# ---------------------------------------------------------------------------
# the catalogue: name -> (sense, parameter readers in reading order, evaluator)

UPPER, LOWER = "upper", "lower"


def _param(name, *, integer=False, minimum=1):
    """Reader of one required parameter, checked against its minimum."""
    def read(params):
        if name not in params:
            raise MissingParam(f"formula needs parameter {name!r}")
        v = params[name]
        if integer:
            if v != int(v):
                raise OutOfRange(f"parameter {name}={v} must be an integer")
            v = int(v)
        else:
            v = float(v)
        if v < minimum:
            raise OutOfRange(f"parameter {name}={v} below minimum {minimum}")
        return v
    return read


def _constant(name):
    return lambda p: Fraction(p.get(name, 1))


_M, _N, _Q, _R = _param("m"), _param("n"), _param("q"), _param("r", minimum=2)
_K = _param("k", integer=True, minimum=2)
_S = _param("s", integer=True, minimum=2)


def _k_dof_planar(m, n, k):
    # curves with k degrees of freedom in the plane (Pach-Sharir)
    return _pw(m, k, 2 * k - 1) * _pw(n, 2 * k - 2, 2 * k - 1) + m + n


def _s_param_planar(m, n, s, e):
    # s-parameter families of algebraic curves in the plane (Sharir-Zahl)
    return (
        m ** (2 * s / (5 * s - 4)) * n ** ((5 * s - 6) / (5 * s - 4) + e)
        + _pw(m, 2, 3) * _pw(n, 2, 3) + m + n
    )


def _spheres_6_11(m, n, e):
    return _pw(m, 6, 11) * n ** (9 / 11 + e) + _pw(m, 2, 3) * _pw(n, 2, 3) + m + n


def _degree_plan(m, n, k, a, a_prime, c):
    return float(partition.plan_degree(int(m), int(n), k, a=a, a_prime=a_prime, c=c).D)


_FORMULAS = {
    "PS_planar": (UPPER, (_M, _N, _K), _k_dof_planar),
    "SZ_planar": (UPPER, (_M, _N, _S, _eps), _s_param_planar),
    "circles_planar": (UPPER, (_M, _N), lambda m, n: (
        _pw(m, 2, 3) * _pw(n, 2, 3)
        + _pw(m, 6, 11) * _pw(n, 9, 11) * _clamped_log(m**3 / n) ** (2 / 11)
        + m + n
    )),
    "curves3d_main": (UPPER, (_M, _N, _Q, _K), lambda m, n, q, k: (
        _pw(m, k, 3 * k - 2) * _pw(n, 3 * k - 3, 3 * k - 2)
        + _pw(m, k, 2 * k - 1) * _pw(n, k - 1, 2 * k - 1) * _pw(q, k - 1, 2 * k - 1)
        + m + n
    )),
    "curves3d_improved": (UPPER, (_M, _N, _Q, _K, _S, _eps), lambda m, n, q, k, s, e: (
        _pw(m, k, 3 * k - 2) * _pw(n, 3 * k - 3, 3 * k - 2)
        + _pw(m, 2, 3) * _pw(n, 1, 3) * _pw(q, 1, 3)
        + m ** (2 * s / (5 * s - 4)) * n ** ((3 * s - 4) / (5 * s - 4))
        * q ** ((2 * s - 2) / (5 * s - 4) + e)
        + m + n
    )),
    "circles3d": (UPPER, (_M, _N, _Q), lambda m, n, q: (
        _pw(m, 3, 7) * _pw(n, 6, 7)
        + _pw(m, 2, 3) * _pw(n, 1, 3) * _pw(q, 1, 3)
        + _pw(m, 6, 11) * _pw(n, 5, 11) * _pw(q, 4, 11)
        * _clamped_log(m**3 / q) ** (2 / 11)
        + m + n
    )),
    "KST_naive": (UPPER, (_M, _N, _K), lambda m, n, k: m * _pw(n, k - 1, k) + n),
    "lines_GK": (UPPER, (_M, _N, _Q), lambda m, n, q: (
        _pw(m, 1, 2) * _pw(n, 3, 4)
        + _pw(m, 2, 3) * _pw(n, 1, 3) * _pw(q, 1, 3)
        + m + n
    )),
    "variety_k": (UPPER, (_M, _N, _K), _k_dof_planar),
    "variety_s": (UPPER, (_M, _N, _S, _eps), _s_param_planar),
    "mixed_k": (UPPER, (_M, _N, _K), _k_dof_planar),
    "mixed_s": (UPPER, (_M, _N, _S, _eps), _s_param_planar),
    "spheres_variety": (UPPER, (_M, _N, _eps), lambda m, n, e: (
        _pw(m, 1, 2) * n ** (7 / 8 + e) + _pw(m, 2, 3) * _pw(n, 2, 3) + m + n
    )),
    "spheres_3dim": (UPPER, (_M, _N, _eps), _spheres_6_11),
    "spheres_2dim": (UPPER, (_M, _N), lambda m, n: _pw(m, 2, 3) * _pw(n, 2, 3) + m + n),
    "dd_variety": (LOWER, (_param("n", minimum=2), _eps), lambda n, e: n ** (7 / 9 - e)),
    "dd_bipartite": (LOWER, (_M, _N, _eps), lambda m, n, e: min(
        m ** (4 / 7 - e) * n ** (1 / 7 - e), _pw(m, 1, 2) * _pw(n, 1, 2), m
    )),
    "unit_variety": (UPPER, (_N,), lambda n: _pw(n, 4, 3)),
    "unit_bipartite": (UPPER, (_M, _N, _eps), _spheres_6_11),
    "general_surfaces": (UPPER, (_M, _N, _S, _eps), lambda m, n, s, e: (
        m ** (2 * s / (3 * s - 1)) * n ** ((3 * s - 3) / (3 * s - 1) + e) + m + n
    )),
    "rich_points_a": (UPPER, (_N, _Q, _R, _K), lambda n, q, r, k: (
        _pw(n, 3, 2) / _pw(r, 3 * k - 2, 2 * k - 2)
        + n * q / _pw(r, 2 * k - 1, k - 1)
        + n / r
    )),
    "rich_points_b": (UPPER, (_N, _Q, _R, _K, _S, _eps), lambda n, q, r, k, s, e: (
        _pw(n, 3, 2) / _pw(r, 3 * k - 2, 2 * k - 2)
        + n * q ** ((2 * s - 2) / (3 * s - 4) + e) / r ** ((5 * s - 4) / (3 * s - 4))
        + n / r
    )),
    "similar_triangles": (UPPER, (_N,), lambda n: _pw(n, 15, 7)),
    # a degree schedule, not a count bound: it has no sense to verify against
    "degree_plan": (None, (
        _M, _N, _K, _constant("a"), _constant("a_prime"), _constant("c")
    ), _degree_plan),
}

FORMULA_NAMES = tuple(_FORMULAS)


def _formula(name: str) -> tuple:
    """The (sense, readers, evaluator) row of a formula name."""
    if name not in _FORMULAS:
        raise ValidationError(f"unknown bound formula {name!r}")
    return _FORMULAS[name]


def eval_bound(f: BoundFormula) -> float:
    """Numeric value of the named bound formula with unit constants."""
    _, readers, evaluator = _formula(f.name)
    try:
        value = evaluator(*(read(f.params) for read in readers))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OutOfRange(f"{f.name} overflows a float at these parameters")
    return value


def verify_instance(observed: int, f: BoundFormula) -> BoundReport:
    """Ratio report of an exact count against a bound shape; a raised flag
    is a finding to inspect, not a failure, since constants are unknown.

    An upper bound flags ratio > FLAG_THRESHOLD, a lower bound (the
    distinct distance counts) ratio < 1 / FLAG_THRESHOLD; a formula with
    no sense, the degree schedule, raises `ValidationError`."""
    if observed < 0:
        raise ValidationError("observed count must be >= 0")
    sense = _formula(f.name)[0]
    if sense is None:
        raise ValidationError(f"{f.name} is not a count bound; nothing to verify")
    value = eval_bound(f)
    ratio = observed / value if value > 0 else float("inf")
    flag = ratio < 1 / FLAG_THRESHOLD if sense == LOWER else ratio > FLAG_THRESHOLD
    return BoundReport(f.name, sense, observed, value, ratio, flag)


def fit_exponent(series: Sequence[tuple[int, int]]) -> tuple[float, float, float]:
    """Least-squares line through (log scale, log observed); the slope
    estimates the growth exponent, residual is the max absolute deviation."""
    if len(series) < 3:
        raise InsufficientData("need at least 3 series points")
    scales = [s for s, _ in series]
    if any(s <= 0 for s in scales):
        raise ValidationError("scales must be positive")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValidationError("scales must be strictly increasing")
    if any(obs <= 0 for _, obs in series):
        raise ValidationError("observed values must be positive")
    xs = [math.log(s) for s, _ in series]
    ys = [math.log(o) for _, o in series]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return slope, intercept, residual
