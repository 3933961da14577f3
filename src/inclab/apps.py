"""Counting pipelines: distinct and repeated distances, and similar-triangle
census via the circle-locus reduction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import engine, geom
from .errors import DegenerateShape, ValidationError
from .geom import Circle, CircleCurve, Point3, Sphere, canonicalize, dist2, frac


# ---------------------------------------------------------------------------
# distance counters

def distinct_distances(P: Sequence[Point3]) -> int:
    """Distinct squared distances over unordered pairs of P."""
    if len(P) < 2:
        raise ValidationError("need at least two points")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    return len({dist2(p, q) for p, q in itertools.combinations(P, 2)})


def bipartite_distinct_distances(P1: Sequence[Point3], P2: Sequence[Point3]) -> int:
    """Distinct squared distances over P1 x P2."""
    if not P1 or not P2:
        raise ValidationError("both point sets must be nonempty")
    return len({dist2(p, q) for p in P1 for q in P2})


def repeated_distances(P: Sequence[Point3], d2) -> int:
    """Unordered pairs of P at squared distance exactly d2."""
    d2 = frac(d2)
    if d2 <= 0:
        raise ValidationError("d2 must be > 0")
    # integer coordinates: a target that is not an integer is never reached
    coords, den = geom.integer_coords(P)
    target = d2 * den * den
    if target.denominator != 1:
        return 0
    target = int(target)
    count = 0
    for i in range(len(coords)):
        xi, yi, zi = coords[i]
        for j in range(i + 1, len(coords)):
            dx = xi - coords[j][0]
            dy = yi - coords[j][1]
            dz = zi - coords[j][2]
            if dx * dx + dy * dy + dz * dz == target:
                count += 1
    return count


# ---------------------------------------------------------------------------
# similar triangles

@dataclass(frozen=True)
class TriangleShape:
    """Squared side ratios (|ac|/|ab|)^2 and (|bc|/|ab|)^2 of a reference
    triangle abc; (1, rho1, rho2) must form a genuine triangle."""

    rho1: Fraction
    rho2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rho1", frac(self.rho1))
        object.__setattr__(self, "rho2", frac(self.rho2))
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise DegenerateShape("squared side ratios must be positive")
        a, b, c = Fraction(1), self.rho1, self.rho2
        # strict Cayley-Menger positivity for squared sides (a, b, c)
        if 2 * (a * b + b * c + c * a) - a * a - b * b - c * c <= 0:
            raise DegenerateShape("squared sides (1, rho1, rho2) admit no triangle")


@dataclass
class TriangleCensus:
    count_bruteforce: int
    circles: list[tuple[Circle, int]]
    incidences: int
    cospherical_coplanar_max: int
    flags: list[str] = field(default_factory=list)


def shape_from_points(a: Point3, b: Point3, c: Point3) -> TriangleShape:
    ab = dist2(a, b)
    if ab == 0:
        raise DegenerateShape("coincident base points")
    return TriangleShape(dist2(a, c) / ab, dist2(b, c) / ab)


def _matches_shape(d_ab: Fraction, d_ac: Fraction, d_bc: Fraction, shape) -> bool:
    # (d_ab, d_ac, d_bc) proportional to (1, rho1, rho2), division-free
    p1, q1 = shape.rho1.numerator, shape.rho1.denominator
    p2, q2 = shape.rho2.numerator, shape.rho2.denominator
    return d_ac * q1 == d_ab * p1 and d_bc * q2 == d_ab * p2


def _collinear(p: Point3, q: Point3, r: Point3) -> bool:
    return geom.is_zero_vec(
        geom.cross(geom.vsub(q.as_tuple(), p.as_tuple()), geom.vsub(r.as_tuple(), p.as_tuple()))
    )


def similar_triangles_bruteforce(P: Sequence[Point3], shape: TriangleShape) -> int:
    """Unordered triples of P similar to the shape under some vertex
    correspondence; mirror images count, collinear triples never do."""
    if len(P) < 3:
        raise ValidationError("need at least three points")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    count = 0
    for p, q, r in itertools.combinations(P, 3):
        if _collinear(p, q, r):
            continue
        d_pq, d_pr, d_qr = dist2(p, q), dist2(p, r), dist2(q, r)
        assignments = (
            (d_pq, d_pr, d_qr),
            (d_pq, d_qr, d_pr),
            (d_pr, d_pq, d_qr),
            (d_pr, d_qr, d_pq),
            (d_qr, d_pq, d_pr),
            (d_qr, d_pr, d_pq),
        )
        if any(_matches_shape(*a, shape) for a in assignments):
            count += 1
    return count


def pair_locus(p: Point3, q: Point3, shape: TriangleShape):
    """Locus of apexes c with triangle p, q, c realizing the shape as abc:
    the intersection of Sphere(p, rho1 d2) and Sphere(q, rho2 d2)."""
    d2 = dist2(p, q)
    if d2 == 0:
        raise ValidationError("coincident pair")
    return geom.surface_pair_intersection(
        Sphere(p, shape.rho1 * d2), Sphere(q, shape.rho2 * d2)
    )


def triangle_circles(
    P: Sequence[Point3], shape: TriangleShape
) -> list[tuple[Circle, int]]:
    """Apex-locus circles over all ordered pairs of P, deduplicated, each
    with the number of ordered pairs producing it."""
    if len(P) < 2:
        raise ValidationError("need at least two points")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    mult: dict[Circle, int] = {}
    for p, q in itertools.permutations(P, 2):
        locus = pair_locus(p, q, shape)
        if isinstance(locus, CircleCurve):
            gamma = canonicalize(locus.circle)
            mult[gamma] = mult.get(gamma, 0) + 1
    return sorted(mult.items(), key=lambda item: repr(item[0]))


def similar_triangles_via_incidences(
    P: Sequence[Point3], shape: TriangleShape
) -> TriangleCensus:
    """Full census: circles with multiplicities, I(P, circles), brute-force
    count, and the coplanar/cospherical maximum; the paper-shaped
    inequalities are recorded as flags rather than hard failures."""
    circles = triangle_circles(P, shape)
    curve_list = [c for c, _ in circles]
    incidences, _ = engine.count_incidences(P, curve_list)
    brute = similar_triangles_bruteforce(P, shape)
    if curve_list:
        q_max, _ = engine.coplanar_cospherical_max(curve_list)
    else:
        q_max = 0
    flags = []
    if any(m > 2 for _, m in circles):
        flags.append("ordered-pair multiplicity exceeds 2")
    if 3 * brute > 2 * incidences:
        flags.append("triangle count exceeds two thirds of the incidence count")
    if q_max > 2 * len(P):
        flags.append("coplanar/cospherical circle count exceeds 2n")
    return TriangleCensus(brute, circles, incidences, q_max, flags)
