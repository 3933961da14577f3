"""Counting pipelines: distinct and repeated distances, and similar-triangle
census via the circle-locus reduction.

A triangle pqr is similar to the shape abc, with p, q, r in the roles of
a, b, c, when |pr|^2 = rho1 |pq|^2 and |qr|^2 = rho2 |pq|^2.  So the apexes r
of the ordered pair (p, q) lie on Sphere(p, rho1 |pq|^2) and
Sphere(q, rho2 |pq|^2), whose intersection has a closed form.  With
t = (1 + rho1 - rho2) / 2, a constant of the shape, it is the circle with

- centre p + t (q - p),
- normal q - p,
- squared radius (rho1 - t^2) |q - p|^2.

rho1 - t^2 is a quarter of the Cayley-Menger value that `TriangleShape`
checks to be > 0, so every pair of distinct points gives a circle.  The
census clears P of denominators once and keys each circle by its integer
frame row (n, C, W) of `engine._circle_frame`, with one scale L for the
whole shape (`_apex_circles`).  The incidences are computed on that frame
(`engine._centred_edges`); a circle whose W / L is not an integer holds no
point and is skipped.  The coplanar/cospherical maximum q comes from the
engine's one kernel, `engine._cospherical_max`, with the points producing
each circle as the known points of its axis, the line through them.  The
circle count and the multiplicities are read off the same integer table,
and the census builds no `Circle`; `triangle_circles` lists the circles.
Each incidence (r, circle of (p, q)) gives the triangle {p, q, r}, so the
triangles are counted from the incidences, not by a search over all
triples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import engine, geom
from .errors import DegenerateShape, ValidationError
from .geom import Circle, Point3, dist2, frac


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
    """Distinct squared distances over disjoint P1 x P2."""
    if not P1 or not P2:
        raise ValidationError("both point sets must be nonempty")
    if not set(P1).isdisjoint(P2):
        raise ValidationError("P1 and P2 must be disjoint")
    return len({dist2(p, q) for p in P1 for q in P2})


def repeated_distances(P: Sequence[Point3], d2) -> int:
    """Unordered pairs of the distinct points P at squared distance exactly d2."""
    d2 = frac(d2)
    if d2 <= 0:
        raise ValidationError("d2 must be > 0")
    coords, den = geom.integer_coords(P)
    if len(set(coords)) != len(coords):
        raise ValidationError("points must be distinct")
    # integer coordinates: a target that is not an integer is never reached
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
        rho1, rho2 = frac(self.rho1), frac(self.rho2)
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)
        a, b, c = _squared_sides(rho1, rho2)
        if b <= 0 or c <= 0:
            raise DegenerateShape("squared side ratios must be positive")
        # strict Cayley-Menger positivity for squared sides (a, b, c)
        if 2 * (a * b + b * c + c * a) - a * a - b * b - c * c <= 0:
            raise DegenerateShape("squared sides (1, rho1, rho2) admit no triangle")


def _squared_sides(rho1: Fraction, rho2: Fraction) -> tuple[int, int, int]:
    """The squared sides (1, rho1, rho2) times q1 q2, for rho1 = p1 / q1 and
    rho2 = p2 / q2: (q1 q2, p1 q2, p2 q1)."""
    p1, q1 = rho1.numerator, rho1.denominator
    p2, q2 = rho2.numerator, rho2.denominator
    return q1 * q2, p1 * q2, p2 * q1


@dataclass
class TriangleCensus:
    """`count_bruteforce` is the number of similar triangles.  It is counted
    from the incidences and equals `similar_triangles_bruteforce`; the name
    is the CLI output key.  `multiplicities` holds one entry per apex
    circle, the number of ordered pairs producing it, in no set order;
    `triangle_circles` lists the circles themselves."""

    count_bruteforce: int
    multiplicities: list[int]
    incidences: int
    cospherical_coplanar_max: int
    flags: list[str]


def shape_from_points(a: Point3, b: Point3, c: Point3) -> TriangleShape:
    ab = dist2(a, b)
    if ab == 0:
        raise DegenerateShape("coincident base points")
    return TriangleShape(dist2(a, c) / ab, dist2(b, c) / ab)


def similar_triangles_bruteforce(P: Sequence[Point3], shape: TriangleShape) -> int:
    """Unordered triples of P similar to the shape under some vertex
    correspondence; mirror images count, collinear triples never do.

    The reference count: every triple is tested against all six vertex
    orders, on one table of integer squared distances."""
    if len(P) < 3:
        raise ValidationError("need at least three points")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    coords, _ = geom.integer_coords(P)
    d2 = [
        [(x - u) ** 2 + (y - v) ** 2 + (z - w) ** 2 for u, v, w in coords]
        for x, y, z in coords
    ]
    p1, q1 = shape.rho1.numerator, shape.rho1.denominator
    p2, q2 = shape.rho2.numerator, shape.rho2.denominator
    count = 0
    for i, j, k in itertools.combinations(range(len(coords)), 3):
        d_ij, d_ik, d_jk = d2[i][j], d2[i][k], d2[j][k]
        # (ab, ac, bc) proportional to (1, rho1, rho2), division-free
        if not any(
            ac * q1 == ab * p1 and bc * q2 == ab * p2
            for ab, ac, bc in (
                (d_ij, d_ik, d_jk), (d_ij, d_jk, d_ik), (d_ik, d_ij, d_jk),
                (d_ik, d_jk, d_ij), (d_jk, d_ij, d_ik), (d_jk, d_ik, d_ij),
            )
        ):
            continue
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = coords[i], coords[j], coords[k]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        if uy * vz == uz * vy and uz * vx == ux * vz and ux * vy == uy * vx:
            continue  # collinear
        count += 1
    return count


class _ApexTable(NamedTuple):
    """The apex circles of all ordered pairs of P in one integer frame.

    `pairs` maps a circle's frame row (n, C, W) to the ordered index pairs
    (i, j) producing it; the circle has normal n, centre C / den and
    squared radius W / (L den^2).  `points` is P in the frame and L is its
    `scale`.  The producers of a circle lie on its axis, so `pairs` is the
    input of `engine._cospherical_max` as it stands."""

    pairs: dict[tuple, list[tuple[int, int]]]
    points: list[tuple[int, int, int]]
    scale: int
    den: int


def _apex_circles(P: Sequence[Point3], shape: TriangleShape) -> _ApexTable:
    """Apex circles over all ordered pairs of P in one integer frame.

    For integer points P, Q over the common denominator den, t = tn / td
    and den' = td den, the circle of (P, Q) has centre C / den' with
    C = td P + tn (Q - P), the primitive form n of Q - P as normal (the
    same for (Q, P), so it is computed once per unordered pair), and
    squared radius (rho1 - t^2) |Q - P|^2 / den^2.  With
    (rho1 - t^2) td^2 = w / L in lowest terms, W = w |Q - P|^2, so
    W / L = den'^2 r^2, as in `engine._circle_frame`.  The points are lifted
    to the frame as td P, so a point's squared distance to C is an integer,
    and a circle whose W / L is not one holds no point.  A circle is keyed
    by its frame row (n, C, W)."""
    if len(P) < 2:
        raise ValidationError("need at least two points")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    coords, den = geom.integer_coords(P)
    # with squared sides (a, b, c), t = (a + b - c) / 2a and
    # (rho1 - t^2) td^2 = (b td^2 - a tn^2) / a, both in lowest terms
    a, b, c = _squared_sides(shape.rho1, shape.rho2)
    g = math.gcd(a + b - c, 2 * a)
    tn, td = (a + b - c) // g, 2 * a // g
    num = b * td * td - a * tn * tn
    g = math.gcd(num, a)
    w, scale = num // g, a // g
    pairs: dict[tuple, list[tuple[int, int]]] = {}
    for i, (px, py, pz) in enumerate(coords):
        for j in range(i + 1, len(coords)):
            qx, qy, qz = coords[j]
            dx, dy, dz = qx - px, qy - py, qz - pz
            # primitive form, first nonzero entry positive; P != Q, so g != 0
            g = math.gcd(dx, dy, dz)
            if dx < 0 or not dx and (dy < 0 or not dy and dz < 0):
                g = -g
            normal = (dx // g, dy // g, dz // g)
            width = w * (dx * dx + dy * dy + dz * dz)
            centre = (td * px + tn * dx, td * py + tn * dy, td * pz + tn * dz)
            pairs.setdefault((normal, centre, width), []).append((i, j))
            centre = (td * qx - tn * dx, td * qy - tn * dy, td * qz - tn * dz)
            pairs.setdefault((normal, centre, width), []).append((j, i))
    return _ApexTable(pairs, [(td * x, td * y, td * z) for x, y, z in coords], scale, td * den)


def triangle_circles(
    P: Sequence[Point3], shape: TriangleShape
) -> list[tuple[Circle, int]]:
    """Apex-locus circles over all ordered pairs of P, deduplicated, each
    with the number of ordered pairs producing it, sorted by repr."""
    apex = _apex_circles(P, shape)
    den = apex.den
    circles = [
        (
            Circle(
                Point3(Fraction(cx, den), Fraction(cy, den), Fraction(cz, den)),
                normal,
                Fraction(w, apex.scale * den * den),
            ),
            len(ij),
        )
        for (normal, (cx, cy, cz), w), ij in apex.pairs.items()
    ]
    circles.sort(key=lambda item: repr(item[0]))
    return circles


def similar_triangles_via_incidences(
    P: Sequence[Point3], shape: TriangleShape
) -> TriangleCensus:
    """Full census: circle multiplicities, I(P, circles), the triangle count
    read off the incidences, and the coplanar/cospherical maximum; the
    paper-shaped inequalities are recorded as flags rather than hard
    failures."""
    if len(P) < 3:
        raise ValidationError("need at least three points")
    apex = _apex_circles(P, shape)
    producers = list(apex.pairs.values())
    # centre -> W / L -> [(normal, circle id)]; a circle whose W / L is not
    # an integer holds no point of the frame and is not stored
    centred: dict[tuple, dict[int, list]] = {}
    for cid, (normal, centre, w) in enumerate(apex.pairs):
        if w % apex.scale == 0:
            centred.setdefault(centre, {}).setdefault(w // apex.scale, []).append((normal, cid))
    edges = engine._centred_edges(apex.points, centred)
    incidences = len(edges)
    # r on the circle of (i, j) makes {i, j, r} similar to the shape; r is
    # neither i nor j, since |ir|^2 = rho1 |ij|^2 > 0
    count = len({frozenset((i, j, r)) for r, cid in edges for i, j in producers[cid]})
    q_max = engine._cospherical_max(apex.pairs, apex.points, apex.scale)[0]
    multiplicities = [len(ij) for ij in producers]
    flags = []
    if max(multiplicities) > 2:
        flags.append("ordered-pair multiplicity exceeds 2")
    if 3 * count > 2 * incidences:
        flags.append("triangle count exceeds two thirds of the incidence count")
    if q_max > 2 * len(P):
        flags.append("coplanar/cospherical circle count exceeds 2n")
    return TriangleCensus(count, multiplicities, incidences, q_max, flags)
