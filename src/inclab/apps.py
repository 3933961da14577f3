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
census clears P of denominators once, keys each circle by integers and
gives it the integer frame row (n, C, W) of `engine._circle_frame`, with
one scale L for the whole shape (`_apex_circles`).  The incidences are
computed on that frame (`engine._centred_edges`); a circle whose W / L is
not an integer holds no point and is skipped.  The coplanar/cospherical
maximum is read off the circles' axes, the lines through two points of P,
which cross only at few candidate centres (`_apex_cospherical_max`);
`engine._cospherical_max`, over every circle pair, is its reference.  The
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

    `pairs` maps a circle's key (C, n, |Q - P|^2) to the ordered index
    pairs (i, j) producing it; the circle has centre C / den, normal n and
    squared radius w |Q - P|^2 / (L den^2).  `points` is P in the frame and
    L is its `scale`."""

    pairs: dict[tuple, list[tuple[int, int]]]
    points: list[tuple[int, int, int]]
    w: int
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
    by C, n and |Q - P|^2."""
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
    width = b * td * td - a * tn * tn
    g = math.gcd(width, a)
    w, scale = width // g, a // g
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
            d2 = dx * dx + dy * dy + dz * dz
            centre = (td * px + tn * dx, td * py + tn * dy, td * pz + tn * dz)
            pairs.setdefault((centre, normal, d2), []).append((i, j))
            centre = (td * qx - tn * dx, td * qy - tn * dy, td * qz - tn * dz)
            pairs.setdefault((centre, normal, d2), []).append((j, i))
    return _ApexTable(
        pairs,
        [(td * x, td * y, td * z) for x, y, z in coords],
        w,
        scale,
        td * den,
    )


def _apex_cospherical_max(apex: _ApexTable) -> int:
    """The largest number of apex circles in one plane or on one sphere:
    the count of `engine._cospherical_max` on the apex frame, without
    testing every pair of circles.

    The axis of a circle, the line through its centre along its normal, is
    the line through the two points of each ordered pair producing it.  So
    the circles are grouped by axis, keyed by (n, n x C), and the points of
    P on an axis are the producers of its circles, since every pair of
    points gives a circle.  A sphere's centre lies on the axis of every
    circle on it, so a sphere holding circles on two distinct axes is
    centred where those axes cross.  The candidate centres of an axis are:

    - its points of P, as (x, y, z, 1);
    - its crossing with every other axis that shares no point of P with
      it, is coplanar with it (reciprocal product n_A . m_B + n_B . m_A = 0
      for moments m = n x C) and is not parallel to it.  Two axes through
      a common point of P cross there, which is a candidate already.

    A circle (n, C, W) and a candidate O = (X, Y, Z) / q on its axis, with
    gcd(X, Y, Z, q) = 1 and q > 0, name one sphere, keyed as `_sphere_key`
    keys it: (X, Y, Z, q, q^2 W + L |(X, Y, Z) - q C|^2).  A sphere holding
    circles on two distinct axes has its centre among the candidates of
    each of them, and an axis lists each candidate once, so its key is
    counted exactly once per circle on it.  A sphere whose circles all
    share one axis may be centred off every candidate; `_sphere_key` on
    the pairs within each axis finds it, and a sphere named by h of them
    holds c circles with h = C(c, 2), as in `_cospherical_max`.  Planes are
    bucketed by (n, n . C).  Every sphere with two or more circles is found
    with its full count by one of the two ways, so the largest count of
    the three is the all-pairs answer.
    """
    scale = apex.scale
    planes: dict[tuple, int] = {}
    # axis (n, n x C) -> (frame rows (n, C, W) on it, ids of its points)
    axes: dict[tuple, tuple[list, set]] = {}
    for (centre, n, d2), ij in apex.pairs.items():
        cx, cy, cz = centre
        nx, ny, nz = n
        plane = (n, nx * cx + ny * cy + nz * cz)
        planes[plane] = planes.get(plane, 0) + 1
        axis = (n, (ny * cz - nz * cy, nz * cx - nx * cz, nx * cy - ny * cx))
        rows, on_axis = axes.setdefault(axis, ([], set()))
        rows.append((n, centre, apex.w * d2))
        on_axis.update(*ij)
    # (n, m, bitmask of its points, a point C on it) per axis
    groups = [
        (*n, *m, sum(1 << k for k in on_axis), rows[0][1])
        for (n, m), (rows, on_axis) in axes.items()
    ]
    candidates = [{(*apex.points[k], 1) for k in on_axis} for _, on_axis in axes.values()]
    for a, (nx, ny, nz, mx, my, mz, mask, (cx, cy, cz)) in enumerate(groups):
        for b in range(a + 1, len(groups)):
            ux, uy, uz, vx, vy, vz, other, (ex, ey, ez) = groups[b]
            if mask & other or nx * vx + ny * vy + nz * vz + ux * mx + uy * my + uz * mz:
                continue  # crossing at a shared point of P, or skew
            kx, ky, kz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
            if not (kx or ky or kz):
                continue  # parallel
            # the crossing C_a + (p / q) n_a, as in `engine._sphere_key`
            dx, dy, dz = ex - cx, ey - cy, ez - cz
            p = (dy * uz - dz * uy) * kx + (dz * ux - dx * uz) * ky + (dx * uy - dy * ux) * kz
            q = kx * kx + ky * ky + kz * kz
            ox, oy, oz = q * cx + p * nx, q * cy + p * ny, q * cz + p * nz
            g = math.gcd(ox, oy, oz, q)
            crossing = (ox // g, oy // g, oz // g, q // g)
            candidates[a].add(crossing)
            candidates[b].add(crossing)
    counts: dict[tuple, int] = {}
    for (rows, _), centres in zip(axes.values(), candidates):
        for _, (cx, cy, cz), w in rows:
            for ox, oy, oz, q in centres:
                dx, dy, dz = ox - q * cx, oy - q * cy, oz - q * cz
                key = (ox, oy, oz, q, q * q * w + scale * (dx * dx + dy * dy + dz * dz))
                counts[key] = counts.get(key, 0) + 1
    best = max(max(planes.values()), max(counts.values()))
    for rows, _ in axes.values():
        # two distinct circles determine at most one common sphere, so a
        # sphere holding c circles of this axis is named by C(c, 2) pairs;
        # an axis with no more circles than the best count cannot beat it
        if len(rows) > best:
            hits: dict[tuple, int] = {}
            for i, ri in enumerate(rows):
                for rj in rows[i + 1:]:
                    key = engine._sphere_key(ri, rj, scale)
                    if key is not None:
                        hits[key] = hits.get(key, 0) + 1
            if hits:
                best = max(best, (1 + math.isqrt(1 + 8 * max(hits.values()))) // 2)
    return best


def triangle_circles(
    P: Sequence[Point3], shape: TriangleShape
) -> list[tuple[Circle, int]]:
    """Apex-locus circles over all ordered pairs of P, deduplicated, each
    with the number of ordered pairs producing it, sorted by repr."""
    apex = _apex_circles(P, shape)
    den = apex.den
    radius_factor = Fraction(apex.w, apex.scale * den * den)
    circles = [
        (
            Circle(
                Point3(Fraction(cx, den), Fraction(cy, den), Fraction(cz, den)),
                normal,
                radius_factor * d2,
            ),
            len(ij),
        )
        for ((cx, cy, cz), normal, d2), ij in apex.pairs.items()
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
    for cid, (centre, normal, d2) in enumerate(apex.pairs):
        w = apex.w * d2
        if w % apex.scale == 0:
            centred.setdefault(centre, {}).setdefault(w // apex.scale, []).append((normal, cid))
    edges = engine._centred_edges(apex.points, centred)
    incidences = len(edges)
    # r on the circle of (i, j) makes {i, j, r} similar to the shape; r is
    # neither i nor j, since |ir|^2 = rho1 |ij|^2 > 0
    count = len({frozenset((i, j, r)) for r, cid in edges for i, j in producers[cid]})
    q_max = _apex_cospherical_max(apex)
    multiplicities = [len(ij) for ij in producers]
    flags = []
    if max(multiplicities) > 2:
        flags.append("ordered-pair multiplicity exceeds 2")
    if 3 * count > 2 * incidences:
        flags.append("triangle count exceeds two thirds of the incidence count")
    if q_max > 2 * len(P):
        flags.append("coplanar/cospherical circle count exceeds 2n")
    return TriangleCensus(count, multiplicities, incidences, q_max, flags)
