"""Slow, obviously correct references for the incidence engine and the
partitioner.

The `Fraction` predicates and surface meets come first: `point_on_surface`,
`point_on_curve`, `surface_contains_curve`, and `plane_plane`,
`plane_sphere` and `sphere_sphere` behind `surface_pair_intersection`.
They are the references of the `geom` functions, which decide on the
objects' integer forms (`_plane_plane`, `_plane_sphere` and
`_sphere_sphere` there), and every reference below that tests
a point on an object or meets two surfaces (`_incident`, `decompose`,
`pair_locus`, `line_circle`, `circle_circle`) calls them, not `geom`.

The rest are the all-pairs `Fraction` loops that `engine.count_incidences` and
`engine.decompose` used before the integer, shape-indexed core, the
object-combination loop of `engine.contains_krs`, and the
`Fraction` `common_sphere` and `coplanar_cospherical_max` from before the
integer common-sphere kernel; the differential tests in `test_engine.py`
compare the engine against them.  The `Fraction` Sturm root isolation, the
`Fraction` cell and crossing censuses and the per-cell bisect threshold scan
are the references of `roots`, `partition.cell_census`,
`partition.crossing_census` and `partition._best_threshold`.  The
`Fraction` all-pairs repeated-distance count, the similar-triangle brute
force and the apex circles found through `surface_pair_intersection`
are the references of `apps.repeated_distances`,
`apps.similar_triangles_bruteforce`, `apps.triangle_circles` and the census
count.  The parsers that send every string through `Fraction(s.strip())`
are the references of `io.parse_rational`, `io.points_from_csv` and
`io.objects_from_json`; the writers through `Fraction(x)`, `csv.writer` and
`json.dumps` are the references of `io.format_rational`,
`io.points_to_csv` and `io.objects_to_json`, and the `Fraction` distance
loop is the reference of `construct.gen_distance_spheres`.  The
two-branch circle-circle intersection, one branch for circles in distinct
planes and one for circles in a shared plane, and the three-branch
line-circle intersection, for a line crossing the circle's plane, parallel
to it or in it, and the line-line meet at o1 + s d1 are the references of
`geom.curve_pair_intersection` on circle, line-circle and line pairs; the
oracle's `curve_pair_intersection` tests coincidence in `Fraction`s and
dispatches to them.  The projection through a full rational matrix inverse
is the reference of `engine.project_generic`.
"""

from __future__ import annotations

import bisect
import csv
import io as _pyio
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from inclab import geom
from inclab.apps import TriangleShape
from inclab.engine import BipartiteDecomposition, PlanarInstance, planar_incident
from inclab.errors import (
    CoincidentObjects,
    GenericityFailure,
    UnsupportedObject,
    ValidationError,
)
from inclab.geom import (
    Circle,
    Curve,
    Implicit,
    ImplicitPair,
    Line,
    Plane,
    Point3,
    Sphere,
    Surface,
    TriPoly,
    canonicalize,
    cross,
    dist2,
    dot,
    is_zero_vec,
    norm2,
    point,
    primitive_vector,
    vadd,
    vscale,
    vsub,
)


# ---------------------------------------------------------------------------
# incidence predicates and surface meets in Fraction

def _normal(pl: Plane):
    return (pl.a, pl.b, pl.c)


def point_on_surface(p: Point3, surface: Surface) -> bool:
    if isinstance(surface, Plane):
        return (
            surface.a * p.x + surface.b * p.y + surface.c * p.z + surface.d == 0
        )
    if isinstance(surface, Sphere):
        return dist2(p, surface.center) == surface.radius2
    if isinstance(surface, Implicit):
        return surface.poly.evaluate(p) == 0
    raise UnsupportedObject(f"not a surface: {type(surface).__name__}")


def point_on_curve(p: Point3, curve: Curve) -> bool:
    if isinstance(curve, Line):
        return is_zero_vec(cross(vsub(p.as_tuple(), curve.origin.as_tuple()), curve.direction))
    if isinstance(curve, Circle):
        offset = vsub(p.as_tuple(), curve.center.as_tuple())
        return dot(offset, curve.normal) == 0 and norm2(offset) == curve.radius2
    if isinstance(curve, ImplicitPair):
        return curve.f.evaluate(p) == 0 and curve.g.evaluate(p) == 0
    raise UnsupportedObject(f"not a curve: {type(curve).__name__}")


def surface_contains_curve(surface: Surface, curve: Curve) -> bool:
    if isinstance(surface, Plane):
        if isinstance(curve, Line):
            return (
                dot(_normal(surface), curve.direction) == 0
                and point_on_surface(curve.origin, surface)
            )
        if isinstance(curve, Circle):
            return (
                point_on_surface(curve.center, surface)
                and is_zero_vec(cross(curve.normal, _normal(surface)))
            )
        raise UnsupportedObject("containment undefined for implicit curves")
    if isinstance(surface, Sphere):
        if isinstance(curve, Line):
            return False
        if isinstance(curve, Circle):
            offset = vsub(surface.center.as_tuple(), curve.center.as_tuple())
            on_axis = is_zero_vec(cross(offset, curve.normal))
            return on_axis and norm2(offset) + curve.radius2 == surface.radius2
        raise UnsupportedObject("containment undefined for implicit curves")
    raise UnsupportedObject("containment undefined for implicit surfaces")


def surface_pair_intersection(s1: Surface, s2: Surface):
    """`geom.surface_pair_intersection` through the `Fraction` closed forms
    below."""
    if isinstance(s1, Implicit) or isinstance(s2, Implicit):
        raise UnsupportedObject("implicit surface intersections are not supported")
    if isinstance(s1, Plane) and isinstance(s2, Plane):
        return plane_plane(s1, s2)
    if isinstance(s1, Plane) and isinstance(s2, Sphere):
        return plane_sphere(s1, s2)
    if isinstance(s1, Sphere) and isinstance(s2, Plane):
        return plane_sphere(s2, s1)
    return sphere_sphere(s1, s2)


def plane_plane(p1: Plane, p2: Plane) -> Optional[Line]:
    direction = cross(_normal(p1), _normal(p2))
    if is_zero_vec(direction):
        if canonicalize(p1) == canonicalize(p2):
            raise CoincidentObjects("surfaces coincide")
        return None
    # Fix the coordinate matching a nonzero direction component to zero and
    # solve the remaining 2x2 system (its determinant is that component).
    k = next(i for i in range(3) if direction[i] != 0)
    idx = [i for i in range(3) if i != k]
    n1, n2 = _normal(p1), _normal(p2)
    a11, a12 = n1[idx[0]], n1[idx[1]]
    a21, a22 = n2[idx[0]], n2[idx[1]]
    det = a11 * a22 - a12 * a21
    r1, r2 = -p1.d, -p2.d
    u = (r1 * a22 - r2 * a12) / det
    v = (a11 * r2 - a21 * r1) / det
    coords = [Fraction(0)] * 3
    coords[idx[0]], coords[idx[1]] = u, v
    return Line(Point3(*coords), direction)


def plane_sphere(pl: Plane, sp: Sphere):
    n = _normal(pl)
    c = sp.center.as_tuple()
    lam = (dot(n, c) + pl.d) / norm2(n)
    foot = Point3(*vsub(c, vscale(lam, n)))
    radius2 = sp.radius2 - lam * lam * norm2(n)
    if radius2 > 0:
        return Circle(foot, primitive_vector(n), radius2)
    if radius2 == 0:
        return foot
    return None


def sphere_sphere(s1: Sphere, s2: Sphere):
    c1, c2 = s1.center.as_tuple(), s2.center.as_tuple()
    axis = vsub(c2, c1)
    d2 = norm2(axis)
    if d2 == 0:
        if s1.radius2 == s2.radius2:
            raise CoincidentObjects("surfaces coincide")
        return None
    t = (d2 + s1.radius2 - s2.radius2) / (2 * d2)
    center = Point3(*vadd(c1, vscale(t, axis)))
    radius2 = s1.radius2 - t * t * d2
    if radius2 > 0:
        return Circle(center, primitive_vector(axis), radius2)
    if radius2 == 0:
        return center
    return None


# ---------------------------------------------------------------------------
# incidence, decomposition and common spheres by all pairs

def _incident(p: Point3, obj) -> bool:
    if isinstance(obj, (Plane, Sphere, geom.Implicit)):
        return point_on_surface(p, obj)
    return point_on_curve(p, obj)


def incidence_edges(points: Sequence[Point3], objects: Sequence) -> frozenset[tuple[int, int]]:
    """Every incident (point id, object id) pair, by testing all pairs."""
    edges = set()
    for pid, p in enumerate(points):
        for oid, obj in enumerate(objects):
            if _incident(p, obj):
                edges.add((pid, oid))
    return frozenset(edges)


def contains_krs(graph, r: int, s: int) -> bool:
    """`engine.contains_krs` by intersecting the point sets of every s
    objects with at least r points."""
    incident_points: dict[int, set[int]] = {o: set() for o in graph.object_ids}
    for pid, oid in graph.edges:
        incident_points[oid].add(pid)
    candidates = [o for o in graph.object_ids if len(incident_points[o]) >= r]
    for combo in itertools.combinations(candidates, s):
        common = set.intersection(*(incident_points[o] for o in combo))
        if len(common) >= r:
            return True
    return False


def decompose(points: Sequence[Point3], surfaces: Sequence[Surface]) -> BipartiteDecomposition:
    """`engine.decompose` with per-pair point scans."""
    canon = []
    for s in surfaces:
        if isinstance(s, geom.Implicit):
            raise UnsupportedObject("decompose supports planes and spheres only")
        canon.append(canonicalize(s))
    if len(set(canon)) != len(canon):
        raise ValidationError("surfaces must be pairwise distinct")

    curve_surfaces: dict[Curve, set[int]] = {}
    for i, j in itertools.combinations(range(len(surfaces)), 2):
        result = surface_pair_intersection(surfaces[i], surfaces[j])
        if isinstance(result, (Circle, Line)):
            curve_surfaces.setdefault(canonicalize(result), set()).update((i, j))

    components = []
    curves_of_surface: dict[int, list[Curve]] = {}
    points_on_curve: dict[Curve, set[int]] = {}
    for gamma in sorted(curve_surfaces, key=repr):
        s_ids = tuple(sorted(curve_surfaces[gamma]))
        p_ids = tuple(pid for pid, p in enumerate(points) if point_on_curve(p, gamma))
        points_on_curve[gamma] = set(p_ids)
        for sid in s_ids:
            curves_of_surface.setdefault(sid, []).append(gamma)
        components.append((gamma, p_ids, s_ids))

    residual = set()
    for pid, p in enumerate(points):
        for sid, surface in enumerate(surfaces):
            if not _incident(p, surface):
                continue
            covered = any(
                pid in points_on_curve[gamma]
                for gamma in curves_of_surface.get(sid, ())
            )
            if not covered:
                residual.add((pid, sid))
    return BipartiteDecomposition(components, frozenset(residual))


def common_sphere(c1: Circle, c2: Circle) -> Optional[Sphere]:
    """The unique sphere containing both circles, if one exists."""
    k1, k2 = canonicalize(c1), canonicalize(c2)
    if k1 == k2:
        raise CoincidentObjects("circles coincide")
    a1, a2 = c1.center.as_tuple(), c2.center.as_tuple()
    n1, n2 = c1.normal, c2.normal
    if is_zero_vec(cross(n1, n2)):
        # parallel axes: a common sphere needs a common (coaxial) axis
        if not is_zero_vec(cross(vsub(a2, a1), n1)) and a1 != a2:
            return None
        gap = vsub(a1, a2)
        if is_zero_vec(gap):
            return None  # concentric coaxial with distinct radii
        beta = next(gap[i] / n1[i] for i in range(3) if n1[i] != 0)
        lam = (c1.radius2 - c2.radius2 - beta * beta * norm2(n1)) / (2 * beta * norm2(n1))
        center = Point3(*vadd(a1, vscale(lam, n1)))
        return Sphere(center, c1.radius2 + lam * lam * norm2(n1))
    candidates = line_line(Line(c1.center, n1), Line(c2.center, n2))
    for o in candidates:
        r2 = c1.radius2 + geom.dist2(o, c1.center)
        if c2.radius2 + geom.dist2(o, c2.center) == r2:
            return Sphere(o, r2)
    return None


def coplanar_cospherical_max(circles: Sequence[Circle]) -> tuple[int, Optional[Surface]]:
    """Max number of the circles lying in one plane or on one sphere."""
    if not circles:
        return 0, None
    circles = [canonicalize(c) for c in circles]
    best = 0
    witness: Optional[Surface] = None
    plane_groups: dict[Plane, int] = {}
    for c in circles:
        pl = canonicalize(c.plane())
        plane_groups[pl] = plane_groups.get(pl, 0) + 1
    for pl, count in plane_groups.items():
        if count > best:
            best, witness = count, pl
    # two distinct circles determine at most one common sphere, so a sphere
    # holding c circles is named by all C(c, 2) of its pairs
    sphere_hits: dict[tuple, int] = {}
    sphere_by_key: dict[tuple, Sphere] = {}
    # the skew-axes filter runs on integers: canonical normals are already
    # primitive integers, centers are scaled by one common denominator
    icenters, _ = geom.integer_coords(c.center for c in circles)
    inormals = [tuple(int(x) for x in c.normal) for c in circles]
    for i, j in itertools.combinations(range(len(circles)), 2):
        n1, n2 = inormals[i], inormals[j]
        kx = n1[1] * n2[2] - n1[2] * n2[1]
        ky = n1[2] * n2[0] - n1[0] * n2[2]
        kz = n1[0] * n2[1] - n1[1] * n2[0]
        if kx or ky or kz:
            a1, a2 = icenters[i], icenters[j]
            if (a2[0] - a1[0]) * kx + (a2[1] - a1[1]) * ky + (a2[2] - a1[2]) * kz != 0:
                continue  # skew axes: no common sphere
        ci, cj = circles[i], circles[j]
        sph = common_sphere(ci, cj)
        if sph is None:
            continue
        key = (sph.center, sph.radius2)
        sphere_hits[key] = sphere_hits.get(key, 0) + 1
        sphere_by_key[key] = sph
    for key, hits in sphere_hits.items():
        # hits == C(count, 2) exactly
        count = (1 + math.isqrt(1 + 8 * hits)) // 2
        if count > best:
            best, witness = count, sphere_by_key[key]
    return best, witness


# ---------------------------------------------------------------------------
# Sturm root isolation in Fraction

UPoly = list[Fraction]


def utrim(p: UPoly) -> UPoly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def udegree(p: UPoly) -> int:
    q = utrim(p)
    return len(q) - 1


def ueval(p: UPoly, x: Fraction) -> Fraction:
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
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _udivmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    a, b = utrim(a), utrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = utrim(a)
    while len(r) >= len(b):
        coeff = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] += coeff
        for i, cb in enumerate(b):
            r[shift + i] -= coeff * cb
        r.pop()  # leading term cancels exactly
        r = utrim(r)
    return utrim(q), r


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    a, b = utrim(a), utrim(b)
    while b:
        _, r = _udivmod(a, b)
        a, b = b, r
    if not a:
        return []
    return [c / a[-1] for c in a]  # monic


def squarefree(p: UPoly) -> UPoly:
    p = utrim(p)
    if udegree(p) < 1:
        return p
    g = ugcd(p, uderiv(p))
    if udegree(g) < 1:
        return p
    q, _ = _udivmod(p, g)
    return q


def sturm_sequence(p: UPoly) -> list[UPoly]:
    seq = [utrim(p), uderiv(p)]
    while seq[-1]:
        _, r = _udivmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return [s for s in seq if s]


def _sign_at(p: UPoly, x) -> int:
    # x may be +inf / -inf markers
    p = utrim(p)
    if not p:
        return 0
    if x == "+inf":
        return 1 if p[-1] > 0 else -1
    if x == "-inf":
        lead = p[-1] if (len(p) - 1) % 2 == 0 else -p[-1]
        return 1 if lead > 0 else -1
    v = ueval(p, x)
    return (v > 0) - (v < 0)


def sign_variations(seq: list[UPoly], x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in seq) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(seq: list[UPoly], a, b) -> int:
    """Number of distinct real roots in (a, b] (p must be squarefree)."""
    return sign_variations(seq, a) - sign_variations(seq, b)


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = utrim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


def isolate_real_roots(p: UPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint, sorted isolating intervals for all real roots of p.

    Each interval (lo, hi) contains exactly one root with p(lo) != 0 and
    p(hi) != 0; exact rational roots appear as degenerate pairs (r, r).
    """
    p = squarefree(p)
    if udegree(p) < 1:
        return []
    seq = sturm_sequence(p)
    bound = root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if ueval(p, mid) == 0:
            out.append((mid, mid))
            # shrink side endpoints toward the exact root until the gaps
            # [left_hi, mid) and (mid, right_lo] are root-free non-root points
            eps = (mid - lo) / 2
            left_hi = mid - eps
            while ueval(p, left_hi) == 0 or count_roots(seq, left_hi, mid) != 1:
                eps /= 2
                left_hi = mid - eps
            eps = (hi - mid) / 2
            right_lo = mid + eps
            while ueval(p, right_lo) == 0 or count_roots(seq, mid, right_lo) != 0:
                eps /= 2
                right_lo = mid + eps
            recurse(lo, left_hi, count_roots(seq, lo, left_hi))
            recurse(right_lo, hi, count_roots(seq, right_lo, hi))
            return
        recurse(lo, mid, count_roots(seq, lo, mid))
        recurse(mid, hi, count_roots(seq, mid, hi))

    total = count_roots(seq, -bound, bound)
    recurse(-bound, bound, total)
    out.sort()
    # refine until intervals are strictly separated
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            lo1, hi1 = out[i]
            lo2, hi2 = out[i + 1]
            if hi1 >= lo2:
                out[i] = _refine(p, seq, out[i])
                out[i + 1] = _refine(p, seq, out[i + 1])
                changed = True
    return out


def _refine(p: UPoly, seq, interval):
    lo, hi = interval
    if lo == hi:
        return interval
    mid = (lo + hi) / 2
    if ueval(p, mid) == 0:
        return (mid, mid)
    if count_roots(seq, lo, mid) == 1:
        return (lo, mid)
    return (mid, hi)


def sample_points_between_roots(p: UPoly) -> list[Fraction]:
    """Rational sample points, one inside each maximal root-free open
    interval of the real line determined by p's real roots."""
    intervals = isolate_real_roots(p)
    if not intervals:
        return [Fraction(0)]
    samples = [intervals[0][0] - 1]
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        samples.append((hi1 + lo2) / 2)
    samples.append(intervals[-1][1] + 1)
    return samples


# ---------------------------------------------------------------------------
# partition censuses and threshold scan in Fraction

def restrict_to_line(f: TriPoly, origin: Point3, direction) -> UPoly:
    """Univariate coefficients (ascending) of t -> f(origin + t*direction)."""
    o = origin.as_tuple()
    axes = [[o[a], direction[a]] for a in range(3)]
    total = [Fraction(0)]
    for (i, j, k), c in f.terms.items():
        term = [c]
        for axis, e in ((0, i), (1, j), (2, k)):
            for _ in range(e):
                term = umul(term, axes[axis])
        n = max(len(total), len(term))
        total = [
            (total[e] if e < len(total) else Fraction(0))
            + (term[e] if e < len(term) else Fraction(0))
            for e in range(n)
        ]
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total


def classify(p: Point3, factors: Sequence[TriPoly]):
    signs = []
    for f in factors:
        v = f.evaluate(p)
        if v == 0:
            return "Z"
        signs.append("+" if v > 0 else "-")
    return tuple(signs)


def cell_census(points: Sequence[Point3], factors: Sequence[TriPoly]) -> dict:
    census: dict = {}
    for p in points:
        label = classify(p, factors)
        census[label] = census.get(label, 0) + 1
    return census


def crossing_census(line: Line, factors: Sequence[TriPoly]) -> int:
    """Distinct open-cell sign vectors met along a line, by exact univariate
    root isolation of each factor restricted to the line."""
    restricted = [restrict_to_line(f, line.origin, line.direction) for f in factors]
    if any(udegree(r) < 0 for r in restricted):
        return 0  # the line lies inside some factor's zero set: always Z
    product = [Fraction(1)]
    for r in restricted:
        product = umul(product, r)
    labels = set()
    for sample in sample_points_between_roots(product):
        signs = []
        on_zero = False
        for r in restricted:
            v = ueval(r, sample)
            if v == 0:
                on_zero = True
                break
            signs.append("+" if v > 0 else "-")
        if not on_zero:
            labels.add(tuple(signs))
    return len(labels)


def best_threshold(cell_values: list[list[int]], pad: int) -> tuple[Fraction, int]:
    """One bisect per cell per candidate threshold over sorted cell values."""
    cell_values = [sorted(vals) for vals in cell_values]
    unit = math.lcm(*map(len, cell_values))
    merged = sorted({v for vals in cell_values for v in vals})
    thetas = [2 * (merged[0] - pad), 2 * (merged[-1] + pad)]
    thetas.extend(a + b for a, b in zip(merged, merged[1:]))
    best = None
    for theta in thetas:
        half = theta >> 1  # v < theta/2 exactly when v <= half
        worst = 0
        for vals in cell_values:
            below = bisect.bisect_right(vals, half)
            worst = max(worst, max(below, len(vals) - below) * (unit // len(vals)))
        if best is None or worst < best[0]:
            best = (worst, theta)
    return Fraction(best[0], unit), best[1]


# ---------------------------------------------------------------------------
# repeated distances and similar triangles in Fraction

def repeated_distances(P: Sequence[Point3], d2) -> int:
    """Unordered pairs of P at squared distance exactly d2, over all pairs."""
    d2 = Fraction(d2)
    if d2 <= 0:
        raise ValidationError("d2 must be > 0")
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    return sum(1 for p, q in itertools.combinations(P, 2) if dist2(p, q) == d2)


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
    return surface_pair_intersection(Sphere(p, shape.rho1 * d2), Sphere(q, shape.rho2 * d2))


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
        if isinstance(locus, Circle):
            gamma = canonicalize(locus)
            mult[gamma] = mult.get(gamma, 0) + 1
    return sorted(mult.items(), key=lambda item: repr(item[0]))


# ---------------------------------------------------------------------------
# curve meets: line-line, line-circle in three branches, circle-circle in two

def curve_pair_intersection(c1: Curve, c2: Curve) -> list[Point3]:
    """`geom.curve_pair_intersection` through the `Fraction` meets below,
    after a `Fraction` coincidence test."""
    if isinstance(c1, ImplicitPair) or isinstance(c2, ImplicitPair):
        raise UnsupportedObject("implicit curve intersections are not supported")
    if _same_curve(c1, c2):
        raise CoincidentObjects("curves coincide")
    if isinstance(c1, Line) and isinstance(c2, Line):
        return line_line(c1, c2)
    if isinstance(c1, Line):
        return line_circle(c1, c2)
    if isinstance(c2, Line):
        return line_circle(c2, c1)
    return circle_circle(c1, c2)


def _same_curve(c1: Curve, c2: Curve) -> bool:
    """Equal lines are parallel and share a point; equal circles share their
    centre, r^2 and axis."""
    if isinstance(c1, Line) and isinstance(c2, Line):
        gap = vsub(c2.origin.as_tuple(), c1.origin.as_tuple())
        return is_zero_vec(cross(c1.direction, c2.direction)) and is_zero_vec(cross(gap, c1.direction))
    if isinstance(c1, Circle) and isinstance(c2, Circle):
        return (c1.center == c2.center and c1.radius2 == c2.radius2
                and is_zero_vec(cross(c1.normal, c2.normal)))
    return False


def line_line(l1: Line, l2: Line) -> list[Point3]:
    """The common point of two distinct lines: none when they are parallel
    or skew, else o1 + s d1 for the s that puts it on the second line."""
    d1, d2 = l1.direction, l2.direction
    o1, o2 = l1.origin.as_tuple(), l2.origin.as_tuple()
    n = cross(d1, d2)
    if is_zero_vec(n):
        return []  # parallel and distinct
    delta = vsub(o2, o1)
    if dot(delta, n) != 0:
        return []  # skew
    s = dot(cross(delta, d2), n) / norm2(n)
    return [Point3(*vadd(o1, vscale(s, d1)))]


def line_circle(line: Line, circle: Circle) -> list[Point3]:
    """The rational common points of a line and a circle.  A line crossing
    the circle's plane meets it in one point; a line parallel to the plane
    misses it or lies in it, and then meets the circle at the rational roots
    of |o + t d - c|^2 = r^2."""
    n = circle.normal
    o = line.origin.as_tuple()
    d = line.direction
    c = circle.center.as_tuple()
    nd = dot(n, d)
    if nd != 0:
        t = dot(n, vsub(c, o)) / nd
        p = Point3(*vadd(o, vscale(t, d)))
        return [p] if point_on_curve(p, circle) else []
    if dot(n, vsub(o, c)) != 0:
        return []  # line parallel to the circle's plane but off it
    w = vsub(o, c)
    qa = norm2(d)
    qb = 2 * dot(w, d)
    qc = norm2(w) - circle.radius2
    root = geom.rational_sqrt(qb * qb - 4 * qa * qc)
    if root is None:
        return []
    ts = sorted({(-qb - root) / (2 * qa), (-qb + root) / (2 * qa)})
    return [Point3(*vadd(o, vscale(t, d))) for t in ts]


def circle_circle(c1: Circle, c2: Circle) -> list[Point3]:
    """The common points of two distinct circles.  Circles in distinct
    planes meet on the planes' common line.  Circles in one plane meet on
    the line where the radical plane of their centre spheres cuts it; that
    plane's normal a2 - a1 lies in the shared plane, so the two cross."""
    p1, p2 = c1.plane(), c2.plane()
    if canonicalize(p1) != canonicalize(p2):
        line = surface_pair_intersection(p1, p2)
        if line is None:
            return []  # parallel planes
        return [p for p in line_circle(line, c1) if point_on_curve(p, c2)]
    a1, a2 = c1.center.as_tuple(), c2.center.as_tuple()
    normal = vsub(a2, a1)
    if is_zero_vec(normal):
        return []  # concentric coplanar, distinct radii
    rhs = (norm2(a2) - norm2(a1) + c1.radius2 - c2.radius2) / 2
    line = surface_pair_intersection(Plane(normal[0], normal[1], normal[2], -rhs), p1)
    return [p for p in line_circle(line, c1) if point_on_curve(p, c2)]


# ---------------------------------------------------------------------------
# generic projection through a full matrix inverse

def _mat_inverse(m):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        return None
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return [[c / det for c in row] for row in cof]


def _apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _project_line(m, line: Line):
    o = _apply(m, line.origin.as_tuple())
    d = _apply(m, line.direction)
    if d[0] == 0 and d[1] == 0:
        return None  # projects to a point
    a, b = -d[1], d[0]
    c = d[1] * o[0] - d[0] * o[1]
    return ("line", primitive_vector([a, b, c]))


def _project_circle(minv, circle: Circle):
    # On the image, x = Minv * y; eliminate y3 from the plane equation and
    # substitute into the sphere equation to get a conic in (y1, y2).
    n = circle.normal
    c = circle.center.as_tuple()
    w = tuple(sum(n[i] * minv[i][j] for i in range(3)) for j in range(3))
    if w[2] == 0:
        return None
    e = dot(n, c)
    # component i of Minv*y - c as alpha_i*u + beta_i*v + delta_i
    alphas, betas, deltas = [], [], []
    for i in range(3):
        alphas.append(minv[i][0] - minv[i][2] * w[0] / w[2])
        betas.append(minv[i][1] - minv[i][2] * w[1] / w[2])
        deltas.append(minv[i][2] * e / w[2] - c[i])
    cuu = sum(a * a for a in alphas)
    cuv = 2 * sum(a * b for a, b in zip(alphas, betas))
    cvv = sum(b * b for b in betas)
    cu = 2 * sum(a * d for a, d in zip(alphas, deltas))
    cv = 2 * sum(b * d for b, d in zip(betas, deltas))
    c0 = sum(d * d for d in deltas) - circle.radius2
    if cuu == 0 and cuv == 0 and cvv == 0:
        return None
    return ("conic", primitive_vector([cuu, cuv, cvv, cu, cv, c0]))


def project_generic(points: Sequence[Point3], curves: Sequence[Curve], seed: int) -> PlanarInstance:
    """`engine.project_generic` through the seeded random rational matrix m
    and its inverse: points and lines map through m, and a circle's plane is
    pulled back through m^-1 to write its image conic.  Repeated points or
    curves are refused before the first draw."""
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct")
    if len({canonicalize(c) for c in curves}) != len(curves):
        raise ValidationError("curves must be pairwise distinct")
    incident = incidence_edges(points, curves)
    for attempt in range(16):
        rng = random.Random(f"{seed}:{attempt}")
        m = [[Fraction(rng.randint(-19, 19)) for _ in range(3)] for _ in range(3)]
        minv = _mat_inverse(m)
        if minv is None:
            continue
        points2 = []
        for p in points:
            img = _apply(m, p.as_tuple())
            points2.append((img[0], img[1]))
        if len(set(points2)) != len(points2):
            continue
        curves2 = []
        ok = True
        for c in curves:
            rec = _project_line(m, c) if isinstance(c, Line) else _project_circle(minv, c)
            if rec is None:
                ok = False
                break
            curves2.append(rec)
        if not ok or len(set(curves2)) != len(curves2):
            continue
        preserved = all(
            planar_incident(points2[pid], curves2[cid]) == ((pid, cid) in incident)
            for pid in range(len(points))
            for cid in range(len(curves))
        )
        if not preserved:
            continue
        return PlanarInstance(points2, curves2)
    raise GenericityFailure("no valid generic projection in 16 attempts")


# ---------------------------------------------------------------------------
# file parsers with one Fraction(str) per field


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (AttributeError, ValueError, ZeroDivisionError) as exc:  # AttributeError: not a string
        raise ValidationError(f"bad rational {s!r}") from exc


def points_from_csv(text: str) -> list[Point3]:
    reader = csv.reader(_pyio.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise ValidationError("points CSV must start with header x,y,z")
    out = []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValidationError(f"points CSV row needs 3 fields, got {row!r}")
        out.append(point(*(parse_rational(c) for c in row)))
    return out


def tripoly_from_record(rec: dict) -> TriPoly:
    if not isinstance(rec, dict):
        raise ValidationError("polynomial record must be a JSON object")
    terms = {}
    for key, val in rec.items():
        try:
            i, j, k = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad monomial key {key!r}") from exc
        terms[(i, j, k)] = parse_rational(val)
    return TriPoly(terms)


def object_from_record(rec: dict):
    """Reads any iterable as a coordinate field, unlike `io`, which asks
    for an array of the right length."""
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ValidationError("object record needs a 'kind' tag")
    kind = rec["kind"]
    try:
        if kind == "plane":
            return Plane(*(parse_rational(c) for c in rec["coeffs"]))
        if kind == "sphere":
            return Sphere(point(*(parse_rational(c) for c in rec["center"])),
                          parse_rational(rec["radius2"]))
        if kind == "implicit":
            return Implicit(tripoly_from_record(rec["poly"]))
        if kind == "line":
            return Line(point(*(parse_rational(c) for c in rec["origin"])),
                        tuple(parse_rational(c) for c in rec["direction"]))
        if kind == "circle":
            return Circle(point(*(parse_rational(c) for c in rec["center"])),
                          tuple(parse_rational(c) for c in rec["normal"]),
                          parse_rational(rec["radius2"]))
        if kind == "implicit_pair":
            return ImplicitPair(tripoly_from_record(rec["f"]), tripoly_from_record(rec["g"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {kind!r} record") from exc
    raise ValidationError(f"unknown object kind {kind!r}")


def objects_from_json(text: str) -> list:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError("objects file must be a JSON array")
    return [object_from_record(rec) for rec in data]


# ---------------------------------------------------------------------------
# writers through csv and json, and the Fraction distance-sphere family


def format_rational(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def points_to_csv(points: Sequence[Point3]) -> str:
    buf = _pyio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    for p in points:
        writer.writerow([format_rational(c) for c in p.as_tuple()])
    return buf.getvalue()


def _rationals(values) -> list[str]:
    return [format_rational(c) for c in values]


def _poly_record(f: TriPoly) -> dict:
    return {f"{i},{j},{k}": format_rational(c) for (i, j, k), c in sorted(f.terms.items())}


def object_to_record(obj) -> dict:
    if isinstance(obj, Plane):
        return {"kind": "plane", "coeffs": _rationals((obj.a, obj.b, obj.c, obj.d))}
    if isinstance(obj, Sphere):
        return {"kind": "sphere", "center": _rationals(obj.center.as_tuple()),
                "radius2": format_rational(obj.radius2)}
    if isinstance(obj, Line):
        return {"kind": "line", "origin": _rationals(obj.origin.as_tuple()),
                "direction": _rationals(obj.direction)}
    if isinstance(obj, Circle):
        return {"kind": "circle", "center": _rationals(obj.center.as_tuple()),
                "normal": _rationals(obj.normal), "radius2": format_rational(obj.radius2)}
    if isinstance(obj, Implicit):
        return {"kind": "implicit", "poly": _poly_record(obj.poly)}
    if isinstance(obj, ImplicitPair):
        return {"kind": "implicit_pair", "f": _poly_record(obj.f), "g": _poly_record(obj.g)}
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def objects_to_json(objects: Sequence) -> str:
    return json.dumps([object_to_record(o) for o in objects], indent=2, sort_keys=True) + "\n"


def gen_distance_spheres(P1: Sequence[Point3], P2: Sequence[Point3]) -> tuple[list[Sphere], int]:
    if not P1 or not P2:
        raise ValidationError("P1 and P2 must be nonempty")
    if set(P1) & set(P2):
        raise ValidationError("P1 and P2 must be disjoint")
    d2s = sorted({dist2(p, q) for p in P1 for q in P2})
    return [Sphere(q, d2) for q in P2 for d2 in d2s], len(d2s)
