"""Incidence counting, complete-bipartite decomposition, rich points,
K_{r,s} detection, and generic projection to the plane.

Counting, decomposition and the projection check find point-object
incidences through one integer core, `_incidence_edges`: coordinates are
cleared of denominators once, and planes, spheres, lines and circles are
bucketed by a shape key, so each point is looked up in the buckets rather
than tested against every object.  Only implicit surfaces and curves are
tested per pair, with the exact `Fraction` predicates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import geom
from .errors import (
    CoincidentObjects,
    GenericityFailure,
    GuardExceeded,
    UnsupportedObject,
    ValidationError,
)
from .geom import (
    Circle,
    Curve,
    CircleCurve,
    Line,
    LineCurve,
    Plane,
    Point3,
    Sphere,
    Surface,
    canonicalize,
    cross,
    dot,
    is_zero_vec,
    norm2,
    point_on_curve,
    point_on_surface,
    primitive_vector,
    surface_pair_intersection,
    vadd,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class IncidenceGraph:
    point_ids: tuple[int, ...]
    object_ids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


def _primitive_ints(v) -> tuple[int, ...]:
    return tuple(int(c) for c in primitive_vector(v))


def _incidence_edges(points: Sequence[Point3], objects: Sequence) -> list[tuple[int, int]]:
    """Every incident (point id, object id) pair; ids are indices.

    Points and the objects' anchor points are cleared of denominators once
    (`geom.integer_coords`), so planes, spheres, lines and circles are
    matched in Python ints.  Each of them is stored in a bucket under a
    shape key, and a point looks up the value it takes under each key
    instead of being tested against every object:

    - sphere or circle: integer centre C; |P - C|^2 against den^2 r^2,
      then n . (P - C) = 0 for the circles found;
    - plane: primitive normal n; -(n . P) against den d / s, where the
      plane is s (n . x) + d = 0;
    - line: primitive direction v; P x v against the moment O x v.

    An object whose scaled target is not an integer holds no point and is
    not stored.  Implicit surfaces and curves have no shape key and are
    tested per pair with the exact predicates.
    """
    anchors = {
        oid: obj.origin if isinstance(obj, Line) else obj.center
        for oid, obj in enumerate(objects) if isinstance(obj, (Sphere, Line, Circle))
    }
    coords, den = geom.integer_coords([*points, *anchors.values()])
    anchor_of = dict(zip(anchors, coords[len(points):]))
    # centre -> den^2 r^2 -> [(circle normal, or None for a sphere, oid)]
    centred: dict[tuple, dict[int, list[tuple[Optional[tuple], int]]]] = {}
    planes: dict[tuple, dict[int, list[int]]] = {}
    lines: dict[tuple, dict[tuple, list[int]]] = {}
    per_pair = []
    for oid, obj in enumerate(objects):
        if isinstance(obj, (Sphere, Circle)):
            target = den * den * obj.radius2
            if target.denominator != 1:
                continue
            normal = _primitive_ints(obj.normal) if isinstance(obj, Circle) else None
            centred.setdefault(anchor_of[oid], {}).setdefault(target.numerator, []).append(
                (normal, oid)
            )
        elif isinstance(obj, Plane):
            normal = _primitive_ints(obj.normal())
            scale = next(c for c in obj.normal() if c != 0) / next(c for c in normal if c != 0)
            target = den * obj.d / scale
            if target.denominator != 1:
                continue
            planes.setdefault(normal, {}).setdefault(target.numerator, []).append(oid)
        elif isinstance(obj, Line):
            vx, vy, vz = direction = _primitive_ints(obj.direction)
            ox, oy, oz = anchor_of[oid]
            moment = (oy * vz - oz * vy, oz * vx - ox * vz, ox * vy - oy * vx)
            lines.setdefault(direction, {}).setdefault(moment, []).append(oid)
        else:
            per_pair.append((oid, obj))

    edges = []
    for pid, (x, y, z) in enumerate(coords[: len(points)]):
        for (cx, cy, cz), by_target in centred.items():
            dx, dy, dz = x - cx, y - cy, z - cz
            hit = by_target.get(dx * dx + dy * dy + dz * dz)
            if hit:
                edges.extend(
                    (pid, oid) for n, oid in hit
                    if n is None or n[0] * dx + n[1] * dy + n[2] * dz == 0
                )
        for (a, b, c), by_target in planes.items():
            hit = by_target.get(-(a * x + b * y + c * z))
            if hit:
                edges.extend((pid, oid) for oid in hit)
        for (vx, vy, vz), by_moment in lines.items():
            hit = by_moment.get((y * vz - z * vy, z * vx - x * vz, x * vy - y * vx))
            if hit:
                edges.extend((pid, oid) for oid in hit)
        if per_pair:
            p = points[pid]
            edges.extend(
                (pid, oid) for oid, obj in per_pair
                if (point_on_surface(p, obj) if isinstance(obj, geom.Implicit)
                    else point_on_curve(p, obj))
            )
    return edges


def count_incidences(points: Sequence[Point3], objects: Sequence) -> tuple[int, IncidenceGraph]:
    """Exact incidence count plus the full incidence graph (ids are indices)."""
    edges = _incidence_edges(points, objects)
    graph = IncidenceGraph(
        tuple(range(len(points))), tuple(range(len(objects))), frozenset(edges)
    )
    return len(edges), graph


# ---------------------------------------------------------------------------
# complete bipartite decomposition

@dataclass
class BipartiteDecomposition:
    components: list[tuple[Curve, tuple[int, ...], tuple[int, ...]]]
    residual_edges: frozenset[tuple[int, int]]


def decompose(points: Sequence[Point3], surfaces: Sequence[Surface]) -> BipartiteDecomposition:
    """Decompose G(P, S) over the intersection curves of surface pairs.

    Surfaces must be planes or spheres, pairwise distinct after
    canonicalization.  Components collect, for each deduplicated pair
    intersection curve, the points on it and all surfaces containing it;
    isolated tangency points stay in the residual.
    """
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
        if isinstance(result, (CircleCurve, LineCurve)):
            gamma = canonicalize(result.circle if isinstance(result, CircleCurve) else result.line)
            curve_surfaces.setdefault(gamma, set()).update((i, j))

    curves = sorted(curve_surfaces, key=repr)
    points_on_curve: dict[Curve, set[int]] = {gamma: set() for gamma in curves}
    for pid, cid in _incidence_edges(points, curves):
        points_on_curve[curves[cid]].add(pid)
    components = []
    curves_of_surface: dict[int, list[Curve]] = {}
    for gamma in curves:
        s_ids = tuple(sorted(curve_surfaces[gamma]))
        for sid in s_ids:
            curves_of_surface.setdefault(sid, []).append(gamma)
        components.append((gamma, tuple(sorted(points_on_curve[gamma])), s_ids))

    residual = frozenset(
        (pid, sid) for pid, sid in _incidence_edges(points, surfaces)
        if not any(pid in points_on_curve[gamma] for gamma in curves_of_surface.get(sid, ()))
    )
    return BipartiteDecomposition(components, residual)


def j_value(d: BipartiteDecomposition) -> tuple[int, int, int, int]:
    """(J, sum of |P_gamma|, sum of |S_gamma|, residual edge count)."""
    sum_p = sum(len(p_ids) for _, p_ids, _ in d.components)
    sum_s = sum(len(s_ids) for _, _, s_ids in d.components)
    return sum_p + sum_s, sum_p, sum_s, len(d.residual_edges)


# ---------------------------------------------------------------------------
# rich points

def rich_points(curves: Sequence[Curve], r: int) -> list[tuple[Point3, int]]:
    """Points on at least r curves, with exact multiplicity."""
    if r < 2:
        raise ValidationError("rich points need r >= 2")
    for c in curves:
        if isinstance(c, geom.ImplicitPair):
            raise UnsupportedObject("rich_points supports lines and circles only")
    hits: dict[Point3, set[int]] = {}
    for i, j in itertools.combinations(range(len(curves)), 2):
        for p in geom.curve_pair_intersection(curves[i], curves[j]):
            hits.setdefault(p, set()).update((i, j))
    out = [(p, len(cs)) for p, cs in hits.items() if len(cs) >= r]
    out.sort(key=lambda item: (item[0].x, item[0].y, item[0].z))
    return out


# ---------------------------------------------------------------------------
# K_{r,s} detection

def contains_krs(graph: IncidenceGraph, r: int, s: int) -> bool:
    """True iff some r points and s objects are pairwise all-incident."""
    if r > 4 or s > 4:
        raise GuardExceeded("contains_krs enumeration guard: r, s <= 4")
    if r < 1 or s < 1:
        raise ValidationError("r and s must be positive")
    incident_points: dict[int, set[int]] = {o: set() for o in graph.object_ids}
    for pid, oid in graph.edges:
        incident_points[oid].add(pid)
    candidates = [o for o in graph.object_ids if len(incident_points[o]) >= r]
    for combo in itertools.combinations(candidates, s):
        common = set.intersection(*(incident_points[o] for o in combo))
        if len(common) >= r:
            return True
    return False


# ---------------------------------------------------------------------------
# generic projection to the plane

PlanarCurveRecord = tuple[str, tuple[Fraction, ...]]


@dataclass
class PlanarInstance:
    points2: list[tuple[Fraction, Fraction]]
    curves2: list[PlanarCurveRecord]


def planar_incident(pt: tuple[Fraction, Fraction], record: PlanarCurveRecord) -> bool:
    u, v = pt
    kind, coeffs = record
    if kind == "line":
        a, b, c = coeffs
        return a * u + b * v + c == 0
    cuu, cuv, cvv, cu, cv, c0 = coeffs
    return cuu * u * u + cuv * u * v + cvv * v * v + cu * u + cv * v + c0 == 0


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


def _project_line(m, line: Line) -> Optional[PlanarCurveRecord]:
    o = _apply(m, line.origin.as_tuple())
    d = _apply(m, line.direction)
    if d[0] == 0 and d[1] == 0:
        return None  # projects to a point
    a, b = -d[1], d[0]
    c = d[1] * o[0] - d[0] * o[1]
    return ("line", primitive_vector([a, b, c]))


def _project_circle(minv, circle: Circle) -> Optional[PlanarCurveRecord]:
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
        alpha = minv[i][0] - minv[i][2] * w[0] / w[2]
        beta = minv[i][1] - minv[i][2] * w[1] / w[2]
        delta = minv[i][2] * e / w[2] - c[i]
        alphas.append(alpha)
        betas.append(beta)
        deltas.append(delta)
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
    """Project through a seeded random invertible rational linear map.

    Validates exactly that projected points are pairwise distinct, that
    incidences and non-incidences are preserved, and that curve images are
    pairwise distinct; reseeds up to 16 times on failure.
    """
    for c in curves:
        if isinstance(c, geom.ImplicitPair):
            raise UnsupportedObject("project_generic supports lines and circles only")
    incident = set(_incidence_edges(points, curves))
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
            rec = (
                _project_line(m, c) if isinstance(c, Line) else _project_circle(minv, c)
            )
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
# coplanar / cospherical maximum for circle families

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
    candidates = geom._line_line(Line(c1.center, n1), Line(c2.center, n2))
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
