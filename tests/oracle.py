"""Slow, obviously correct references for the incidence engine.

These are the all-pairs `Fraction` loops that `engine.count_incidences` and
`engine.decompose` used before the integer, shape-indexed core, and the
`Fraction` `common_sphere` and `coplanar_cospherical_max` from before the
integer common-sphere kernel; the differential tests in `test_engine.py`
compare the engine against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from inclab import geom
from inclab.engine import BipartiteDecomposition
from inclab.errors import CoincidentObjects, UnsupportedObject, ValidationError
from inclab.geom import (
    Circle,
    CircleCurve,
    Curve,
    Line,
    LineCurve,
    Plane,
    Point3,
    Sphere,
    Surface,
    canonicalize,
    cross,
    is_zero_vec,
    norm2,
    point_on_curve,
    point_on_surface,
    surface_pair_intersection,
    vadd,
    vscale,
    vsub,
)


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
        if isinstance(result, (CircleCurve, LineCurve)):
            gamma = canonicalize(result.circle if isinstance(result, CircleCurve) else result.line)
            curve_surfaces.setdefault(gamma, set()).update((i, j))

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
