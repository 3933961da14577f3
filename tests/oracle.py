"""Slow, obviously correct references for the incidence engine.

These are the all-pairs `Fraction` loops that `engine.count_incidences` and
`engine.decompose` used before the integer, shape-indexed core; the
differential tests in `test_engine.py` compare the engine against them.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from inclab import geom
from inclab.engine import BipartiteDecomposition
from inclab.errors import UnsupportedObject, ValidationError
from inclab.geom import (
    CircleCurve,
    Curve,
    LineCurve,
    Plane,
    Point3,
    Sphere,
    Surface,
    canonicalize,
    point_on_curve,
    point_on_surface,
    surface_pair_intersection,
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
