"""Instance generators: extremal grids, paraboloid lifts, packed copies,
random rational points on varieties, and distance/unit sphere families."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import engine, geom
from .errors import GenericityFailure, GuardExceeded, ValidationError
from .geom import (
    Circle,
    Curve,
    ImplicitPair,
    Implicit,
    Line,
    Point3,
    Sphere,
    Surface,
    TriPoly,
    canonicalize,
    frac,
    point,
    rational_sqrt,
)


@dataclass
class Instance:
    points: list[Point3]
    curves: list[Curve] = field(default_factory=list)
    surfaces: list[Surface] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extremal point-line grid

def gen_elekes_grid(kk: int) -> Instance:
    """Grid of 2*kk^3 points and kk^3 lines with kk^4 incidences, realizing
    the tight planar m^(2/3) n^(2/3) shape.  Points (i, j, 0) for i <= kk,
    j <= 2 kk^2; lines y = a x + b for a <= kk, b <= kk^2, all in z = 0."""
    if kk < 1:
        raise ValidationError("kk must be >= 1")
    if kk > 16:
        raise GuardExceeded("kk <= 16 size guard")
    pts = [point(i, j, 0) for i in range(1, kk + 1) for j in range(1, 2 * kk**2 + 1)]
    lines = [
        Line(point(0, b, 0), (1, a, 0))
        for a in range(1, kk + 1)
        for b in range(1, kk**2 + 1)
    ]
    return Instance(pts, curves=lines)


# ---------------------------------------------------------------------------
# paraboloid lift

def lift_point(x, y) -> Point3:
    x, y = frac(x), frac(y)
    return point(x, y, x * x + y * y)


def _parabola(a: Fraction, b: Fraction) -> ImplicitPair:
    # y - a x - b = 0 together with z - x^2 - y^2 = 0
    f = TriPoly({(0, 1, 0): Fraction(1), (1, 0, 0): -a, (0, 0, 0): -b})
    g = TriPoly({(0, 0, 1): Fraction(1), (2, 0, 0): Fraction(-1), (0, 2, 0): Fraction(-1)})
    return ImplicitPair(f, g)


def lift_surface(a, b, c0, c1, c2) -> Implicit:
    """(z - x^2 - y^2) + (y - a x - b)(c0 + c1 x + c2 y): a quadric through
    the lifted parabola of the line y = a x + b."""
    a, b = frac(a), frac(b)
    pair = _parabola(a, b)
    witness = TriPoly({(0, 0, 0): frac(c0), (1, 0, 0): frac(c1), (0, 1, 0): frac(c2)})
    return Implicit(pair.g + pair.f * witness)


def gen_paraboloid_lift(
    lines: Sequence[tuple], witnesses: Sequence[tuple] = (), planar_points: Sequence[tuple] = ()
) -> Instance:
    """Lift planar lines y = a x + b to vertical parabolas on z = x^2 + y^2,
    planar points (x, y) to (x, y, x^2 + y^2), and build one quadric per
    (line, witness) pair, each containing its parabola identically."""
    params = [(frac(a), frac(b)) for a, b in lines]
    if len(set(params)) != len(params):
        raise ValidationError("line parameter pairs must be distinct")
    curves: list[Curve] = [_parabola(a, b) for a, b in params]
    surfaces: list[Surface] = [
        lift_surface(a, b, *w) for (a, b) in params for w in witnesses
    ]
    if len({canonicalize(s) for s in surfaces}) != len(surfaces):
        raise ValidationError("quadrics must be distinct")
    pts = [lift_point(x, y) for x, y in planar_points]
    if len(set(pts)) != len(pts):
        raise ValidationError("points must be distinct")
    return Instance(pts, curves=curves, surfaces=surfaces)


# ---------------------------------------------------------------------------
# packed generic copies

def _translate_object(obj, v):
    if isinstance(obj, geom.Plane):
        n = (obj.a, obj.b, obj.c)
        return geom.Plane(obj.a, obj.b, obj.c, obj.d - geom.dot(n, v))
    if isinstance(obj, Sphere):
        return Sphere(point(*geom.vadd(obj.center.as_tuple(), v)), obj.radius2)
    if isinstance(obj, Implicit):
        return Implicit(obj.poly.translate(v))
    if isinstance(obj, Line):
        return Line(point(*geom.vadd(obj.origin.as_tuple(), v)), obj.direction)
    if isinstance(obj, Circle):
        return Circle(point(*geom.vadd(obj.center.as_tuple(), v)), obj.normal, obj.radius2)
    if isinstance(obj, ImplicitPair):
        return ImplicitPair(obj.f.translate(v), obj.g.translate(v))
    raise ValidationError(f"cannot translate {type(obj).__name__}")


def gen_packing_copies(template: Instance, copies: int, seed: int) -> Instance:
    """Union of `copies` translated copies of the template, with seeded
    rational translations chosen so copies are pairwise disjoint in points
    and objects and no cross incidences appear (incidences scale exactly)."""
    if copies < 1:
        raise ValidationError("copies must be >= 1")
    # a repeat in the template repeats in every packing: no reseed helps
    if len(set(template.points)) != len(template.points):
        raise ValidationError("template points must be distinct")
    objects = template.curves + template.surfaces
    if len({repr(canonicalize(o)) for o in objects}) != len(objects):
        raise ValidationError("template objects must be distinct")
    base_count, _ = engine.count_incidences(template.points, objects)
    for attempt in range(16):
        rng = random.Random(f"{seed}:{attempt}")
        pts: list[Point3] = []
        curves: list[Curve] = []
        surfaces: list[Surface] = []
        for c in range(copies):
            if c == 0:
                v = (Fraction(0), Fraction(0), Fraction(0))
            else:
                v = tuple(
                    Fraction(rng.randint(10**5, 10**7), rng.randint(1, 97)) for _ in range(3)
                )
            pts.extend(point(*geom.vadd(p.as_tuple(), v)) for p in template.points)
            curves.extend(_translate_object(o, v) for o in template.curves)
            surfaces.extend(_translate_object(o, v) for o in template.surfaces)
        if len(set(pts)) != len(pts):
            continue
        canon_objs = [canonicalize(o) for o in curves + surfaces]
        if len(set(map(repr, canon_objs))) != len(canon_objs):
            continue
        total, _ = engine.count_incidences(pts, curves + surfaces)
        if total != copies * base_count:
            continue
        return Instance(pts, curves=curves, surfaces=surfaces)
    raise GenericityFailure("no disjoint packing found in 16 reseeds")


# ---------------------------------------------------------------------------
# random rational points on varieties

def gen_random_on_variety(
    which: str,
    n: int,
    seed: int,
    center: Point3 = None,
    radius2=1,
) -> Instance:
    """n distinct rational points exactly on a sphere, the standard
    paraboloid z = x^2 + y^2, or the plane z = 0.

    Sphere points come from the stereographic parametrization
    c + r (2u, 2v, u^2 + v^2 - 1) / (1 + u^2 + v^2) with seeded rational
    (u, v); radius2 must be the square of a rational."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    which = which.lower()
    rng = random.Random(seed)

    def rand_q():
        return Fraction(rng.randint(-400, 400), rng.randint(1, 40))

    pts: set[Point3] = set()
    if which == "sphere":
        if center is None:
            center = point(0, 0, 0)
        radius2 = frac(radius2)
        # a zero radius puts every draw on the centre, so n > 1 is never reached
        if radius2 <= 0:
            raise ValidationError("sphere radius2 must be > 0")
        r = rational_sqrt(radius2)
        if r is None:
            raise ValidationError("sphere radius2 must be a rational square")
        cx, cy, cz = center.as_tuple()
        while len(pts) < n:
            u, v = rand_q(), rand_q()
            w = 1 + u * u + v * v
            pts.add(point(
                cx + r * 2 * u / w, cy + r * 2 * v / w, cz + r * (u * u + v * v - 1) / w
            ))
    elif which == "paraboloid":
        while len(pts) < n:
            pts.add(lift_point(rand_q(), rand_q()))
    elif which == "plane":
        while len(pts) < n:
            pts.add(point(rand_q(), rand_q(), 0))
    else:
        raise ValidationError(f"unknown variety {which!r}")
    ordered = sorted(pts, key=lambda p: (p.x, p.y, p.z))
    return Instance(ordered)


# ---------------------------------------------------------------------------
# distance-to-sphere reductions

def gen_distance_spheres(
    P1: Sequence[Point3], P2: Sequence[Point3]
) -> tuple[list[Surface], int]:
    """For each q in P2, spheres centered at q with every distinct squared
    distance realized over P1 x P2 as radius2.  Yields |P2| * t spheres and
    exactly |P1| * |P2| point-sphere incidences.

    P1 and P2 are cleared of denominators together (`geom.integer_coords`),
    so the squared distances are formed and deduplicated as ints over den^2;
    only the t distinct ones become `Fraction`s."""
    if not P1 or not P2:
        raise ValidationError("P1 and P2 must be nonempty")
    ints, den = geom.integer_coords([*P1, *P2])
    I1, I2 = ints[:len(P1)], ints[len(P1):]
    if len(set(I1)) != len(I1) or len(set(I2)) != len(I2):
        raise ValidationError("points must be distinct")
    if set(I1) & set(I2):
        raise ValidationError("P1 and P2 must be disjoint")
    d2s = sorted({
        (x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2 for x, y, z in I1 for a, b, c in I2
    })
    den2 = den * den
    radii = [Fraction(d, den2) for d in d2s]
    spheres = [Sphere(q, r) for q in P2 for r in radii]
    return spheres, len(radii)


def gen_unit_spheres(P: Sequence[Point3], radius2=1) -> list[Surface]:
    """One sphere of the given radius2 around each point of P; incidences
    count each pair at squared distance radius2 twice."""
    if len(set(P)) != len(P):
        raise ValidationError("points must be distinct")
    radius2 = frac(radius2)
    return [Sphere(p, radius2) for p in P]


def circle_axis_multiplicity(gamma: Circle, P2: Sequence[Point3]) -> int:
    """Number of P2 points on the axis of the circle (the line through its
    center along its normal); equals the number of family spheres through
    the circle up to the radius-pairing factor."""
    return sum(geom.on_axis(p, gamma) for p in P2)
