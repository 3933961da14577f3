"""Incidence counting, complete-bipartite decomposition, rich points,
K_{r,s} detection, and generic projection to the plane.

Counting, decomposition and the projection check find point-object
incidences through one integer core, `_frame_edges`.  It takes the points
as int triples over one denominator and the objects as integer rows: each
centre and line origin over its own denominator, squared radii as integer
pairs, primitive normals, directions and plane coefficients, and each
implicit polynomial's `TriPoly.integer_terms`, the integer form that the
partition censuses use.  `_incidence_edges` reads the rows off the objects'
integer forms (`_object_rows`); `inclab count` reads them straight from its
files (`io.points_frame_from_csv`, `io.object_rows_from_json`) and builds no
object.  The core puts everything over one denominator and buckets planes,
spheres, lines and circles by a shape key, so each point is looked up in the
buckets rather than tested against every object.  Only implicit surfaces and
curves are tested per pair, also in ints; each monomial is evaluated once
per point and shared by all of them.
Spheres and circles are matched by one routine, `_centred_edges`, over
buckets keyed by integer centre and integer target (the scaled squared
radius, computed in ints); a target shared by many centres is matched by
probing its integer shell around each centre instead of scanning every
point-centre pair.

`contains_krs` counts, for each r-subset of an object's incident points,
the objects holding it, instead of intersecting every s objects.

q, the most circles in one plane or on one sphere, has one kernel,
`_cospherical_max`, shared by `coplanar_cospherical_max` and the
similar-triangle census (`apps._apex_circles` builds its rows in closed
form).  Circles are rows (n, C, W) of one integer frame with a scale L
(`_circle_frame`): n the primitive normal, C the denominator-cleared
centre, W / L the squared radius in the same units.  A sphere's centre lies
on the axis of every circle on it, so the candidate centres are the points
known to lie on the axes and the crossings of axes, and `_sphere_key`, the
common sphere of two circles behind `common_sphere`, runs only on pairs of
circles that share an axis.
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
    Line,
    Plane,
    Point3,
    Sphere,
    Surface,
    canonicalize,
    cross,
    dot,
    primitive_vector,
    surface_pair_intersection,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class IncidenceGraph:
    object_ids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


def _integer_shell(t: int) -> list[tuple[int, int, int]]:
    """Every integer vector v with |v|^2 = t, for t >= 0.

    x and y run over the quarter disc x^2 + y^2 <= t (about pi t / 4 steps)
    and z is read off by `math.isqrt`; each hit is emitted with every sign
    of its nonzero entries.
    """
    shell = []
    for x in range(math.isqrt(t) + 1):
        rest = t - x * x
        for y in range(math.isqrt(rest) + 1):
            zz = rest - y * y
            z = math.isqrt(zz)
            if z * z == zz:
                shell.extend(
                    (sx, sy, sz)
                    for sx in ((x, -x) if x else (0,))
                    for sy in ((y, -y) if y else (0,))
                    for sz in ((z, -z) if z else (0,))
                )
    return shell


def _probed_shells(centred: dict[tuple, dict[int, list]], n: int) -> dict[int, list[tuple]]:
    """The targets of `_centred_edges`' buckets that are cheaper to probe
    than to scan against n points, each with its integer shell S.

    A target T held by k centres qualifies when listing S (about pi T / 4
    steps) is cheaper than scanning its k n point-centre pairs,
    4 T + 8 < k n, and looking S up around a centre is cheaper than
    scanning the points for it, |S| < n.
    """
    holders: dict[int, int] = {}
    for by_target in centred.values():
        for t in by_target:
            holders[t] = holders.get(t, 0) + 1
    shells = {}
    for t, k in holders.items():
        if 0 <= t and 4 * t + 8 < k * n:
            shell = _integer_shell(t)
            if len(shell) < n:
                shells[t] = shell
    return shells


def _centred_edges(
    points: Sequence[tuple[int, int, int]],
    centred: dict[tuple, dict[int, list[tuple[Optional[tuple], int]]]],
) -> list[tuple[int, int]]:
    """Every (point id, object id) pair of a point on a sphere or circle.

    Points and centres are int triples in one frame.  `centred` maps a
    centre C to the integer squared radius T in that frame, and T to the
    [(primitive normal n of a circle, or None for a sphere, object id)]
    with that centre and T.  A point P is on the object when
    |P - C|^2 = T and, for a circle, n . (P - C) = 0.

    Each target T is matched one of two ways, never both, so no edge is
    emitted twice.  A T that is cheaper to probe than to scan
    (`_probed_shells`) has its integer shell S = {v : |v|^2 = T} listed
    once, and each C + v is looked up among the points.  Every other T is
    scanned: each point P looks up |P - C|^2 in each centre's remaining
    targets.  Unit spheres around 40 or more points share one small T, so
    they are probed; distance spheres have large, mostly distinct T, and
    the similar-triangle census has few points, so they are mostly
    scanned.
    """
    shells = _probed_shells(centred, len(points))
    edges = []
    if shells:
        at: dict[tuple, list[int]] = {}
        for pid, p in enumerate(points):
            at.setdefault(p, []).append(pid)
        scanned = {}
        for (cx, cy, cz), by_target in centred.items():
            rest = {}
            for t, hit in by_target.items():
                shell = shells.get(t)
                if shell is None:
                    rest[t] = hit
                    continue
                for dx, dy, dz in shell:
                    pids = at.get((cx + dx, cy + dy, cz + dz))
                    if pids:
                        edges.extend(
                            (pid, oid) for n, oid in hit
                            if n is None or n[0] * dx + n[1] * dy + n[2] * dz == 0
                            for pid in pids
                        )
            if rest:
                scanned[(cx, cy, cz)] = rest
        centred = scanned
    for pid, (x, y, z) in enumerate(points):
        for (cx, cy, cz), by_target in centred.items():
            dx, dy, dz = x - cx, y - cy, z - cz
            hit = by_target.get(dx * dx + dy * dy + dz * dz)
            if hit:
                edges.extend(
                    (pid, oid) for n, oid in hit
                    if n is None or n[0] * dx + n[1] * dy + n[2] * dz == 0
                )
    return edges


def _object_rows(objects: Sequence) -> tuple[list, list, list, list]:
    """The objects' integer forms (`ints`) as the rows of `_frame_edges`; ids are indices."""
    centred, planes, lines, implicit = rows = ([], [], [], [])
    for oid, obj in enumerate(objects):
        if isinstance(obj, Sphere):
            centred.append((*obj.ints, None, oid))
        elif isinstance(obj, Circle):
            centred.append((*obj.ints, oid))
        elif isinstance(obj, Plane):
            planes.append((obj.ints, oid))
        elif isinstance(obj, Line):
            lines.append((*obj.ints, oid))
        elif isinstance(obj, (geom.Implicit, geom.ImplicitPair)):
            polys = (obj.poly,) if isinstance(obj, geom.Implicit) else (obj.f, obj.g)
            implicit.append((oid, [(f.degree(), f.integer_terms()) for f in polys]))
        else:
            raise UnsupportedObject(f"not a surface or curve: {type(obj).__name__}")
    return rows


def _frame_edges(
    points: Sequence[tuple[int, int, int]], den: int, rows: tuple[list, list, list, list]
) -> list[tuple[int, int]]:
    """Every incident (point id, object id) pair, for points given as int
    triples over den and objects given as integer rows (`_object_rows`,
    `io.object_rows_from_json`).

    A point's form ((x, y, z), d) (`geom.Point3.ints`) is its coordinates
    times d, the lcm of their denominators.  The rows are four lists:

    - spheres and circles: (form of the centre, numerator and denominator
      of r^2, primitive normal or None for a sphere, object id);
    - planes: (primitive (a, b, c, d) of the coefficients, object id);
    - lines: (primitive direction v, form of the origin, object id);
    - implicit surfaces and curves: (object id, [(degree,
      `TriPoly.integer_terms()`)] per polynomial).

    Everything is put in one frame, over D, the lcm of den and every
    point form's d, and matched in Python ints.  Each object is stored in a
    bucket under a shape key, and a point looks up the value it takes under
    each key instead of being tested against every object:

    - sphere or circle: integer centre C; |P - C|^2 against the integer
      target D^2 r^2; then n . (P - C) = 0 for the circles found
      (`_centred_edges`, which probes the integer shell of a small shared
      target instead of scanning);
    - plane: (a, b, c); -(a, b, c) . P against D d, always an integer, so
      no plane is skipped;
    - line: v; P x v against the moment O x v.

    A sphere or circle whose target is not an integer holds no point and is
    not stored.  Implicit surfaces and curves have no shape key and are
    tested per pair, each polynomial's terms scaled to D^d f(P / D); each
    of their monomials is evaluated once per point, from per-point tables
    of the powers the monomials use, and shared by all of them.
    """
    centred_rows, plane_rows, line_rows, implicit_rows = rows
    frame = math.lcm(den, *[row[0][1] for row in centred_rows], *[row[1][1] for row in line_rows])
    if frame != den:
        scale = frame // den
        points = [(x * scale, y * scale, z * scale) for x, y, z in points]
    frame2 = frame * frame
    # centre -> D^2 r^2 -> [(circle normal, or None for a sphere, oid)]
    centred: dict[tuple, dict[int, list[tuple[Optional[tuple], int]]]] = {}
    for (centre, d), num, r2den, normal, oid in centred_rows:
        target, rest = divmod(frame2 * num, r2den)
        if rest:
            continue
        if d != frame:
            scale = frame // d
            centre = (centre[0] * scale, centre[1] * scale, centre[2] * scale)
        centred.setdefault(centre, {}).setdefault(target, []).append((normal, oid))
    planes: dict[tuple, dict[int, list[int]]] = {}
    for (a, b, c, d), oid in plane_rows:
        planes.setdefault((a, b, c), {}).setdefault(frame * d, []).append(oid)
    lines: dict[tuple, dict[tuple, list[int]]] = {}
    for direction, ((ox, oy, oz), d), oid in line_rows:
        vx, vy, vz = direction
        scale = frame // d
        moment = (scale * (oy * vz - oz * vy), scale * (oz * vx - ox * vz),
                  scale * (ox * vy - oy * vx))
        lines.setdefault(direction, {}).setdefault(moment, []).append(oid)
    # implicit objects as [(oid, [[(c, monomial id)] per polynomial])]; each
    # monomial (i, j, k) is evaluated once per point and read by its id
    implicit = []
    monomials: dict[tuple[int, int, int], int] = {}
    for oid, polys in implicit_rows:
        implicit.append((oid, [
            [(c * frame ** (degree - i - j - k), monomials.setdefault((i, j, k), len(monomials)))
             for c, i, j, k in terms]
            for degree, terms in polys
        ]))

    edges = _centred_edges(points, centred)
    # the exponents each axis uses, so a sparse high-degree monomial costs
    # one power per point, not one per exponent below it
    powers = [sorted({m[axis] for m in monomials}) for axis in range(3)]
    for pid, (x, y, z) in enumerate(points):
        for (a, b, c), by_target in planes.items():
            hit = by_target.get(-(a * x + b * y + c * z))
            if hit:
                edges.extend((pid, oid) for oid in hit)
        for (vx, vy, vz), by_moment in lines.items():
            hit = by_moment.get((y * vz - z * vy, z * vx - x * vz, x * vy - y * vx))
            if hit:
                edges.extend((pid, oid) for oid in hit)
        if implicit:
            xs, ys, zs = ({e: v**e for e in used} for v, used in zip((x, y, z), powers))
            values = [xs[i] * ys[j] * zs[k] for i, j, k in monomials]
            edges.extend(
                (pid, oid) for oid, forms in implicit
                if all(sum([c * values[m] for c, m in terms]) == 0 for terms in forms)
            )
    return edges


def _incidence_edges(points: Sequence[Point3], objects: Sequence) -> list[tuple[int, int]]:
    """Every incident (point id, object id) pair; ids are indices
    (`_frame_edges` of `_object_rows`)."""
    coords, den = geom.integer_coords(points)
    return _frame_edges(coords, den, _object_rows(objects))


def count_incidences(points: Sequence[Point3], objects: Sequence) -> tuple[int, IncidenceGraph]:
    """Exact incidence count plus the full incidence graph (ids are indices)."""
    edges = _incidence_edges(points, objects)
    return len(edges), IncidenceGraph(tuple(range(len(objects))), frozenset(edges))


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

    One incidence pass over the surfaces gives every surface's points.  Two
    distinct planes or spheres that both contain a curve gamma meet in
    exactly gamma, so the points on gamma are the common points of the
    first two of its surfaces; the residual is the pass's edges minus the
    (point, surface) pairs that the components cover.
    """
    if not all(isinstance(s, (Plane, Sphere)) for s in surfaces):
        raise UnsupportedObject("decompose supports planes and spheres only")
    if len({s.ints for s in surfaces}) != len(surfaces):  # the forms are canonical
        raise ValidationError("surfaces must be pairwise distinct")
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct")

    curve_surfaces: dict[Curve, set[int]] = {}
    for i, j in itertools.combinations(range(len(surfaces)), 2):
        result = surface_pair_intersection(surfaces[i], surfaces[j])
        if isinstance(result, (Circle, Line)):
            curve_surfaces.setdefault(result, set()).update((i, j))  # a canonical curve

    edges = _incidence_edges(points, surfaces)
    points_on: list[set[int]] = [set() for _ in surfaces]
    for pid, sid in edges:
        points_on[sid].add(pid)
    components = []
    covered = set()
    for gamma in sorted(curve_surfaces, key=repr):
        s_ids = tuple(sorted(curve_surfaces[gamma]))
        p_ids = tuple(sorted(points_on[s_ids[0]] & points_on[s_ids[1]]))
        covered.update(itertools.product(p_ids, s_ids))
        components.append((gamma, p_ids, s_ids))
    return BipartiteDecomposition(components, frozenset(edges).difference(covered))


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
    """True iff some r points and s objects are pairwise all-incident.

    Each object adds one to the count of every r-subset of its incident
    points (sum of C(deg, r) work); the answer is whether some r-subset
    lies on s objects.
    """
    if r > 4 or s > 4:
        raise GuardExceeded("contains_krs enumeration guard: r, s <= 4")
    if r < 1 or s < 1:
        raise ValidationError("r and s must be positive")
    incident_points: dict[int, list[int]] = {o: [] for o in graph.object_ids}
    for pid, oid in graph.edges:
        incident_points[oid].append(pid)
    objects_on: dict[tuple[int, ...], int] = {}
    for pids in incident_points.values():
        for subset in itertools.combinations(sorted(pids), r):
            count = objects_on[subset] = objects_on.get(subset, 0) + 1
            if count >= s:
                return True
    return False


# ---------------------------------------------------------------------------
# generic projection to the plane

PlanarCurveRecord = tuple[str, tuple[int, ...]]


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


def _project_line(r0, r1, line: Line) -> Optional[PlanarCurveRecord]:
    o, d = line.origin.as_tuple(), line.direction
    du, dv = dot(r0, d), dot(r1, d)
    if du == 0 and dv == 0:
        return None  # projects to a point
    return ("line", primitive_vector([-dv, du, dv * dot(r0, o) - du * dot(r1, o)]))


def _project_circle(r0, r1, circle: Circle) -> Optional[PlanarCurveRecord]:
    # The circle is its plane n.x = e cut with its centre sphere
    # |x - c|^2 = r^2.  The plane's point over (u, v) solves r0.x = u,
    # r1.x = v, n.x = e, so det x = u (r1 x n) + v (n x r0) + e (r0 x r1)
    # with det = n.(r0 x r1), and det^2 (|x - c|^2 - r^2) is the image conic.
    n, c = circle.normal, circle.center.as_tuple()
    r01 = cross(r0, r1)
    det = dot(n, r01)
    if det == 0:
        return None  # the plane projects onto a line
    a, b = cross(r1, n), cross(n, r0)  # a != 0, else n || r1 and det = 0
    w = vsub(vscale(dot(n, c), r01), vscale(det, c))  # det (x - c) at u = v = 0
    return ("conic", primitive_vector([
        dot(a, a), 2 * dot(a, b), dot(b, b), 2 * dot(a, w), 2 * dot(b, w),
        dot(w, w) - det * det * circle.radius2,
    ]))


def project_generic(points: Sequence[Point3], curves: Sequence[Curve], seed: int) -> PlanarInstance:
    """Project through the first two rows of a seeded random invertible
    integer matrix.

    Validates exactly that projected points are pairwise distinct, that
    incidences and non-incidences are preserved, and that curve images are
    pairwise distinct; reseeds up to 16 times on failure, after refusing
    repeated points or curves, which no projection keeps apart.
    """
    for c in curves:
        if isinstance(c, geom.ImplicitPair):
            raise UnsupportedObject("project_generic supports lines and circles only")
    if len(set(points)) != len(points):
        raise ValidationError("points must be distinct")
    if len({canonicalize(c) for c in curves}) != len(curves):
        raise ValidationError("curves must be pairwise distinct")
    incident = set(_incidence_edges(points, curves))
    for attempt in range(16):
        rng = random.Random(f"{seed}:{attempt}")
        r0, r1, r2 = [[rng.randint(-19, 19) for _ in range(3)] for _ in range(3)]
        # r2 only rejects singular draws, so each seed picks the map that the
        # matrix-inverse form in tests/oracle.py picks
        if dot(r2, cross(r0, r1)) == 0:
            continue
        points2 = [(dot(r0, p.as_tuple()), dot(r1, p.as_tuple())) for p in points]
        if len(set(points2)) != len(points2):
            continue
        curves2 = [
            _project_line(r0, r1, c) if isinstance(c, Line) else _project_circle(r0, r1, c)
            for c in curves
        ]
        if None in curves2 or len(set(curves2)) != len(curves2):
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

def _circle_frame(circles: Sequence[Circle]) -> tuple[list[tuple], int, int]:
    """The circles in one integer frame: a (n, C, W) triple per circle, the
    centres' common denominator den, and the scale L.

    n is the primitive integer normal, C the centre times den, L the lcm of
    the denominators of den^2 r^2, and W = L den^2 r^2.
    """
    centres, den = geom.integer_coords(c.center for c in circles)
    widths, scale = geom.clear_denominators(den * den * c.radius2 for c in circles)
    frame = [
        (c.ints[3], centre, w) for c, centre, w in zip(circles, centres, widths)
    ]
    return frame, den, scale


def _sphere_key(ci: tuple, cj: tuple, scale: int) -> Optional[tuple[int, ...]]:
    """The sphere containing two framed circles, as an integer key, or None.

    With D = C_j - C_i, the sphere's centre is C_i + (p/q) n_i in frame
    units, with q > 0:
    - axes not parallel (k = n_i x n_j != 0): they meet when D . k = 0, at
      p = (D x n_j) . k, q = |k|^2; the circles then share the sphere iff
      q^2 W_i + L |p n_i|^2 = q^2 W_j + L |p n_i - q D|^2;
    - axes parallel: they must coincide (D x n_i = 0), so D = b n_i with b
      an int (n_i is primitive).  b = 0 means concentric circles, the same
      circle when W_i = W_j.  Otherwise p = W_j - W_i + L b^2 |n_i|^2 and
      q = 2 L b |n_i|^2, negated together if q < 0.

    The key is q O, q and L q^2 den^2 R^2 (O the centre, R^2 the radius
    squared) divided by g, g and g^2, for g the gcd of q O and q, so equal
    spheres have equal keys.
    """
    (n, c, w), (m, e, v) = ci, cj
    nx, ny, nz = n
    dx, dy, dz = e[0] - c[0], e[1] - c[1], e[2] - c[2]
    nn = nx * nx + ny * ny + nz * nz
    mx, my, mz = m
    kx, ky, kz = ny * mz - nz * my, nz * mx - nx * mz, nx * my - ny * mx
    if kx or ky or kz:
        if dx * kx + dy * ky + dz * kz:
            return None  # skew axes
        p = (dy * mz - dz * my) * kx + (dz * mx - dx * mz) * ky + (dx * my - dy * mx) * kz
        q = kx * kx + ky * ky + kz * kz
        r2 = q * q * w + scale * p * p * nn
        ux, uy, uz = p * nx - q * dx, p * ny - q * dy, p * nz - q * dz
        if r2 != q * q * v + scale * (ux * ux + uy * uy + uz * uz):
            return None
    else:
        if dy * nz - dz * ny or dz * nx - dx * nz or dx * ny - dy * nx:
            return None  # parallel, distinct axes
        if not (dx or dy or dz):
            if w == v:
                raise CoincidentObjects("circles coincide")
            return None  # concentric coaxial with distinct radii
        b = dx // nx if nx else dy // ny if ny else dz // nz
        p = v - w + scale * b * b * nn
        q = 2 * scale * b * nn
        if q < 0:
            p, q = -p, -q
        r2 = q * q * w + scale * p * p * nn
    ox, oy, oz = q * c[0] + p * nx, q * c[1] + p * ny, q * c[2] + p * nz
    g = math.gcd(ox, oy, oz, q)
    return ox // g, oy // g, oz // g, q // g, r2 // (g * g)


def _key_sphere(key: tuple[int, ...], den: int, scale: int) -> Sphere:
    ox, oy, oz, q, r2 = key
    return Sphere(
        Point3(Fraction(ox, q * den), Fraction(oy, q * den), Fraction(oz, q * den)),
        Fraction(r2, scale * q * q * den * den),
    )


def common_sphere(c1: Circle, c2: Circle) -> Optional[Sphere]:
    """The unique sphere containing both circles, if one exists."""
    (f1, f2), den, scale = _circle_frame([c1, c2])
    key = _sphere_key(f1, f2, scale)
    return None if key is None else _key_sphere(key, den, scale)


def _cospherical_max(
    rows: dict[tuple, Sequence[tuple[int, ...]]],
    points: Sequence[tuple[int, int, int]],
    scale: int,
) -> tuple[int, dict[tuple, int], dict[tuple, int], list[list[tuple]]]:
    """The largest number of framed circles in one plane or on one sphere.

    `rows` maps each of a nonempty set of distinct circles (n, C, W) with
    scale L to tuples of ids of `points` (int triples in the same frame)
    known to lie on its axis; an empty sequence when none is known.
    Returns:

    - the count;
    - the number of circles in each plane (n, n . C), in the order first
      met;
    - a count per `_sphere_key`, never more than the sphere holds;
    - the rows of each axis that held exactly the best count so far when
      it was reached, and was not searched.

    A sphere holding the returned count maps to that count here, or lies
    with all its circles on one of those axes (`_axis_spheres` of it finds
    it).  The census reads only the count; `coplanar_cospherical_max`
    searches those axes only when a sphere beats every plane.

    The axis of a circle is the line through its centre along its normal,
    keyed by (n, n x C).  A sphere's centre lies on the axis of every
    circle on it, so a sphere holding circles on two distinct axes is
    centred where those axes cross.  The candidate centres of an axis are:

    - its known points, as (x, y, z, 1);
    - its crossing with every other axis that shares no known point with
      it, is coplanar with it (reciprocal product n_A . m_B + n_B . m_A = 0
      for moments m = n x C) and is not parallel to it.  Two axes through
      a common known point cross there, which is a candidate already.

    A circle (n, C, W) and a candidate O = (X, Y, Z) / q on its axis, with
    gcd(X, Y, Z, q) = 1 and q > 0, name one sphere, keyed as `_sphere_key`
    keys it: (X, Y, Z, q, q^2 W + L |(X, Y, Z) - q C|^2).  A sphere holding
    circles on two distinct axes has its centre among the candidates of
    each of them, and an axis lists each candidate once, so its key is
    counted exactly once per circle on it.  A sphere whose circles all
    share one axis may be centred off every candidate; `_axis_spheres`
    finds it from the pairs within each axis holding more than the best
    count.
    """
    planes: dict[tuple, int] = {}
    # axis (n, n x C) -> (rows on it, ids of its known points)
    axes: dict[tuple, tuple[list, set]] = {}
    for row, ids in rows.items():
        n, (cx, cy, cz), _ = row
        nx, ny, nz = n
        plane = (n, nx * cx + ny * cy + nz * cz)
        planes[plane] = planes.get(plane, 0) + 1
        axis = (n, (ny * cz - nz * cy, nz * cx - nx * cz, nx * cy - ny * cx))
        on_axis, known = axes.setdefault(axis, ([], set()))
        on_axis.append(row)
        known.update(*ids)
    # (n, m, bitmask of its known points, a point C on it, its candidate
    # centres) per axis
    groups = [
        (*n, *m, sum(1 << k for k in known), on_axis[0][1], {(*points[k], 1) for k in known})
        for (n, m), (on_axis, known) in axes.items()
    ]
    for a, (nx, ny, nz, mx, my, mz, mask, (cx, cy, cz), centres) in enumerate(groups):
        for ux, uy, uz, vx, vy, vz, other, e, others in groups[a + 1:]:
            if mask & other or nx * vx + ny * vy + nz * vz + ux * mx + uy * my + uz * mz:
                continue  # crossing at a shared known point, or skew
            kx, ky, kz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
            if not (kx or ky or kz):
                continue  # parallel
            # the crossing C_a + (p / q) n_a, as in `_sphere_key`
            dx, dy, dz = e[0] - cx, e[1] - cy, e[2] - cz
            p = (dy * uz - dz * uy) * kx + (dz * ux - dx * uz) * ky + (dx * uy - dy * ux) * kz
            q = kx * kx + ky * ky + kz * kz
            ox, oy, oz = q * cx + p * nx, q * cy + p * ny, q * cz + p * nz
            g = math.gcd(ox, oy, oz, q)
            crossing = (ox // g, oy // g, oz // g, q // g)
            centres.add(crossing)
            others.add(crossing)
    spheres: dict[tuple, int] = {}
    for (on_axis, _), group in zip(axes.values(), groups):
        centres = group[-1]
        for _, (cx, cy, cz), w in on_axis:
            for ox, oy, oz, q in centres:
                dx, dy, dz = ox - q * cx, oy - q * cy, oz - q * cz
                key = (ox, oy, oz, q, q * q * w + scale * (dx * dx + dy * dy + dz * dz))
                spheres[key] = spheres.get(key, 0) + 1
    best = max(max(planes.values()), max(spheres.values(), default=0))
    ties = []
    for on_axis, _ in axes.values():
        # an axis with fewer circles than the best count cannot reach it,
        # and one with just as many can only tie
        if len(on_axis) == best:
            ties.append(on_axis)
        elif len(on_axis) > best:
            for key, count in _axis_spheres(on_axis, scale).items():
                if count > spheres.get(key, 0):
                    spheres[key] = count
                    best = max(best, count)
    return best, planes, spheres, ties


def _axis_spheres(on_axis: Sequence[tuple], scale: int) -> dict[tuple, int]:
    """The `_sphere_key` of every sphere holding two or more of the framed
    circles of one axis, with the number of them it holds.

    Two distinct circles lie on at most one common sphere, so a sphere
    holding c of them is named by h = C(c, 2) pairs.
    """
    hits: dict[tuple, int] = {}
    for i, ri in enumerate(on_axis):
        for rj in on_axis[i + 1:]:
            key = _sphere_key(ri, rj, scale)
            if key is not None:
                hits[key] = hits.get(key, 0) + 1
    return {key: (1 + math.isqrt(1 + 8 * h)) // 2 for key, h in hits.items()}


def _on_sphere(row: tuple, key: tuple, scale: int) -> bool:
    """Whether the framed circle (n, C, W) lies on the sphere of a `_sphere_key`."""
    (nx, ny, nz), (cx, cy, cz), w = row
    ox, oy, oz, q, r2 = key
    dx, dy, dz = ox - q * cx, oy - q * cy, oz - q * cz
    return (
        not (dy * nz - dz * ny or dz * nx - dx * nz or dx * ny - dy * nx)
        and q * q * w + scale * (dx * dx + dy * dy + dz * dz) == r2
    )


def coplanar_cospherical_max(circles: Sequence[Circle]) -> tuple[int, Optional[Surface]]:
    """Max number of the circles lying in one plane or on one sphere.

    Ties go to a plane over a sphere, then to the plane or sphere named
    first in i < j pair order: the plane of the first circle, or the sphere
    whose two first circles come first.  The count comes from the
    axis-crossing kernel `_cospherical_max` on the circles' integer frame
    (`_circle_frame`); `Plane` and `Sphere` witnesses are built only for
    the answer.
    """
    if not circles:
        return 0, None
    frame, den, scale = _circle_frame(circles)
    rows = dict.fromkeys(frame, ())
    if len(rows) != len(frame):
        raise CoincidentObjects("circles coincide")
    best, planes, spheres, ties = _cospherical_max(rows, (), scale)
    if max(planes.values()) == best:
        (a, b, c), e = max(planes, key=planes.get)
        return best, canonicalize(Plane(a, b, c, Fraction(-e, den)))
    keys = [key for key, count in spheres.items() if count == best]
    keys += [
        key for on_axis in ties
        for key, count in _axis_spheres(on_axis, scale).items() if count == best
    ]

    def first_two(key):
        return [i for i, row in enumerate(frame) if _on_sphere(row, key, scale)][:2]

    return best, _key_sphere(min(keys, key=first_two), den, scale)
