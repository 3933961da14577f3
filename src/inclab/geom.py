"""Exact rational geometric kernel.

Scalars are `fractions.Fraction` (always reduced), points are rational
3-vectors, and radii are stored *squared*, so objects stay rational.
`clear_denominators` is the one place where `Fraction`s become ints over
their common denominator: `integer_coords` applies it to points,
`primitive_vector` to vectors and `TriPoly.integer_terms` to polynomials,
and the integer cores of `engine`, `apps`, `partition` and `roots` start
from these (`io` clears its int pairs itself, so `inclab count` builds no
`Fraction`).  Each `Point3`, `Plane`, `Sphere`, `Line` and `Circle` has
one integer form, `ints`: coordinates over their own denominator, r^2 as
an int pair, primitive coefficients, directions and normals.  It is built
on first read into the instance `__dict__` (`_form`), so construction,
`==`, `hash` and `repr` are untouched.  The predicates and every surface
and curve meet decide in ints on these forms, cross-multiplying
denominators, and build `Fraction`s only for the objects they return;
their `Fraction` forms are the references in `tests/oracle.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import CoincidentObjects, UnsupportedObject, ValidationError

Vec3 = tuple[Fraction, Fraction, Fraction]


def frac(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValidationError(f"refusing to coerce float {value!r}; pass a rational")
    return Fraction(value)


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# vectors and points

def vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vsub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vscale(t, v: Vec3) -> Vec3:
    return (t * v[0], t * v[1], t * v[2])


def dot(u: Vec3, v: Vec3) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def norm2(v: Vec3) -> Fraction:
    return dot(v, v)


def is_zero_vec(v: Vec3) -> bool:
    return v[0] == 0 and v[1] == 0 and v[2] == 0


def clear_denominators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rational values times the lcm of their denominators, as ints, and
    that lcm: the one place where rationals become integers."""
    values = list(values)
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def primitive_vector(v: Iterable[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    # ints and Fractions are exact as they are; frac rejects floats
    ints, _ = clear_denominators([c if isinstance(c, (int, Fraction)) else frac(c) for c in v])
    return primitive_ints(ints)


def primitive_ints(ints: list[int]) -> tuple[int, ...]:
    """`primitive_vector` of an integer vector."""
    g = math.gcd(*ints)
    if g == 0:
        raise ValidationError("zero vector has no primitive form")
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple([c // g for c in ints])


class _form:
    """An object's `ints`, built on the first read and kept in the instance
    `__dict__`, where later reads find it before this non-data descriptor;
    unlike `functools.cached_property`, it takes no lock."""

    def __init__(self, build):
        self.build = build

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        form = obj.__dict__["ints"] = self.build(obj)
        return form


@dataclass(frozen=True)
class Point3:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        if type(self.x) is type(self.y) is type(self.z) is Fraction:
            return
        object.__setattr__(self, "x", frac(self.x))
        object.__setattr__(self, "y", frac(self.y))
        object.__setattr__(self, "z", frac(self.z))

    def as_tuple(self) -> Vec3:
        return (self.x, self.y, self.z)

    @_form
    def ints(self) -> tuple[tuple[int, int, int], int]:
        """((x, y, z), d): the coordinates times d, the lcm of their denominators."""
        (x, y, z), d = clear_denominators(self.as_tuple())
        return (x, y, z), d


def point(x, y, z) -> Point3:
    return Point3(x, y, z)


def _fraction_triple(v) -> bool:
    """Whether v is already a tuple of three Fractions, as a parsed line
    direction or circle normal is."""
    return (type(v) is tuple and len(v) == 3
            and type(v[0]) is type(v[1]) is type(v[2]) is Fraction)


def integer_coords(points: Iterable[Point3]) -> tuple[list[tuple[int, int, int]], int]:
    """The points' coordinates times their common denominator, as int
    triples, and that denominator."""
    ints, den = clear_denominators(c for p in points for c in p.as_tuple())
    it = iter(ints)
    return list(zip(it, it, it)), den


def dist2(p: Point3, q: Point3) -> Fraction:
    return norm2(vsub(p.as_tuple(), q.as_tuple()))


# ---------------------------------------------------------------------------
# trivariate polynomials

Monomial = tuple[int, int, int]


class TriPoly:
    """Sparse trivariate polynomial with exact rational coefficients.

    `terms` maps exponent triples (i, j, k) to nonzero coefficients; the zero
    polynomial has an empty map.  `_cleared` keeps the degree and cleared terms.
    """

    __slots__ = ("terms", "_cleared")

    def __init__(self, terms: Optional[dict[Monomial, Fraction]] = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = frac(coeff)
                if c != 0:
                    i, j, k = mono
                    if i < 0 or j < 0 or k < 0:
                        raise ValidationError("negative exponent in TriPoly")
                    clean[(int(i), int(j), int(k))] = c
        self.terms = clean
        self._cleared = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "TriPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "TriPoly":
        return cls({(0, 0, 0): frac(c)})

    @classmethod
    def linear(cls, a, b, c, d) -> "TriPoly":
        """a*x + b*y + c*z + d."""
        return cls(
            {
                (1, 0, 0): frac(a),
                (0, 1, 0): frac(b),
                (0, 0, 1): frac(c),
                (0, 0, 0): frac(d),
            }
        )

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if self._cleared is not None:  # cached with the cleared terms
            return self._cleared[0]
        if not self.terms:
            return -1
        return max(i + j + k for (i, j, k) in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TriPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "TriPoly(0)"
        parts = []
        for mono in sorted(self.terms):
            parts.append(f"{self.terms[mono]}*x^{mono[0]}y^{mono[1]}z^{mono[2]}")
        return "TriPoly(" + " + ".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return TriPoly(out)

    def __neg__(self) -> "TriPoly":
        return TriPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other: Union["TriPoly", int, Fraction]) -> "TriPoly":
        if isinstance(other, (int, Fraction)):
            return TriPoly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, Fraction] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                mono = (i1 + i2, j1 + j2, k1 + k2)
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return TriPoly(out)

    __rmul__ = __mul__

    def evaluate(self, p: Point3) -> Fraction:
        total = Fraction(0)
        for (i, j, k), c in self.terms.items():
            total += c * p.x**i * p.y**j * p.z**k
        return total

    def integer_terms(self, den: int = 1) -> list[tuple[int, int, int, int]]:
        """The terms (c den**(d - |m|), i, j, k), c the coefficients cleared of
        denominators and d the degree: on integer coordinates P their
        `integer_value` is a positive multiple of den**d f(P / den)."""
        if self._cleared is None:
            cs, _ = clear_denominators(self.terms.values())
            self._cleared = self.degree(), [(c, *m) for c, m in zip(cs, self.terms)]
        d, terms = self._cleared
        if den == 1:
            return terms
        return [(c * den ** (d - i - j - k), i, j, k) for c, i, j, k in terms]

    def translate(self, v: Vec3) -> "TriPoly":
        """Return g with g(x) = f(x - v): the zero set shifted by +v."""
        out = TriPoly.zero()
        shifted = [
            TriPoly.linear(1, 0, 0, -v[0]),
            TriPoly.linear(0, 1, 0, -v[1]),
            TriPoly.linear(0, 0, 1, -v[2]),
        ]
        for (i, j, k), c in self.terms.items():
            term = TriPoly.constant(c)
            for axis, e in ((0, i), (1, j), (2, k)):
                for _ in range(e):
                    term = term * shifted[axis]
            out = out + term
        return out

    def primitive(self) -> "TriPoly":
        """Canonical scalar multiple: integer coprime coefficients, leading
        coefficient (largest exponent triple) positive."""
        if not self.terms:
            return TriPoly.zero()
        scaled = primitive_vector([self.terms[m] for m in sorted(self.terms)])
        out = {m: c for m, c in zip(sorted(self.terms), scaled)}
        lead = max(out)
        if out[lead] < 0:
            out = {m: -c for m, c in out.items()}
        return TriPoly(out)

    def is_scalar_multiple_of(self, other: "TriPoly") -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.primitive() == other.primitive()


def integer_value(terms: Iterable[tuple[int, int, int, int]], x: int, y: int, z: int) -> int:
    """The value of `TriPoly.integer_terms` at the integer point (x, y, z)."""
    return sum([c * x**i * y**j * z**k for c, i, j, k in terms])


# ---------------------------------------------------------------------------
# surfaces

@dataclass(frozen=True)
class Plane:
    """a*x + b*y + c*z + d = 0 with (a, b, c) != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        if not (type(self.a) is type(self.b) is type(self.c) is type(self.d) is Fraction):
            for f in ("a", "b", "c", "d"):
                object.__setattr__(self, f, frac(getattr(self, f)))
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ValidationError("plane normal must be nonzero")

    # the primitive (a, b, c, d), whose first nonzero entry is one of a, b, c
    ints = _form(lambda self: primitive_vector((self.a, self.b, self.c, self.d)))


@dataclass(frozen=True)
class Sphere:
    center: Point3
    radius2: Fraction

    def __post_init__(self):
        if type(self.radius2) is not Fraction:
            object.__setattr__(self, "radius2", frac(self.radius2))
        if self.radius2.numerator <= 0:  # the sign; cheaper than a Fraction comparison
            raise ValidationError("sphere needs radius2 > 0")

    # (centre's ints, numerator and denominator of r^2)
    ints = _form(lambda self: (self.center.ints, self.radius2.numerator, self.radius2.denominator))


@dataclass(frozen=True)
class Implicit:
    poly: TriPoly

    def __post_init__(self):
        if self.poly.is_zero() or self.poly.degree() < 1:
            raise ValidationError("implicit surface needs a nonconstant polynomial")


Surface = Union[Plane, Sphere, Implicit]


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class Line:
    origin: Point3
    direction: Vec3

    def __post_init__(self):
        if not _fraction_triple(self.direction):
            object.__setattr__(self, "direction", tuple(frac(c) for c in self.direction))
        if len(self.direction) != 3:
            raise ValidationError("line direction needs 3 entries")
        if is_zero_vec(self.direction):
            raise ValidationError("line direction must be nonzero")

    # (primitive direction, origin's ints)
    ints = _form(lambda self: (primitive_vector(self.direction), self.origin.ints))


@dataclass(frozen=True)
class Circle:
    center: Point3
    normal: Vec3
    radius2: Fraction

    def __post_init__(self):
        if not _fraction_triple(self.normal):
            object.__setattr__(self, "normal", tuple(frac(c) for c in self.normal))
        if type(self.radius2) is not Fraction:
            object.__setattr__(self, "radius2", frac(self.radius2))
        if len(self.normal) != 3:
            raise ValidationError("circle normal needs 3 entries")
        if is_zero_vec(self.normal):
            raise ValidationError("circle normal must be nonzero")
        if self.radius2 <= 0:
            raise ValidationError("circle needs radius2 > 0")

    def plane(self) -> Plane:
        n = self.normal
        return Plane(n[0], n[1], n[2], -dot(n, self.center.as_tuple()))

    # (centre's ints, numerator and denominator of r^2, primitive normal)
    ints = _form(lambda self: (self.center.ints, self.radius2.numerator,
                               self.radius2.denominator, primitive_vector(self.normal)))


@dataclass(frozen=True)
class ImplicitPair:
    f: TriPoly
    g: TriPoly

    def __post_init__(self):
        if self.f.is_zero() or self.g.is_zero():
            raise ValidationError("implicit curve needs two nonzero polynomials")
        if self.f.is_scalar_multiple_of(self.g):
            raise ValidationError("implicit pair must be independent polynomials")


Curve = Union[Line, Circle, ImplicitPair]


# ---------------------------------------------------------------------------
# canonical forms

def canonicalize(obj):
    """Canonical representative within each tag class; idempotent."""
    if isinstance(obj, Plane):
        # the first nonzero entry is one of a, b, c, since the normal is nonzero
        return Plane(*primitive_vector([obj.a, obj.b, obj.c, obj.d]))
    if isinstance(obj, Sphere):
        return obj
    if isinstance(obj, Implicit):
        return Implicit(obj.poly.primitive())
    if isinstance(obj, Line):
        d = obj.ints[0]
        o = obj.origin.as_tuple()
        t = dot(o, d) / dot(d, d)
        base = vsub(o, vscale(t, d))
        return Line(Point3(*base), d)
    if isinstance(obj, Circle):
        return Circle(obj.center, obj.ints[3], obj.radius2)
    if isinstance(obj, ImplicitPair):
        f = obj.f.primitive()
        g = obj.g.primitive()
        key_f = sorted(f.terms.items())
        key_g = sorted(g.terms.items())
        if key_g < key_f:
            f, g = g, f
        return ImplicitPair(f, g)
    raise UnsupportedObject(f"cannot canonicalize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# incidence predicates

def _offset(p: tuple, q: tuple) -> tuple[tuple[int, int, int], int]:
    """((p - q) s, s) for the `ints` of p and q, s their denominators' product."""
    (x, y, z), d = p
    (qx, qy, qz), e = q
    return (e * x - d * qx, e * y - d * qy, e * z - d * qz), d * e


def point_on_surface(p: Point3, surface: Surface) -> bool:
    if isinstance(surface, Plane):
        a, b, c, e = surface.ints
        (x, y, z), d = p.ints
        return a * x + b * y + c * z + e * d == 0
    if isinstance(surface, Sphere):
        centre, num, den = surface.ints
        w, s = _offset(p.ints, centre)
        return den * norm2(w) == num * s * s
    if isinstance(surface, Implicit):
        (x, y, z), d = p.ints
        return integer_value(surface.poly.integer_terms(d), x, y, z) == 0
    raise UnsupportedObject(f"not a surface: {type(surface).__name__}")


def point_on_curve(p: Point3, curve: Curve) -> bool:
    if isinstance(curve, Line):
        v, origin = curve.ints
        w, _ = _offset(p.ints, origin)
        return is_zero_vec(cross(w, v))
    if isinstance(curve, Circle):
        centre, num, den, n = curve.ints
        w, s = _offset(p.ints, centre)
        return dot(w, n) == 0 and den * norm2(w) == num * s * s
    if isinstance(curve, ImplicitPair):
        (x, y, z), d = p.ints
        return all(integer_value(f.integer_terms(d), x, y, z) == 0 for f in (curve.f, curve.g))
    raise UnsupportedObject(f"not a curve: {type(curve).__name__}")


def on_axis(p: Point3, circle: Circle) -> bool:
    """Whether p is on the circle's axis (through its centre, along its normal)."""
    centre, _, _, n = circle.ints
    w, _ = _offset(p.ints, centre)
    return is_zero_vec(cross(w, n))


# ---------------------------------------------------------------------------
# surface-pair intersections (closed forms)

def surface_pair_intersection(s1: Surface, s2: Surface) -> Union[Circle, Line, Point3, None]:
    """The common points of two planes or spheres: a `Circle`, a `Line`, the
    `Point3` where they touch, or None when they do not meet.

    Raises UnsupportedObject for implicit surfaces and CoincidentObjects when
    the surfaces are equal, as `curve_pair_intersection` does for curves.
    """
    if isinstance(s1, Implicit) or isinstance(s2, Implicit):
        raise UnsupportedObject("implicit surface intersections are not supported")
    if isinstance(s1, Plane) and isinstance(s2, Plane):
        return _plane_plane(s1, s2)
    if isinstance(s1, Plane) and isinstance(s2, Sphere):
        return _plane_sphere(s1, s2)
    if isinstance(s1, Sphere) and isinstance(s2, Plane):
        return _plane_sphere(s2, s1)
    return _sphere_sphere(s1, s2)


def _plane_plane(p1: Plane, p2: Plane) -> Optional[Line]:
    f1, f2 = p1.ints, p2.ints
    line = _plane_meet(f1, f2)
    if line is None:
        if f1 == f2:  # the primitive forms are the canonical planes
            raise CoincidentObjects("surfaces coincide")
        return None
    v, (foot, q) = line  # the canonical line: its origin is orthogonal to v
    return Line(Point3(*[Fraction(x, q) for x in foot]), v)


def _plane_meet(f1: tuple, f2: tuple) -> Optional[tuple]:
    """The int line where two int plane forms (n, d) meet, as a `Line.ints`,
    or None if they are parallel: the primitive u = n1 x n2, and the form
    (F, |u|^2) of its point nearest 0, F = -d1 (n2 x u) - d2 (u x n1)."""
    n1, n2 = f1[:3], f2[:3]
    u = cross(n1, n2)
    if is_zero_vec(u):
        return None
    foot = [-f1[3] * a - f2[3] * b for a, b in zip(cross(n2, u), cross(u, n1))]
    return primitive_ints(u), (foot, norm2(u))


def _plane_sphere(pl: Plane, sp: Sphere) -> Union[Circle, Point3, None]:
    # the centre C / e has its foot C / e - L n / (e |n|^2) on n . x + k = 0,
    # L = n . C + k e, and the circle there has radius^2 r^2 - L^2 / (e |n|)^2
    *n, k = pl.ints
    (c, e), num, den = sp.ints
    nn, ell = norm2(n), dot(n, c) + k * e
    top = num * e * e * nn - den * ell * ell
    if top < 0:
        return None
    foot = Point3(*[Fraction(nn * x - ell * m, e * nn) for x, m in zip(c, n)])
    if top == 0:
        return foot
    return Circle(foot, primitive_ints(n), Fraction(top, den * e * e * nn))


def _sphere_sphere(s1: Sphere, s2: Sphere) -> Union[Circle, Point3, None]:
    # |c2 - c1|^2, r1^2, r2^2 are D, R1, R2 over K = s^2 m1 m2; the circle is
    # c1 + T (c2 - c1) / (2 D), T = D + R1 - R2, of radius^2 (4 D R1 - T^2) / (4 D K)
    (c1, e1), n1, m1 = s1.ints
    centre2, n2, m2 = s2.ints
    axis, s = _offset(centre2, (c1, e1))
    d2 = norm2(axis)
    if d2 == 0:
        if (n1, m1) == (n2, m2):
            raise CoincidentObjects("surfaces coincide")
        return None
    ss = s * s
    big_d, r1 = d2 * m1 * m2, ss * n1 * m2
    t = big_d + r1 - ss * n2 * m1
    top = 4 * big_d * r1 - t * t
    if top < 0:
        return None
    q, u = 2 * big_d * s, 2 * big_d * (s // e1)
    center = Point3(*[Fraction(u * c + t * a, q) for c, a in zip(c1, axis)])
    if top == 0:
        return center
    return Circle(center, primitive_ints(axis), Fraction(top, 2 * q * s * m1 * m2))


# ---------------------------------------------------------------------------
# curve-pair intersections

def curve_pair_intersection(c1: Curve, c2: Curve) -> list[Point3]:
    """Exact rational common points of two lines/circles.

    Raises UnsupportedObject for implicit curves and CoincidentObjects when
    the curves are equal (parallel lines through one point, circles with one
    integer form).  Intersection points with irrational coordinates cannot
    exist in this artifact's rational point universe and are omitted.  Points
    of a line come in increasing t along its own direction, and points of
    two circles in increasing (x, y, z) order.
    """
    if isinstance(c1, ImplicitPair) or isinstance(c2, ImplicitPair):
        raise UnsupportedObject("implicit curve intersections are not supported")
    if isinstance(c1, Line) and isinstance(c2, Line):
        return _line_line(c1, c2)
    if isinstance(c1, Line) and isinstance(c2, Circle):
        return _line_circle(c1, c2)
    if isinstance(c1, Circle) and isinstance(c2, Line):
        return _line_circle(c2, c1)
    return _circle_circle(c1, c2)


def _line_line(l1: Line, l2: Line) -> list[Point3]:
    # with w = (o2 - o1) s, the point is o1 + (w x v2) . n v1 / (s |n|^2)
    (v1, (x1, d1)), (v2, origin2) = l1.ints, l2.ints
    w, s = _offset(origin2, (x1, d1))
    n = cross(v1, v2)
    if is_zero_vec(n):
        if is_zero_vec(cross(w, v1)):
            raise CoincidentObjects("curves coincide")
        return []  # parallel and distinct
    if dot(w, n) != 0:
        return []  # skew
    nn, k, e = norm2(n), dot(cross(w, v2), n), origin2[1]
    return [Point3(*[Fraction(x * e * nn + k * a, s * nn) for x, a in zip(x1, v1)])]


def _line_circle(line: Line, circle: Circle) -> list[Point3]:
    points = _line_on_circle(*line.ints, circle.ints)
    if next(filter(None, line.direction)) < 0:
        points.reverse()  # v points against the line's own direction
    return points


def _line_on_circle(v: tuple, origin: tuple, circle: tuple) -> list[Point3]:
    """The rational points of the line origin + t v on the circle, for their
    `ints`, in increasing t.  With w = (o - c) s, the line meets the
    circle's centre sphere at u = s t for the roots u of a u^2 + 2 b u + c
    = 0; those on its plane are kept.  The roots' sum is rational, so a
    rational crossing of the plane on the circle is never dropped."""
    centre, num, den, n = circle
    w, s = _offset(origin, centre)
    a, b = den * norm2(v), den * dot(w, v)
    disc = b * b - a * (den * norm2(w) - num * s * s)
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    nw, nv, e = dot(n, w), dot(n, v), centre[1]
    return [Point3(*[Fraction(x * e * a + m * vx, a * s) for x, vx in zip(origin[0], v)])
            for m in ((-b - root, -b + root) if root else (-b,)) if a * nw + m * nv == 0]


def _circle_circle(c1: Circle, c2: Circle) -> list[Point3]:
    # Every common point lies on c1's plane and on a second plane: c2's, or,
    # when c2 lies in c1's plane, the radical plane 2 (a2 - a1) . x =
    # |a2|^2 - |a1|^2 + r1^2 - r2^2 of the circles' centre spheres.  The two
    # planes meet in a line; its points on c1 that are also on c2 are the
    # answer, in increasing t along its primitive direction: in (x, y, z) order.
    (a1, e1), num1, den1, n1 = c1.ints
    (a2, e2), num2, den2, n2 = c2.ints
    plane1 = (*[e1 * c for c in n1], -dot(n1, a1))
    line = _plane_meet(plane1, (*[e2 * c for c in n2], -dot(n2, a2)))
    if line is None:
        w, s = _offset((a2, e2), (a1, e1))
        if dot(n1, w) != 0:
            return []  # parallel planes
        if is_zero_vec(w):
            if (num1, den1) == (num2, den2):
                raise CoincidentObjects("curves coincide")
            return []  # concentric coplanar, distinct radii
        m = den1 * den2  # the radical plane times s^2 m
        rhs = (m * dot(w, [e1 * p + e2 * q for p, q in zip(a2, a1)])
               + s * s * (num1 * den2 - num2 * den1))
        line = _plane_meet(plane1, (*[2 * s * m * c for c in w], -rhs))
    return [p for p in _line_on_circle(*line, c1.ints) if point_on_curve(p, c2)]


# ---------------------------------------------------------------------------
# containment helpers shared by the incidence engine

def surface_contains_curve(surface: Surface, curve: Curve) -> bool:
    """Exact test that a plane/sphere fully contains a line/circle."""
    if isinstance(surface, Plane):
        normal = surface.ints[:3]
        if isinstance(curve, Line):
            return dot(normal, curve.ints[0]) == 0 and point_on_surface(curve.origin, surface)
        if isinstance(curve, Circle):
            return (point_on_surface(curve.center, surface)
                    and is_zero_vec(cross(curve.ints[3], normal)))
        raise UnsupportedObject("containment undefined for implicit curves")
    if isinstance(surface, Sphere):
        if isinstance(curve, Line):
            return False
        if isinstance(curve, Circle):
            # the sphere's centre on the circle's axis, r_s^2 - r_c^2 from its centre
            centre, num, den = surface.ints
            ccentre, cnum, cden, n = curve.ints
            w, s = _offset(centre, ccentre)
            return (is_zero_vec(cross(w, n))
                    and den * cden * norm2(w) == (num * cden - cnum * den) * s * s)
        raise UnsupportedObject("containment undefined for implicit curves")
    raise UnsupportedObject("containment undefined for implicit surfaces")
