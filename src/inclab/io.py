"""File formats: rational "p/q" strings, points CSV, tagged JSON records
for surfaces and curves, and atomic writes.

A rational field is any string that `Fraction(s.strip())` accepts, with the
same value; everything else is a `ValidationError`.  Reading reads each
rational as a ratio, an int pair (numerator, denominator) in lowest terms
(`_ratio`): a plain ASCII integer or `p/q` with an optional sign comes
from `int()` directly, and only the rest (decimals, exponents,
underscores, non-ASCII digits, malformed strings) goes through
`Fraction`'s own parser.  Vectors are read cleared, as ints over the lcm of
their denominators (`_cleared`).

Each file has one reader, a walk that checks every record as its `geom`
object checks itself and keeps the values as ratios: `_point_rows` for a
points file, `_object_fields` for an objects file.  Two builders take the
walk's output.  `points_from_csv` and `objects_from_json` build the
`Point3`s and `geom` objects; `points_frame_from_csv` and
`object_rows_from_json` build the integer frame of `engine._frame_edges`,
the int triples of the points over their common denominator and the
objects' integer rows, with no `Fraction` or `geom` object, for `inclab
count`.  So both refuse the same files with the same message.  A points or
objects file repeats few distinct strings (a sphere file repeats each
centre once per radius), so the walk parses each distinct string once,
and reads each distinct `center`, `origin`, `direction` or `normal` array
of three strings once and shares the result; `objects_from_json` builds
one `Point3` per distinct point and one `Fraction` per distinct ratio.
Any other array (a wrong length, a non-string entry, a nested array) is
read on every occurrence and raises `ValidationError` every time.  The
tables live only for that call.

Writing keeps every byte of the `csv` and `json` writers it replaces.
`format_rational` reads the numerator and denominator of a `Fraction` or
int as they are.  `objects_to_json` writes each object's record
(`object_to_record`) on its own, so a centre shared by many spheres is
formatted once per sphere; a table of formatted centres saved about a
tenth of the time to write a distance-sphere file, under 1% of the time
to generate it.  `points_to_csv` joins `x,y,z` lines itself, since a rational never
needs CSV quoting.  Every JSON file and CLI payload goes through
`dumps_json`: a tree of str, int, list and str-keyed dict is written by a
small recursive writer, byte for byte
`json.dumps(v, indent=2, sort_keys=True) + "\n"`, and any other value
(bool, None, float, a dict with other keys) by `json.dumps` itself.
`atomic_write` writes the UTF-8 bytes to a temporary file in the target's
directory and renames it over the target.  The temporary file is created
with mode 0o666 under the umask, so every output gets the mode a plain
`open(path, "w")` gives a new file (0644 under umask 022), not the 0600 of
`tempfile.mkstemp`.
"""

from __future__ import annotations

import csv
import io as _io
import json
import json.encoder
import math
import os
import re
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .geom import (
    Circle,
    Implicit,
    ImplicitPair,
    Line,
    Plane,
    Point3,
    Sphere,
    TriPoly,
    primitive_ints,
)


def format_rational(x: Fraction) -> str:
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


# the strings whose value is plainly int(num) / int(den)
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _ratio(s: str) -> tuple[int, int]:
    """The value of a rational field as (numerator, denominator) in lowest
    terms, the denominator positive."""
    try:
        text = s.strip()
        plain = _PLAIN_RATIONAL.fullmatch(text)
        if plain is None:
            value = Fraction(text)
            return value.numerator, value.denominator
        num, den = plain.groups()
        if den is None:
            return int(num), 1
        num, den = int(num), int(den)
        if den == 0:
            raise ZeroDivisionError(text)
        g = math.gcd(num, den)
        return num // g, den // g
    except (AttributeError, ValueError, ZeroDivisionError) as exc:  # AttributeError: not a string
        raise ValidationError(f"bad rational {s!r}") from exc


def _fraction(ratio: tuple[int, int]) -> Fraction:
    num, den = ratio
    return Fraction(num) if den == 1 else Fraction(num, den)


def parse_rational(s: str) -> Fraction:
    return _fraction(_ratio(s))


def _cleared(ratios) -> tuple[tuple[int, ...], int]:
    """Ratios times the lcm of their denominators, as ints, and that lcm."""
    den = math.lcm(*[d for _, d in ratios])
    if den == 1:
        return tuple([n for n, _ in ratios]), 1
    return tuple([n * (den // d) for n, d in ratios]), den


def _interned(read):
    """`read` of a field, with one shared result per distinct string."""
    table: dict[str, object] = {}

    def interned(s):
        if type(s) is not str:
            return read(s)
        value = table.get(s)
        if value is None:
            value = table[s] = read(s)
        return value

    return interned


def _memo(read):
    """`read` with one shared result per distinct key."""
    table = {}

    def memo(key):
        value = table.get(key)
        if value is None:
            value = table[key] = read(key)
        return value

    return memo


# ---------------------------------------------------------------------------
# points CSV

def points_to_csv(points: Sequence[Point3]) -> str:
    fmt = format_rational
    return "x,y,z\n" + "".join([f"{fmt(p.x)},{fmt(p.y)},{fmt(p.z)}\n" for p in points])


def _point_rows(text: str, read) -> list[tuple]:
    """The walk of a points file: each row's three fields through `read`
    (`parse_rational` or `_ratio`), once per distinct string."""
    try:
        rows = [row for row in csv.reader(_io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ValidationError(f"bad points CSV: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise ValidationError("points CSV must start with header x,y,z")
    field = _interned(read)
    out = []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValidationError(f"points CSV row needs 3 fields, got {row!r}")
        x, y, z = row
        out.append((field(x), field(y), field(z)))
    return out


def points_from_csv(text: str) -> list[Point3]:
    return [Point3(x, y, z) for x, y, z in _point_rows(text, parse_rational)]


def points_frame_from_csv(text: str) -> tuple[list[tuple[int, int, int]], int]:
    """The points of a CSV file as int triples over their common
    denominator, and that denominator (`geom.integer_coords` of
    `points_from_csv`), read without building a `Point3`."""
    rows = _point_rows(text, _ratio)
    den = math.lcm(*[d for row in rows for _, d in row])
    if den == 1:
        return [(x, y, z) for (x, _), (y, _), (z, _) in rows], 1
    return [
        (x * (den // dx), y * (den // dy), z * (den // dz))
        for (x, dx), (y, dy), (z, dz) in rows
    ], den


# ---------------------------------------------------------------------------
# tagged object records

def tripoly_to_record(f: TriPoly) -> dict:
    return {f"{i},{j},{k}": format_rational(c) for (i, j, k), c in sorted(f.terms.items())}


def _terms(rec: dict, ratio) -> dict[tuple[int, int, int], tuple[int, int]]:
    """A polynomial record as {(i, j, k): ratio} of its nonzero terms,
    checked as `TriPoly` checks them."""
    if not isinstance(rec, dict):
        raise ValidationError("polynomial record must be a JSON object")
    terms = {}
    for key, val in rec.items():
        try:
            i, j, k = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad monomial key {key!r}") from exc
        terms[(i, j, k)] = ratio(val)
    terms = {m: c for m, c in terms.items() if c[0]}
    if any(e < 0 for m in terms for e in m):
        raise ValidationError("negative exponent in TriPoly")
    return terms


def _primitive_terms(terms: dict) -> list[tuple[tuple[int, int, int], int]]:
    """`TriPoly.primitive` of nonzero terms, as sorted (monomial, int) pairs."""
    monomials = sorted(terms)
    ints, _ = _cleared([terms[m] for m in monomials])
    g = math.gcd(*ints)
    if ints[-1] < 0:  # the leading term, at the largest monomial, is positive
        g = -g
    return [(m, c // g) for m, c in zip(monomials, ints)]


def _tripoly(terms: dict, fraction) -> TriPoly:
    return TriPoly({m: fraction(c) for m, c in terms.items()})


def tripoly_from_record(rec: dict) -> TriPoly:
    return _tripoly(_terms(rec, _ratio), _fraction)


def _point_field(p: Point3) -> list[str]:
    return [format_rational(p.x), format_rational(p.y), format_rational(p.z)]


def object_to_record(obj) -> dict:
    if isinstance(obj, Plane):
        return {"kind": "plane", "coeffs": [format_rational(c) for c in (obj.a, obj.b, obj.c, obj.d)]}
    if isinstance(obj, Sphere):
        return {
            "kind": "sphere",
            "center": _point_field(obj.center),
            "radius2": format_rational(obj.radius2),
        }
    if isinstance(obj, Implicit):
        return {"kind": "implicit", "poly": tripoly_to_record(obj.poly)}
    if isinstance(obj, Line):
        return {
            "kind": "line",
            "origin": _point_field(obj.origin),
            "direction": [format_rational(c) for c in obj.direction],
        }
    if isinstance(obj, Circle):
        return {
            "kind": "circle",
            "center": _point_field(obj.center),
            "normal": [format_rational(c) for c in obj.normal],
            "radius2": format_rational(obj.radius2),
        }
    if isinstance(obj, ImplicitPair):
        return {
            "kind": "implicit_pair",
            "f": tripoly_to_record(obj.f),
            "g": tripoly_to_record(obj.g),
        }
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _vector(rec: dict, key: str, size: int, ratio) -> tuple[tuple[int, ...], int]:
    """The record's `key` field, a JSON array of `size` rationals, cleared
    (`_cleared`)."""
    value = rec[key]
    if not isinstance(value, list) or len(value) != size:
        raise ValidationError(
            f"{rec['kind']!r} record: {key!r} must be an array of {size} rationals"
        )
    return _cleared([ratio(c) for c in value])


def _interned_vector(ratio):
    """`_vector` of a record's 3-vector field, with one shared result per
    distinct array of three strings.  Any other value is read through
    `_vector` on every occurrence, which raises `ValidationError` on it."""
    table: dict[tuple[str, str, str], tuple] = {}

    def vector(rec: dict, key: str) -> tuple[tuple[int, int, int], int]:
        value = rec[key]
        if type(value) is list and len(value) == 3:
            x, y, z = value
            if type(x) is type(y) is type(z) is str:
                strings = (x, y, z)
                found = table.get(strings)
                if found is None:
                    found = table[strings] = _cleared([ratio(x), ratio(y), ratio(z)])
                return found
        return _vector(rec, key, 3, ratio)

    return vector


def _record_fields(rec: dict, ratio, vector) -> tuple:
    """The walk of one object record: (kind, *fields), checked as the
    record's `geom` object checks itself on construction.  Rationals are
    ratios, vectors and points `_cleared`, polynomials `_terms`."""
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ValidationError("object record needs a 'kind' tag")
    kind = rec["kind"]
    try:
        if kind == "sphere":
            centre, r2 = vector(rec, "center"), ratio(rec["radius2"])
            if r2[0] <= 0:
                raise ValidationError("sphere needs radius2 > 0")
            return kind, centre, r2
        if kind == "line":
            origin, direction = vector(rec, "origin"), vector(rec, "direction")
            if not any(direction[0]):
                raise ValidationError("line direction must be nonzero")
            return kind, origin, direction
        if kind == "circle":
            centre, normal, r2 = vector(rec, "center"), vector(rec, "normal"), ratio(rec["radius2"])
            if not any(normal[0]):
                raise ValidationError("circle normal must be nonzero")
            if r2[0] <= 0:
                raise ValidationError("circle needs radius2 > 0")
            return kind, centre, normal, r2
        if kind == "plane":
            coeffs = _vector(rec, "coeffs", 4, ratio)
            if not any(coeffs[0][:3]):
                raise ValidationError("plane normal must be nonzero")
            return kind, coeffs
        if kind == "implicit":
            poly = _terms(rec["poly"], ratio)
            if not poly or max(map(sum, poly)) < 1:
                raise ValidationError("implicit surface needs a nonconstant polynomial")
            return kind, poly
        if kind == "implicit_pair":
            f, g = _terms(rec["f"], ratio), _terms(rec["g"], ratio)
            if not f or not g:
                raise ValidationError("implicit curve needs two nonzero polynomials")
            if _primitive_terms(f) == _primitive_terms(g):
                raise ValidationError("implicit pair must be independent polynomials")
            return kind, f, g
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {kind!r} record") from exc
    raise ValidationError(f"unknown object kind {kind!r}")


def _object_fields(text: str) -> list[tuple]:
    """The walk of an objects file: `_record_fields` of every record, with
    each distinct string parsed once and each distinct 3-vector read once."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError("objects file must be a JSON array")
    ratio = _interned(_ratio)
    vector = _interned_vector(ratio)
    return [_record_fields(rec, ratio, vector) for rec in data]


def _object(fields: tuple, fraction, point):
    """The `geom` object of a record's `_record_fields`."""
    kind = fields[0]
    if kind == "sphere":
        return Sphere(point(fields[1]), fraction(fields[2]))
    if kind == "line":
        return Line(point(fields[1]), _fractions(fields[2], fraction))
    if kind == "circle":
        _, centre, normal, r2 = fields
        return Circle(point(centre), _fractions(normal, fraction), fraction(r2))
    if kind == "plane":
        return Plane(*_fractions(fields[1], fraction))
    if kind == "implicit":
        return Implicit(_tripoly(fields[1], fraction))
    return ImplicitPair(_tripoly(fields[1], fraction), _tripoly(fields[2], fraction))


def _fractions(vector: tuple, fraction) -> tuple[Fraction, ...]:
    ints, den = vector
    return tuple([fraction((c, den)) for c in ints])


def _interned_point(fraction):
    """The `Point3` of a cleared point, one shared `Point3` per distinct
    point."""
    return _memo(lambda vector: Point3(*_fractions(vector, fraction)))


def object_from_record(rec: dict):
    fields = _record_fields(rec, _ratio, _interned_vector(_ratio))
    return _object(fields, _fraction, _interned_point(_fraction))


def objects_to_json(objects: Sequence) -> str:
    return dumps_json([object_to_record(o) for o in objects])


def objects_from_json(text: str) -> list:
    fraction = _memo(_fraction)
    point = _interned_point(fraction)
    return [_object(fields, fraction, point) for fields in _object_fields(text)]


def object_rows_from_json(text: str) -> tuple[list, list, list, list]:
    """The objects of a JSON file as the integer rows of
    `engine._frame_edges` (`engine._object_rows` of `objects_from_json`),
    read by the same walk without building a `geom` object."""
    centred, planes, lines, implicit = rows = ([], [], [], [])
    for oid, fields in enumerate(_object_fields(text)):
        kind = fields[0]
        if kind == "sphere":
            _, centre, (num, den) = fields
            centred.append((centre, num, den, None, oid))
        elif kind == "line":
            _, origin, (direction, _) = fields
            lines.append((primitive_ints(direction), origin, oid))
        elif kind == "circle":
            _, centre, (normal, _), (num, den) = fields
            centred.append((centre, num, den, primitive_ints(normal), oid))
        elif kind == "plane":
            planes.append((primitive_ints(fields[1][0]), oid))
        else:
            implicit.append((oid, [_integer_terms(f) for f in fields[1:]]))
    return rows


def _integer_terms(terms: dict) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(degree, `TriPoly.integer_terms()`) of nonzero terms."""
    ints, _ = _cleared(list(terms.values()))
    return max(map(sum, terms)), [(c, *m) for c, m in zip(ints, terms)]


# ---------------------------------------------------------------------------
# JSON text

class _NotPlain(Exception):
    """A value that the plain JSON writer leaves to `json.dumps`."""


_quote = json.encoder.encode_basestring_ascii


def _plain_json(value, indent: str, out: list):
    """Append the chunks of `value` as `json.dumps(value, indent=2,
    sort_keys=True)` writes it at nesting `indent` to `out`, for str, int,
    list and str-keyed dict only."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(str(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            if type(v) is str:  # the most common leaf, quoted without a call
                out.append(_quote(v))
            else:
                _plain_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        for key in value:
            if type(key) is not str:
                raise _NotPlain
        inner = indent + "  "
        sep = "{\n" + inner
        for k in sorted(value):
            out.append(sep)
            out.append(_quote(k))
            out.append(": ")
            v = value[k]
            if type(v) is str:
                out.append(_quote(v))
            else:
                _plain_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise _NotPlain


def dumps_json(data) -> str:
    """`json.dumps(data, indent=2, sort_keys=True) + "\\n"`."""
    out: list[str] = []
    try:
        _plain_json(data, "", out)
    except _NotPlain:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# atomic writes

# a temporary file must be new: O_EXCL fails on any existing name or link
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
_TEMP_ATTEMPTS = 100


def atomic_write(path: str, content: str):
    """Write `content` to `path` as UTF-8 through a temporary file in the
    same directory and `os.replace`, so the target is never half written.
    The temporary file gets mode 0o666 under the umask, as from `open`."""
    data = content.encode()
    directory = os.path.dirname(os.path.abspath(path))
    for _ in range(_TEMP_ATTEMPTS):  # a name already taken is drawn again
        tmp = os.path.join(directory, f".inclab-{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, _NEW_FILE, 0o666)
            break
        except FileExistsError:
            pass
    else:
        raise FileExistsError(f"no free temporary file name in {directory}")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
