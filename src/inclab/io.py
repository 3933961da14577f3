"""File formats: rational "p/q" strings, points CSV, tagged JSON records
for surfaces and curves, and atomic writes.

A rational field is any string that `Fraction(s.strip())` accepts, with the
same value; everything else is a `ValidationError`.  Reading an instance is
mostly parsing its rationals, so `parse_rational` builds the common forms,
a plain ASCII integer or `p/q` with an optional sign, from `int()` directly
and sends only the rest (decimals, exponents, underscores, non-ASCII
digits, malformed strings) through `Fraction`'s own parser.  A points or
objects file repeats few distinct strings (a sphere file repeats each
centre once per radius), so `points_from_csv` and `objects_from_json` parse
each distinct string once per call and share the resulting `Fraction`.
`objects_from_json` also interns vectors: a `center` or `origin` array of
three strings seen before in the file returns the same `Point3`, built and
validated once, so `engine._incidence_edges` clears each repeated centre
once.  Any other array (a wrong length, a non-string entry, a nested array)
is parsed on every occurrence and raises `ValidationError` every time.  The
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
)


def format_rational(x: Fraction) -> str:
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


# the strings whose Fraction is plainly Fraction(int(num), int(den))
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: str) -> Fraction:
    try:
        text = s.strip()
        plain = _PLAIN_RATIONAL.fullmatch(text)
        if plain is None:
            return Fraction(text)
        num, den = plain.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError) as exc:  # AttributeError: not a string
        raise ValidationError(f"bad rational {s!r}") from exc


def _interned_parser():
    """`parse_rational` that returns one shared Fraction per distinct string."""
    table: dict[str, Fraction] = {}

    def parse(s) -> Fraction:
        if type(s) is not str:
            return parse_rational(s)
        value = table.get(s)
        if value is None:
            value = table[s] = parse_rational(s)
        return value

    return parse


# ---------------------------------------------------------------------------
# points CSV

def points_to_csv(points: Sequence[Point3]) -> str:
    fmt = format_rational
    return "x,y,z\n" + "".join([f"{fmt(p.x)},{fmt(p.y)},{fmt(p.z)}\n" for p in points])


def points_from_csv(text: str) -> list[Point3]:
    try:
        rows = [row for row in csv.reader(_io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ValidationError(f"bad points CSV: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise ValidationError("points CSV must start with header x,y,z")
    parse = _interned_parser()
    out = []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValidationError(f"points CSV row needs 3 fields, got {row!r}")
        x, y, z = row
        out.append(Point3(parse(x), parse(y), parse(z)))
    return out


# ---------------------------------------------------------------------------
# tagged object records

def tripoly_to_record(f: TriPoly) -> dict:
    return {f"{i},{j},{k}": format_rational(c) for (i, j, k), c in sorted(f.terms.items())}


def tripoly_from_record(rec: dict) -> TriPoly:
    return _tripoly_from_record(rec, parse_rational)


def _tripoly_from_record(rec: dict, parse) -> TriPoly:
    if not isinstance(rec, dict):
        raise ValidationError("polynomial record must be a JSON object")
    terms = {}
    for key, val in rec.items():
        try:
            i, j, k = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad monomial key {key!r}") from exc
        terms[(i, j, k)] = parse(val)
    return TriPoly(terms)


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


def _vector(rec: dict, key: str, size: int, parse) -> list[Fraction]:
    """The record's `key` field: a JSON array of `size` rationals."""
    value = rec[key]
    if not isinstance(value, list) or len(value) != size:
        raise ValidationError(
            f"{rec['kind']!r} record: {key!r} must be an array of {size} rationals"
        )
    return [parse(c) for c in value]


def _interned_point(parse):
    """A reader of a record's point field (a JSON array of three rationals)
    that returns one shared Point3 per distinct array of three strings.
    Any other value is read through `_vector` on every occurrence, which
    raises `ValidationError` on it."""
    table: dict[tuple[str, str, str], Point3] = {}

    def point(rec: dict, key: str) -> Point3:
        value = rec[key]
        if type(value) is list and len(value) == 3:
            x, y, z = value
            if type(x) is type(y) is type(z) is str:
                strings = (x, y, z)
                found = table.get(strings)
                if found is None:
                    found = table[strings] = Point3(*_vector(rec, key, 3, parse))
                return found
        return Point3(*_vector(rec, key, 3, parse))

    return point


def object_from_record(rec: dict):
    return _object_from_record(rec, parse_rational, _interned_point(parse_rational))


def _object_from_record(rec: dict, parse, point):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ValidationError("object record needs a 'kind' tag")
    kind = rec["kind"]
    try:
        if kind == "plane":
            return Plane(*_vector(rec, "coeffs", 4, parse))
        if kind == "sphere":
            return Sphere(point(rec, "center"), parse(rec["radius2"]))
        if kind == "implicit":
            return Implicit(_tripoly_from_record(rec["poly"], parse))
        if kind == "line":
            return Line(point(rec, "origin"),
                        tuple(_vector(rec, "direction", 3, parse)))
        if kind == "circle":
            return Circle(point(rec, "center"),
                          tuple(_vector(rec, "normal", 3, parse)),
                          parse(rec["radius2"]))
        if kind == "implicit_pair":
            return ImplicitPair(_tripoly_from_record(rec["f"], parse),
                                _tripoly_from_record(rec["g"], parse))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {kind!r} record") from exc
    raise ValidationError(f"unknown object kind {kind!r}")


def objects_to_json(objects: Sequence) -> str:
    return dumps_json([object_to_record(o) for o in objects])


def objects_from_json(text: str) -> list:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError("objects file must be a JSON array")
    parse = _interned_parser()
    point = _interned_point(parse)
    return [_object_from_record(rec, parse, point) for rec in data]


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
