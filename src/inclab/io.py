"""File formats: rational "p/q" strings, points CSV, tagged JSON records
for surfaces and curves, and atomic writes."""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
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
    point,
)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (AttributeError, ValueError, ZeroDivisionError) as exc:  # AttributeError: not a string
        raise ValidationError(f"bad rational {s!r}") from exc


# ---------------------------------------------------------------------------
# points CSV

def points_to_csv(points: Sequence[Point3]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    for p in points:
        writer.writerow([format_rational(c) for c in p.as_tuple()])
    return buf.getvalue()


def points_from_csv(text: str) -> list[Point3]:
    reader = csv.reader(_io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["x", "y", "z"]:
        raise ValidationError("points CSV must start with header x,y,z")
    out = []
    for row in rows[1:]:
        if len(row) != 3:
            raise ValidationError(f"points CSV row needs 3 fields, got {row!r}")
        out.append(point(*(parse_rational(c) for c in row)))
    return out


# ---------------------------------------------------------------------------
# tagged object records

def tripoly_to_record(f: TriPoly) -> dict:
    return {f"{i},{j},{k}": format_rational(c) for (i, j, k), c in sorted(f.terms.items())}


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


def object_to_record(obj) -> dict:
    if isinstance(obj, Plane):
        return {"kind": "plane", "coeffs": [format_rational(c) for c in (obj.a, obj.b, obj.c, obj.d)]}
    if isinstance(obj, Sphere):
        return {
            "kind": "sphere",
            "center": [format_rational(c) for c in obj.center.as_tuple()],
            "radius2": format_rational(obj.radius2),
        }
    if isinstance(obj, Implicit):
        return {"kind": "implicit", "poly": tripoly_to_record(obj.poly)}
    if isinstance(obj, Line):
        return {
            "kind": "line",
            "origin": [format_rational(c) for c in obj.origin.as_tuple()],
            "direction": [format_rational(c) for c in obj.direction],
        }
    if isinstance(obj, Circle):
        return {
            "kind": "circle",
            "center": [format_rational(c) for c in obj.center.as_tuple()],
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


def object_from_record(rec: dict):
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


def objects_to_json(objects: Sequence) -> str:
    return json.dumps([object_to_record(o) for o in objects], indent=2, sort_keys=True) + "\n"


def objects_from_json(text: str) -> list:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError("objects file must be a JSON array")
    return [object_from_record(rec) for rec in data]


def dumps_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# atomic writes

def atomic_write(path: str, content: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".inclab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
