"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 search-budget failure.  Errors
are emitted as one-line JSON records on stderr.  All data files use the
exact rational formats from the io module; output writes are atomic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import apps, bounds, construct, engine, io, partition
from .errors import SearchFailure, ValidationError
from .geom import Line, point


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")


def _load_points(path: str):
    return io.points_from_csv(_read(path))


def _load_objects(path: str):
    return io.objects_from_json(_read(path))


def _emit(args, payload: dict):
    text = io.dumps_json(payload)
    if getattr(args, "output", None):
        io.atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _write_instance(inst, prefix: str):
    io.atomic_write(prefix + ".points.csv", io.points_to_csv(inst.points))
    io.atomic_write(
        prefix + ".objects.json", io.objects_to_json(inst.curves + inst.surfaces)
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    kind = args.generator
    if kind == "elekes":
        inst = construct.gen_elekes_grid(args.k)
    elif kind == "paraboloid":
        lines = _colon_tuples("--lines", args.lines, 2)
        witnesses = _colon_tuples("--witness", args.witness or [], 3)
        pts = _colon_tuples("--point", args.point or [], 2)
        inst = construct.gen_paraboloid_lift(lines, witnesses, pts)
    elif kind == "packing":
        objects = _load_objects(args.objects)
        template = construct.Instance(
            _load_points(args.points),
            curves=[o for o in objects if not _is_surface(o)],
            surfaces=[o for o in objects if _is_surface(o)],
        )
        inst = construct.gen_packing_copies(template, args.copies, args.seed)
    elif kind == "variety":
        inst = construct.gen_random_on_variety(
            args.variety, args.n, args.seed, radius2=io.parse_rational(args.radius2)
        )
    elif kind == "distance-spheres":
        p1 = _load_points(args.points)
        p2 = _load_points(args.points2)
        spheres, t = construct.gen_distance_spheres(p1, p2)
        inst = construct.Instance(p1, surfaces=spheres, label=f"distance spheres t={t}")
        sys.stdout.write(io.dumps_json({"t": t, "spheres": len(spheres)}))
    elif kind == "unit-spheres":
        pts = _load_points(args.points)
        spheres = construct.gen_unit_spheres(pts, io.parse_rational(args.radius2))
        inst = construct.Instance(pts, surfaces=spheres, label="unit spheres")
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown generator {kind!r}")
    _write_instance(inst, args.out_prefix)
    return 0


def _colon_tuples(flag: str, entries, arity: int) -> list[tuple]:
    """Each colon-separated entry of a flag as a tuple of `arity` rationals."""
    tuples = []
    for entry in entries:
        fields = entry.split(":")
        if len(fields) != arity:
            raise ValidationError(f"{flag} entry {entry!r} needs {arity} colon-separated fields")
        tuples.append(tuple(io.parse_rational(c) for c in fields))
    return tuples


def _is_surface(obj) -> bool:
    from .geom import Implicit, Plane, Sphere

    return isinstance(obj, (Plane, Sphere, Implicit))


def _cmd_count(args) -> int:
    pts = _load_points(args.points)
    objs = _load_objects(args.objects)
    count, _ = engine.count_incidences(pts, objs)
    _emit(args, {"incidences": count})
    return 0


def _cmd_partition(args) -> int:
    if args.cross_lines < 0:
        raise ValidationError("--cross-lines must be >= 0")
    pts = _load_points(args.points)
    part = partition.build_partition(
        pts, args.rounds, io.parse_rational(args.delta), args.seed
    )
    payload = {"partition": partition.partition_to_jsonable(part)}
    if args.census:
        census = partition.cell_census(pts, part)
        payload["census"] = {
            ("Z" if label == partition.Z_LABEL else "".join(label)): size
            for label, size in census.items()
        }
    if args.cross_lines:
        import random

        rng = random.Random(args.seed + 1)
        crossings = []
        for _ in range(args.cross_lines):
            origin = point(*(Fraction(rng.randint(-50, 50)) for _ in range(3)))
            direction = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            if all(c == 0 for c in direction):
                direction = (Fraction(1), Fraction(0), Fraction(0))
            crossings.append(partition.crossing_census(Line(origin, direction), part))
        payload["crossings"] = crossings
    _emit(args, payload)
    return 0


def _cmd_decompose(args) -> int:
    pts = _load_points(args.points)
    surfaces = _load_objects(args.surfaces)
    dec = engine.decompose(pts, surfaces)
    j, sum_p, sum_s, residual = engine.j_value(dec)
    _emit(args, {
        "components": [
            {
                "curve": io.object_to_record(gamma),
                "point_ids": list(p_ids),
                "surface_ids": list(s_ids),
            }
            for gamma, p_ids, s_ids in dec.components
        ],
        "residual_edges": sorted(map(list, dec.residual_edges)),
        "J": j, "sum_points": sum_p, "sum_surfaces": sum_s,
    })
    return 0


def _cmd_triangles(args) -> int:
    pts = _load_points(args.points)
    try:
        rho1, rho2 = (io.parse_rational(c) for c in args.shape.split(","))
    except ValueError:
        raise ValidationError("--shape expects rho1,rho2")
    census = apps.similar_triangles_via_incidences(pts, apps.TriangleShape(rho1, rho2))
    _emit(args, {
        "count_bruteforce": census.count_bruteforce,
        "incidences": census.incidences,
        "circles": len(census.multiplicities),
        "max_circle_multiplicity": max(census.multiplicities, default=0),
        "cospherical_coplanar_max": census.cospherical_coplanar_max,
        "flags": census.flags,
    })
    return 0


def _cmd_distances(args) -> int:
    pts = _load_points(args.points)
    if args.mode == "distinct":
        value = apps.distinct_distances(pts)
    elif args.mode == "bipartite":
        if not args.points2:
            raise ValidationError("bipartite mode needs --points2")
        value = apps.bipartite_distinct_distances(pts, _load_points(args.points2))
    else:
        value = apps.repeated_distances(pts, io.parse_rational(args.d2))
    _emit(args, {"mode": args.mode, "value": value})
    return 0


def _cmd_verify(args) -> int:
    params = {}
    if args.params:
        for item in args.params.split(","):
            if "=" not in item:
                raise ValidationError(f"bad --params entry {item!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = io.parse_rational(val)
    report = bounds.verify_instance(
        args.observed, bounds.BoundFormula(args.formula, params)
    )
    _emit(args, {
        "formula": report.formula,
        "observed": report.observed,
        "bound": report.bound_value,
        "ratio": report.ratio,
        "flag": report.flag,
    })
    return 0


def _cmd_report(args) -> int:
    series = []
    for row in _read(args.series).strip().splitlines():
        if row.strip().lower().startswith("scale"):
            continue
        fields = row.split(",")
        if len(fields) != 2:
            raise ValidationError(f"series row needs scale,observed: {row!r}")
        try:
            series.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValidationError(f"series row needs two integers: {row!r}") from None
    payload = {"series": series}
    if args.fit:
        slope, intercept, residual = bounds.fit_exponent(series)
        payload["fit"] = {"slope": slope, "intercept": intercept, "residual": residual}
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: `parse_args` keeps no
    state between calls, and building it costs about as much as a small
    op."""
    parser = argparse.ArgumentParser(
        prog="inclab", description="exact incidence-geometry laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an instance")
    gsub = g.add_subparsers(dest="generator", required=True)

    ge = gsub.add_parser("elekes")
    ge.add_argument("--k", type=int, required=True, dest="k")
    ge.add_argument("--out-prefix", required=True)

    gp = gsub.add_parser("paraboloid")
    gp.add_argument("--lines", nargs="+", required=True, help="a:b pairs")
    gp.add_argument("--witness", nargs="*", help="c0:c1:c2 triples")
    gp.add_argument("--point", nargs="*", help="x:y planar points to lift")
    gp.add_argument("--out-prefix", required=True)

    gk = gsub.add_parser("packing")
    gk.add_argument("--points", required=True)
    gk.add_argument("--objects", required=True)
    gk.add_argument("--copies", type=int, required=True)
    gk.add_argument("--seed", type=int, default=0)
    gk.add_argument("--out-prefix", required=True)

    gv = gsub.add_parser("variety")
    gv.add_argument("--variety", choices=["sphere", "paraboloid", "plane"], required=True)
    gv.add_argument("--n", type=int, required=True)
    gv.add_argument("--seed", type=int, default=0)
    gv.add_argument("--radius2", default="1")
    gv.add_argument("--out-prefix", required=True)

    gd = gsub.add_parser("distance-spheres")
    gd.add_argument("--points", required=True, help="P1 CSV")
    gd.add_argument("--points2", required=True, help="P2 CSV")
    gd.add_argument("--out-prefix", required=True)

    gu = gsub.add_parser("unit-spheres")
    gu.add_argument("--points", required=True)
    gu.add_argument("--radius2", default="1")
    gu.add_argument("--out-prefix", required=True)

    c = sub.add_parser("count", help="count exact incidences")
    c.add_argument("--points", required=True)
    c.add_argument("--objects", required=True)
    c.add_argument("--output")

    p = sub.add_parser("partition", help="build a partitioning polynomial")
    p.add_argument("--points", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--delta", default="1/4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--census", action="store_true")
    p.add_argument("--cross-lines", type=int, default=0)
    p.add_argument("--output")

    d = sub.add_parser("decompose", help="complete bipartite decomposition")
    d.add_argument("--points", required=True)
    d.add_argument("--surfaces", required=True)
    d.add_argument("--output")

    t = sub.add_parser("triangles", help="similar-triangle census")
    t.add_argument("--points", required=True)
    t.add_argument("--shape", required=True, help="rho1,rho2")
    t.add_argument("--output")

    ds = sub.add_parser("distances", help="distance counters")
    ds.add_argument("--points", required=True)
    ds.add_argument("--points2")
    ds.add_argument("--mode", choices=["distinct", "bipartite", "repeated"], required=True)
    ds.add_argument("--d2", default="1")
    ds.add_argument("--output")

    v = sub.add_parser("verify", help="compare a count against a bound shape")
    v.add_argument("--formula", required=True, choices=bounds.FORMULA_NAMES)
    v.add_argument("--params", default="")
    v.add_argument("--observed", type=int, required=True)
    v.add_argument("--output")

    r = sub.add_parser("report", help="series report with optional log-log fit")
    r.add_argument("--series", required=True, help="CSV of scale,observed rows")
    r.add_argument("--fit", action="store_true")
    r.add_argument("--output")

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "count": _cmd_count,
    "partition": _cmd_partition,
    "decompose": _cmd_decompose,
    "triangles": _cmd_triangles,
    "distances": _cmd_distances,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"error": "validation", "message": str(exc)}) + "\n")
        return 1
    except SearchFailure as exc:
        record = {"error": "search", "message": str(exc)}
        if getattr(exc, "best_imbalance", None) is not None:
            record["best_imbalance"] = str(exc.best_imbalance)
        sys.stderr.write(json.dumps(record) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
