"""Out-of-program tracing for the traced run.

`Tracer.install` wraps inclab's public functions from the outside, in every
inclab namespace that binds them: `engine` from-imports the geom
predicates, `apps` reaches `engine.*` and `partition` reaches `roots.*`
through module attributes, and module-internal calls look up their own
module's globals.  Nothing inside the package changes.

Coarse functions get one span each: name, start, end, parent span and op id.
The hot ones (thousands of calls per op) are aggregated per parent span as
calls, inclusive and self seconds, and true results.  Everything stays in
memory until `dump`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, function) -> layer.  One span per call.
SPANNED = {
    ("cli", "main"): "cli",
    ("io", "points_from_csv"): "io.parse",
    ("io", "objects_from_json"): "io.parse",
    ("io", "atomic_write"): "io.write",
    ("construct", "gen_elekes_grid"): "construct.generate",
    ("construct", "gen_distance_spheres"): "construct.generate",
    ("construct", "gen_unit_spheres"): "construct.generate",
    ("engine", "count_incidences"): "engine.count_incidences",
    ("engine", "coplanar_cospherical_max"): "engine.cospherical_max",
    ("apps", "similar_triangles_via_incidences"): "apps.census",
    ("apps", "triangle_circles"): "apps.triangle_circles",
    ("apps", "similar_triangles_bruteforce"): "apps.bruteforce",
    ("partition", "build_partition"): "partition.build",
    ("partition", "cell_census"): "partition.census",
    ("partition", "crossing_census"): "partition.crossing",
    ("roots", "sample_points_between_roots"): "roots.sample_points",
}

# (module, function) -> layer.  Aggregated per parent span.
HOT = {
    ("geom", "point_on_surface"): "geom.predicate",
    ("geom", "point_on_curve"): "geom.predicate",
    ("geom", "surface_pair_intersection"): "geom.pair_intersection",
    ("geom", "curve_pair_intersection"): "geom.pair_intersection",
    ("geom", "canonicalize"): "geom.canonicalize",
    ("engine", "common_sphere"): "engine.common_sphere",
    ("roots", "ueval"): "roots.ueval",
}

# What counts as a "true" result, for the useful-outcome ratios.
_TRUTH = {
    "geom.predicate": bool,
    "engine.common_sphere": lambda result: result is not None,
}


def _utf8_len(text: str) -> int:
    return len(text.encode())


# Byte counts taken from the text argument, positional index -> counter.
_BYTES = {
    ("io", "points_from_csv"): 0,
    ("io", "objects_from_json"): 0,
    ("io", "atomic_write"): 1,
}


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.op = None
        # [name, start, end, parent, op, child_s, error, bytes]
        self.spans: list[list] = []
        # (parent span, layer) -> [calls, incl_s, self_s, true]
        self.hot: dict[tuple[int, str], list] = {}
        # each frame: [enclosing span id, seconds covered by its children]
        self._stack: list[list] = [[-1, 0.0]]

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, byte_arg):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            rec = [name, 0.0, 0.0, parent[0], self.op, 0.0, None, 0]
            spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            rec[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                parent[1] += end - start
                rec[5] = frame[1]
                if byte_arg is not None:
                    rec[7] = _utf8_len(args[byte_arg])

        return wrapped

    def _hot(self, layer: str, fn):
        hot, stack = self.hot, self._stack
        truth = _TRUTH.get(layer)

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                parent[1] += dt
                key = (frame[0], layer)
                stat = hot.get(key)
                if stat is None:
                    stat = hot[key] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
            if truth is not None and truth(result):
                stat[3] += 1
            return result

        return wrapped

    # -- install / remove -------------------------------------------------

    def install(self) -> list:
        """Rebind every traced function in every inclab namespace; returns
        the undo list for `uninstall`."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "inclab" or name.startswith("inclab."))
        ]
        undo = []
        for table, hot in ((SPANNED, False), (HOT, True)):
            for (mod, fname), layer in table.items():
                original = getattr(sys.modules["inclab." + mod], fname)
                if hot:
                    wrapper = self._hot(layer, original)
                else:
                    wrapper = self._span(f"{mod}.{fname}", original, _BYTES.get((mod, fname)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        return undo

    @staticmethod
    def uninstall(undo: list):
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, self seconds, true results, bytes, errors."""
        span_layer = {f"{m}.{f}": layer for (m, f), layer in SPANNED.items()}
        out: dict[str, dict] = {}

        def entry(layer):
            return out.setdefault(
                layer, {"calls": 0, "self_s": 0.0, "true": 0, "bytes": 0, "errors": 0}
            )

        for name, start, end, _parent, _op, child_s, error, nbytes in self.spans:
            e = entry(span_layer[name])
            e["calls"] += 1
            e["self_s"] += end - start - child_s
            e["bytes"] += nbytes
            e["errors"] += error is not None
        for (_parent, layer), (calls, _incl, self_s, true) in self.hot.items():
            e = entry(layer)
            e["calls"] += calls
            e["self_s"] += self_s
            e["true"] += true
        return out

    def counters(self) -> dict[str, tuple]:
        """The exact part of `layers`: everything but seconds."""
        return {
            layer: (e["calls"], e["true"], e["bytes"], e["errors"])
            for layer, e in sorted(self.layers().items())
        }

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "spans": [
                {
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": end - start - child_s,
                    "error": error, "bytes": nbytes,
                }
                for sid, (name, start, end, parent, op, child_s, error, nbytes)
                in enumerate(self.spans)
            ],
            "hot": [
                {"parent": parent, "layer": layer, "calls": calls, "incl_s": incl,
                 "self_s": self_s, "true": true}
                for (parent, layer), (calls, incl, self_s, true) in self.hot.items()
            ],
        }


def dump(tracers: list[Tracer], path: str):
    with open(path, "w") as fh:
        json.dump([t.to_jsonable() for t in tracers], fh)
