"""Seeded workloads.

Each workload turns a seed into instance files, written through in-process
`inclab generate` and `inclab.io` calls, and into a list of ops: one
`inclab` argv each (without `--output`) plus an independent check of its
output.  Instance sizes come from a fixed cycle of cells that the op list
repeats, so every seed has the same mix; the seed only moves coordinates
and search seeds.  The share of each cell puts p50 and p90 inside a group
of ops of similar cost, not on the edge between two groups, where a small
shift in cost would jump the quantile.
"""

from __future__ import annotations

import contextlib
import io as _pyio
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import hostspeed


@dataclass(frozen=True)
class Op:
    cell: str
    argv: tuple[str, ...]
    check: Callable[[dict], bool]


class Stopwatch:
    """Adds up the seconds spent inside inclab calls, so that set-up time
    leaves out the benchmark's own random draws and reference answers.
    Each call's seconds are scaled to the reference host speed by the
    reference loop timed before and after it."""

    def __init__(self):
        self.seconds = 0.0
        self._before = hostspeed.sample()

    @contextlib.contextmanager
    def running(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            after = hostspeed.sample()
            self.seconds += elapsed * hostspeed.scale(self._before, after)
            self._before = after


def _cycle(*shares) -> tuple:
    """(cell, count), ... -> the cells, each repeated count times."""
    return tuple(cell for cell, count in shares for _ in range(count))


def _distinct(rng: random.Random, n: int, draw, exclude=frozenset()) -> list[tuple]:
    seen, out = set(exclude), []
    while len(out) < n:
        p = draw(rng)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _write_points(watch: Stopwatch, path: str, points):
    from inclab import geom, io

    with watch.running():
        io.atomic_write(path, io.points_to_csv([geom.point(*p) for p in points]))


def _generate(watch: Stopwatch, argv: list[str]):
    """`inclab generate ...` in-process; some generators print a summary."""
    from inclab import cli

    with contextlib.redirect_stdout(_pyio.StringIO()), watch.running():
        rc = cli.main(["generate", *argv])
    if rc != 0:
        raise RuntimeError(f"inclab generate {argv[0]} exited {rc}")


# ---------------------------------------------------------------------------
# incidence_count: distance spheres, Elekes grids, unit spheres

# ("ds", |P1|, |P2|) | ("elekes", kk) | ("unit", n, box side, radius2).
# Cost groups: 20% cheap, 50% middle (p50), 25% upper (p90), and the
# Elekes kk=4 grid, the slowest op, beyond p90.
INCIDENCE_CELLS = _cycle(
    (("ds", 8, 3), 2), (("unit", 40, 3, 3), 2),
    (("ds", 10, 4), 2), (("ds", 12, 4), 2), (("ds", 14, 4), 2),
    (("unit", 50, 4, 3), 2), (("elekes", 3), 2),
    (("unit", 60, 4, 3), 3), (("unit", 60, 4, 2), 2),
    (("elekes", 4), 1),
)


def _incidence_ops(seed: int, workdir: str, slots: int, watch: Stopwatch) -> list[Op]:
    ops, elekes = [], {}
    for slot in range(slots):
        cell = INCIDENCE_CELLS[slot % len(INCIDENCE_CELLS)]
        rng = random.Random(f"incidence_count:{seed}:{slot}")
        prefix = os.path.join(workdir, f"i{slot}")
        kind = cell[0]
        if kind == "ds":
            _, n1, n2 = cell

            def lifted(r):
                x, y = r.randint(-9, 9), r.randint(-9, 9)
                return (x, y, x * x + y * y)

            p1 = _distinct(rng, n1, lifted)
            p2 = _distinct(rng, n2, lambda r: tuple(r.randint(-9, 9) for _ in range(3)), p1)
            _write_points(watch, prefix + ".p1.csv", p1)
            _write_points(watch, prefix + ".p2.csv", p2)
            _generate(watch, ["distance-spheres", "--points", prefix + ".p1.csv",
                              "--points2", prefix + ".p2.csv", "--out-prefix", prefix])
            expected = checks.distance_sphere_count(p1, p2)
        elif kind == "elekes":
            kk = cell[1]
            if kk not in elekes:
                elekes[kk] = os.path.join(workdir, f"elekes{kk}")
                _generate(watch, ["elekes", "--k", str(kk), "--out-prefix", elekes[kk]])
            prefix = elekes[kk]
            expected = checks.elekes_count(kk)
        else:
            _, n, side, radius2 = cell
            pts = _distinct(rng, n, lambda r: tuple(r.randint(0, side) for _ in range(3)))
            _write_points(watch, prefix + ".csv", pts)
            _generate(watch, ["unit-spheres", "--points", prefix + ".csv",
                              "--radius2", str(radius2), "--out-prefix", prefix])
            expected = checks.unit_sphere_count(pts, radius2)
        ops.append(Op(
            "-".join(map(str, cell)),
            ("count", "--points", prefix + ".points.csv", "--objects", prefix + ".objects.json"),
            checks.count_equals(expected),
        ))
    return ops


# ---------------------------------------------------------------------------
# triangle_census: few points in a small cube, three shapes

# (n points, shape).  Cost groups: 20% cheap, 50% middle (p50), 25% n=6
# with the costly shapes (p90), and n=7 with `1,2` beyond p90.
TRIANGLE_CELLS = _cycle(
    ((5, "1,1"), 2), ((6, "1,1"), 2),
    ((5, "1,2"), 3), ((5, "25/9,16/9"), 3), ((7, "1,1"), 4),
    ((6, "1,2"), 3), ((6, "25/9,16/9"), 2),
    ((7, "1,2"), 1),
)


def _triangle_ops(seed: int, workdir: str, slots: int, watch: Stopwatch) -> list[Op]:
    ops = []
    for slot in range(slots):
        n, shape = TRIANGLE_CELLS[slot % len(TRIANGLE_CELLS)]
        rng = random.Random(f"triangle_census:{seed}:{slot}")
        pts = _distinct(rng, n, lambda r: tuple(r.randint(0, 3) for _ in range(3)))
        path = os.path.join(workdir, f"t{slot}.csv")
        _write_points(watch, path, pts)
        rho1, rho2 = (Fraction(c) for c in shape.split(","))
        expected = checks.similar_triangle_count(pts, rho1, rho2)
        ops.append(Op(
            f"{n}-{shape}",
            ("triangles", "--points", path, "--shape", shape),
            checks.triangles(expected),
        ))
    return ops


# ---------------------------------------------------------------------------
# partition_census: random integer points, t rounds, 10 crossing lines

CROSS_LINES = 10
# (t, m): t rounds on m points.  Cost groups: 79% t=2 (p50), 20% t=3
# (p90), and beyond p90 a t=2 op on 6 points, where cells of 1 or 3 points
# make build_partition exhaust its budget (exit 2) at the seed code: the
# known defect stays in the mix at a fixed share.  No t=4: whether such a
# build exits 2, and whether it takes 0.6 s or 5 s, changes with the seed,
# and that alone would move ops_per_s by a third from seed to seed.
PARTITION_CELLS = _cycle(((2, 16), 40), ((2, 32), 39), ((3, 16), 20), ((2, 6), 1))


def _partition_ops(seed: int, workdir: str, slots: int, watch: Stopwatch) -> list[Op]:
    ops = []
    for slot in range(slots):
        t, m = PARTITION_CELLS[slot % len(PARTITION_CELLS)]
        rng = random.Random(f"partition_census:{seed}:{slot}")
        pts = _distinct(rng, m, lambda r: tuple(r.randint(-99, 99) for _ in range(3)))
        path = os.path.join(workdir, f"p{slot}.csv")
        _write_points(watch, path, pts)
        ops.append(Op(
            f"t{t}-m{m}",
            ("partition", "--points", path, "--rounds", str(t),
             "--seed", str(rng.randrange(2**31)), "--census",
             "--cross-lines", str(CROSS_LINES)),
            checks.partition_census(pts, t, CROSS_LINES),
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[int, str, int, Stopwatch], list[Op]]
    cells: tuple
    cycles: int  # distinct ops per set-up, in cycles of the cells

    @property
    def slots(self) -> int:
        return len(self.cells) * self.cycles

    @property
    def trace_slots(self) -> int:
        """A traced pass runs the first cycle: every cell once."""
        return len(self.cells)


WORKLOADS = {
    "incidence_count": Workload(_incidence_ops, INCIDENCE_CELLS, cycles=5),
    "triangle_census": Workload(_triangle_ops, TRIANGLE_CELLS, cycles=5),
    "partition_census": Workload(_partition_ops, PARTITION_CELLS, cycles=1),
}
