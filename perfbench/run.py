"""inclab benchmark: seeded closed-loop runs of the exact pipelines.

    python3 perfbench/run.py --workload incidence_count --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client, one process per workload, no threads: each op is one `inclab`
subcommand called in-process through `inclab.cli.main(argv)` with
`--output` into a scratch directory, and the next op starts when it
returns.  The timed phase runs the whole op list in rounds.  Every op's
time is scaled to a reference host speed, timed next to it (hostspeed.py),
and an op's latency is the median of its rounds.  `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones from a traced run.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _pyio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import hostspeed
import tracing
from workloads import WORKLOADS, Stopwatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_OPS = 100  # distinct ops; p90 needs at least ten samples beyond it
MIN_ROUNDS = 2
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
EXIT_SEARCH_FAILURE = 2  # inclab's documented "search budget exhausted"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one op

@dataclass(slots=True)
class Outcome:
    slot: int
    rc: int | None  # None: cli.main raised
    seconds: float
    text: str | None  # the output file, on exit 0
    error: str | None
    scale: float = 1.0  # to the reference host speed, see hostspeed.py


def run_op(cli, slot: int, op, out_path: str) -> Outcome:
    err = _pyio.StringIO()
    error = None
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main([*op.argv, "--output", out_path])
        except Exception:
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    text = None
    if rc == 0:
        with open(out_path) as fh:
            text = fh.read()
    elif error is None:
        error = err.getvalue().strip()
    return Outcome(slot, rc, seconds, text, error)


class Verdicts:
    """Checks outputs after the timed phase; a repeated (op, output) pair is
    checked once."""

    def __init__(self, ops):
        self.ops = ops
        self.cache: dict[tuple[int, str], bool] = {}
        self.wrong: list[str] = []  # exit 0 with a wrong answer
        self.crashed: list[str] = []  # anything but exit 0 or exit 2
        self.search_failures = 0
        self.passed = 0

    def ok(self, o: Outcome) -> bool:
        if o.rc == 0:
            key = (o.slot, o.text)
            if key not in self.cache:
                self.cache[key] = self._check(o)
                if not self.cache[key]:
                    self.wrong.append(f"slot {o.slot} ({self.ops[o.slot].cell})")
            self.passed += self.cache[key]
            return self.cache[key]
        if o.rc == EXIT_SEARCH_FAILURE:
            self.search_failures += 1
        else:
            self.crashed.append(f"slot {o.slot} ({self.ops[o.slot].cell}) rc={o.rc}: {o.error}")
        return False

    def _check(self, o: Outcome) -> bool:
        try:
            return bool(self.ops[o.slot].check(json.loads(o.text)))
        except (ValueError, KeyError, TypeError, AttributeError):
            return False

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.crashed


# ---------------------------------------------------------------------------
# phases

def setup(workload, seed: int, workdir: str, traced: bool):
    """SETUP_REPEATS identical set-ups; returns the last op list, the
    seconds each spent in inclab calls and the tracers (traced run only)."""
    times, tracers, ops = [], [], None
    for r in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{r}")
        os.makedirs(d)
        tracer = undo = None
        if traced:
            tracer = tracing.Tracer(f"setup{r}")
            tracer.op = "setup"
            undo = tracer.install()
        watch = Stopwatch()
        try:
            ops = workload.make_ops(seed, d, workload.slots, watch)
        finally:
            times.append(watch.seconds)
            if tracer is not None:
                tracer.uninstall(undo)
                tracers.append(tracer)
    return ops, times, tracers


def timed_phase(cli, ops, seconds: float, out_path: str):
    """Closed loop over the whole op list, round after round, while another
    round still fits in `seconds` (at least MIN_ROUNDS).  Only whole rounds
    run, so every op has the same number of samples and the mix never
    depends on host speed."""
    rounds = []
    start = time.perf_counter()
    before = hostspeed.sample()
    while True:
        outcomes = []
        for slot, op in enumerate(ops):
            o = run_op(cli, slot, op, out_path)
            after = hostspeed.sample()
            o.scale = hostspeed.scale(before, after)
            before = after
            outcomes.append(o)
        rounds.append(outcomes)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, elapsed


def traced_phase(cli, ops, trace_slots: int, seconds: float, out_path: str):
    """Alternates untraced and traced passes over the leading ops until
    `seconds` have passed and at least MIN_TRACED_PASSES traced passes ran."""
    outcomes, tracers = [], []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    while len(tracers) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for slot in range(trace_slots):
            outcomes.append(run_op(cli, slot, ops[slot], out_path))
        untraced_s += time.perf_counter() - t0

        tracer = tracing.Tracer(f"pass{len(tracers)}")
        undo = tracer.install()
        t0 = time.perf_counter()
        try:
            for slot in range(trace_slots):
                tracer.op = f"{tracer.label}:{slot}"
                outcomes.append(run_op(cli, slot, ops[slot], out_path))
        finally:
            traced_s += time.perf_counter() - t0
            tracer.uninstall(undo)
        tracers.append(tracer)
    return outcomes, tracers, traced_s / untraced_s


# ---------------------------------------------------------------------------
# metrics

def op_latencies(rounds, scaled: bool = True) -> list[float]:
    """Per op, the median over rounds of its (host-scaled) seconds."""
    return [
        statistics.median(r[slot].seconds * (r[slot].scale if scaled else 1.0) for r in rounds)
        for slot in range(len(rounds[0]))
    ]


def end_to_end(lat: list[float], passed: list[bool], import_s: float, setup_times) -> dict:
    """ops_per_s is the ops that passed every round over the summed latency
    of all ops."""
    return {
        "ops_per_s": sum(passed) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# metric -> (phase, layer, field).  Seconds are self time; "pass" metrics
# come from the traced passes (seconds: median; counts: exact, identical in
# every pass) and "setup" metrics from the traced set-ups.
PER_LAYER = {
    "geom.predicate_calls": ("pass", "geom.predicate", "calls"),
    "geom.predicate_s": ("pass", "geom.predicate", "self_s"),
    "geom.incident_ratio": ("pass", "geom.predicate", "true_ratio"),
    "geom.pair_intersection_calls": ("pass", "geom.pair_intersection", "calls"),
    "geom.pair_intersection_s": ("pass", "geom.pair_intersection", "self_s"),
    "geom.canonicalize_calls": ("pass", "geom.canonicalize", "calls"),
    "geom.canonicalize_s": ("pass", "geom.canonicalize", "self_s"),
    "engine.count_incidences_s": ("pass", "engine.count_incidences", "self_s"),
    "engine.cospherical_max_s": ("pass", "engine.cospherical_max", "self_s"),
    "engine.common_sphere_calls": ("pass", "engine.common_sphere", "calls"),
    "engine.common_sphere_s": ("pass", "engine.common_sphere", "self_s"),
    "engine.common_sphere_hit_ratio": ("pass", "engine.common_sphere", "true_ratio"),
    "apps.census_s": ("pass", "apps.census", "self_s"),
    "apps.triangle_circles_s": ("pass", "apps.triangle_circles", "self_s"),
    "apps.bruteforce_s": ("pass", "apps.bruteforce", "self_s"),
    "partition.build_s": ("pass", "partition.build", "self_s"),
    "partition.build_calls": ("pass", "partition.build", "calls"),
    "partition.build_failures": ("pass", "partition.build", "errors"),
    "partition.census_s": ("pass", "partition.census", "self_s"),
    "partition.crossing_s": ("pass", "partition.crossing", "self_s"),
    "partition.crossing_calls": ("pass", "partition.crossing", "calls"),
    "roots.sample_points_s": ("pass", "roots.sample_points", "self_s"),
    "roots.sample_points_calls": ("pass", "roots.sample_points", "calls"),
    "roots.ueval_calls": ("pass", "roots.ueval", "calls"),
    "io.parse_s": ("pass", "io.parse", "self_s"),
    "io.bytes_read": ("pass", "io.parse", "bytes"),
    "io.write_s": ("setup", "io.write", "self_s"),
    "io.bytes_written": ("setup", "io.write", "bytes"),
    "construct.generate_s": ("setup", "construct.generate", "self_s"),
    "cli.self_s": ("pass", "cli", "self_s"),
}


def _field(layers: dict, layer: str, field: str):
    e = layers.get(layer)
    if e is None:
        return 0
    if field == "true_ratio":
        return e["true"] / e["calls"] if e["calls"] else 0.0
    return e[field]


def per_layer(pass_tracers, setup_tracers, overhead_ratio: float) -> dict:
    phases = {
        "pass": [t.layers() for t in pass_tracers],
        "setup": [t.layers() for t in setup_tracers],
    }
    out = {}
    for name, (phase, layer, field) in PER_LAYER.items():
        values = [_field(layers, layer, field) for layers in phases[phase]]
        out[name] = statistics.median(values) if field == "self_s" else values[0]
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def counters_repeat(tracers) -> bool:
    first = tracers[0].counters()
    return all(t.counters() == first for t in tracers[1:])


# ---------------------------------------------------------------------------
# entry points

def measure_untraced(cli, workload, args, workdir: str, import_s: float):
    ops, setup_times, _ = setup(workload, args.seed, workdir, traced=False)
    if len(ops) < MIN_OPS:
        raise ValueError(f"{args.workload}: {len(ops)} ops, p90 needs {MIN_OPS}")
    rounds, wall = timed_phase(cli, ops, args.seconds, os.path.join(workdir, "out.json"))
    verdicts = Verdicts(ops)
    passed = [all([verdicts.ok(r[slot]) for r in rounds]) for slot in range(len(ops))]
    outcomes = [o for r in rounds for o in r]
    by_cell: dict[str, list[float]] = {}
    for o in outcomes:
        by_cell.setdefault(ops[o.slot].cell, []).append(o.seconds * o.scale)
    raw = op_latencies(rounds, scaled=False)
    extra = {
        "samples": len(ops),  # latency samples: one per distinct op
        "rounds": len(rounds),
        "timed_s": wall,
        "host_ref_s": statistics.median(hostspeed.REF_S / o.scale for o in outcomes),
        "unscaled": {
            "ops_per_s": sum(passed) / sum(raw),
            "wall_ops_per_s": verdicts.passed / wall,
            "op_p50_s": statistics.median(raw),
            "op_p90_s": statistics.quantiles(raw, n=10)[8],
        },
        "setup_inclab_s": setup_times,
        "import_s": import_s,
        "cell_p50_s": {c: statistics.median(v) for c, v in sorted(by_cell.items())},
    }
    metrics = end_to_end(op_latencies(rounds), passed, import_s, setup_times)
    return ops, outcomes, verdicts, metrics, extra


def measure_traced(cli, workload, args, workdir: str):
    ops, _, setup_tracers = setup(workload, args.seed, workdir, traced=True)
    outcomes, pass_tracers, overhead = traced_phase(
        cli, ops, workload.trace_slots, args.seconds, os.path.join(workdir, "out.json")
    )
    verdicts = Verdicts(ops)
    for o in outcomes:
        verdicts.ok(o)
    tracing.dump(setup_tracers + pass_tracers,
                 os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    extra = {
        "traced_passes": len(pass_tracers),
        "counters_repeat": counters_repeat(pass_tracers) and counters_repeat(setup_tracers),
    }
    return ops, outcomes, verdicts, per_layer(pass_tracers, setup_tracers, overhead), extra


def run_workload(args, spec) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "inclab")):
        sys.stderr.write("perfbench: no src/inclab next to perfbench/\n")
        return 2
    # one client and no threads: keep BLAS from starting a pool with numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    before = [hostspeed.sample() for _ in range(3)]
    start = time.perf_counter()
    from inclab import cli
    import numpy

    import_s = time.perf_counter() - start
    import_s *= hostspeed.scale(*before, *(hostspeed.sample() for _ in range(3)))
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"work-{args.workload}-")
    try:
        if args.trace:
            ops, outcomes, verdicts, metrics, extra = measure_traced(cli, workload, args, workdir)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            ops, outcomes, verdicts, metrics, extra = measure_untraced(
                cli, workload, args, workdir, import_s
            )
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        sys.stderr.write(f"perfbench: metrics not produced: {sorted(missing)}\n")
        return 1
    attempted = len(outcomes)
    failed = attempted - verdicts.passed
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "op_count": len(ops), "executions": attempted,
        "failed_ratio": failed / attempted,
        "search_failures": verdicts.search_failures,
        "wrong_answers": verdicts.wrong, "crashes": verdicts.crashed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), **extra,
    }
    for name, unit in units.items():
        print(f"{args.workload:18s} {name:32s} {metrics[name]:.6g} {unit}")
    print(f"{args.workload:18s} {'failed_ratio':32s} {record['failed_ratio']:.6g} ratio")
    print(json.dumps({"record": record}, sort_keys=True))
    name = f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": verdicts.correct and extra.get("counters_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"perfbench: {w['name']} trace={trace} exited {proc.returncode}\n")
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{w['name']}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
