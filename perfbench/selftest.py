"""Self-test of the output checks: a corrupted answer must count as failed.

    python3 perfbench/selftest.py

For the first op of each workload it runs the real op, requires the
untouched output to pass, then feeds corrupted copies of the output through
the same bookkeeping the benchmark uses and requires each to be counted as
failed and to make the run incorrect.  Exits 0 when every case holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def _bump_census(out):
    label = sorted(out["census"])[0]
    out["census"][label] += 1


def _excess_crossing(out):
    out["crossings"][0] = 10**6


def _bump(key):
    def corrupt(out):
        out[key] += 1

    return corrupt


CORRUPTIONS = {
    "incidence_count": [_bump("incidences")],
    "triangle_census": [_bump("count_bruteforce")],
    "partition_census": [_bump_census, _excess_crossing],
}


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from inclab import cli
    from workloads import WORKLOADS, Stopwatch

    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.OUT_DIR, prefix="selftest-")
    failures = []
    try:
        for name, corruptions in CORRUPTIONS.items():
            ops = WORKLOADS[name].make_ops(1, workdir, 1, Stopwatch())
            good = run.run_op(cli, 0, ops[0], os.path.join(workdir, "out.json"))
            verdicts = run.Verdicts(ops)
            if not (verdicts.ok(good) and verdicts.correct):
                failures.append(f"{name}: the untouched output did not pass")
            for corrupt in corruptions:
                out = json.loads(good.text)
                corrupt(out)
                bad = run.Outcome(0, 0, good.seconds, json.dumps(out), None)
                verdicts = run.Verdicts(ops)
                if verdicts.ok(bad) or verdicts.correct:
                    failures.append(f"{name}: {corrupt.__name__} was not counted as failed")
            crash = run.Outcome(0, None, 0.0, None, "Traceback")
            verdicts = run.Verdicts(ops)
            if verdicts.ok(crash) or verdicts.correct:
                failures.append(f"{name}: a crashed op was not counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
