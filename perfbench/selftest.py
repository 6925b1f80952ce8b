#!/usr/bin/env python3
"""Smoke test of the benchmark: a handful of operations per workload.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that the timed sequence holds only inputs recorded as
successes while every recorded failure class, the documented examples among
them, is run apart from it, that the correctness gate trips when a pinned expectation or a
reference verdict is altered, that tracing leaves no wrapper behind, and that
the benchmark refuses to run without the qorder sources.  Takes about a
minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run  # first: pins BLAS threads before numpy is imported
import tracer
import workloads

SMOKE_OPS = 4


def invoke(argv, ops=SMOKE_OPS, pinned=run.PINNED):
    """run.main in-process, capped at ``ops`` operations and one set-up probe."""
    out = io.StringIO()
    saved = run.MAX_OPS, run.SETUP_PROBES
    run.MAX_OPS, run.SETUP_PROBES = ops, 1
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(argv, pinned)
    finally:
        run.MAX_OPS, run.SETUP_PROBES = saved
    lines = out.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]), out.getvalue()


def smoke_args(workload, trace):
    return ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]


def check(cond, message):
    if not cond:
        raise AssertionError(message)
    print(f"ok: {message}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the defined workloads")
    for name, workload in workloads.WORKLOADS.items():
        pool = workloads.load_pool(name)
        known = [e for s in pool.values() for e in s if e.get("known")]
        failures = workloads.recorded_failures(pool)
        ops = workloads.sequence(workload, pool, 1)
        timed = [next(ops)[2] for _ in range(20 * len(workload.pattern))]
        check(not any(workloads.recorded_failure(e) for e in timed),
              f"{name}: the timed sequence holds only recorded successes")
        check(all(workloads.recorded_failure(e) and any(f is e for f in failures)
                  for e in known),
              f"{name}: the {len(known)} documented failing inputs are recorded as failures "
              f"and among the {len(failures)} run apart")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, text = invoke(smoke_args(name, trace))
            check(rc == 0 and result["correct"], f"{name} trace={trace}: exit 0, correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            check(set(got) == set(want), f"{name} trace={trace}: emits every {section} metric")
            check(all(got[k]["unit"] == u and isinstance(got[k]["value"], (int, float))
                      for k, u in want.items()),
                  f"{name} trace={trace}: every metric has a number and its unit")
            check(result["failed"] == 0, f"{name} trace={trace}: no timed operation fails")
            check(f"outside the timed loop: {len(failures)} of {len(failures)} operations fail"
                  in text, f"{name} trace={trace}: the {len(failures)} recorded failures "
                  "are run and still fail")
    check(not tracer.find_wrappers(), "no qorder attribute is left wrapped")

    altered = copy.deepcopy(run.PINNED)
    altered[0]["statuses"]["star"] = "BothDirectionsFail"
    rc, result, _ = invoke(smoke_args("compare-param", 0), 1, altered)
    check(rc == 1 and not result["correct"], "an altered pinned status trips the gate")
    altered = copy.deepcopy(run.PINNED)
    altered[1]["hazard_modes"] = (0.34,)
    rc, result, _ = invoke(smoke_args("aging-param", 0), 1, altered)
    check(rc == 1 and not result["correct"], "an altered pinned hazard mode trips the gate")

    real_load = run.load_pool

    def tampered(name):
        pool = real_load(name)
        for stratum in pool.values():
            for entry in stratum:
                if not entry["ref"].startswith("!"):
                    cells = entry["ref"].split("|")
                    cells[1] = "IFR" if cells[1] != "IFR" else "DFR"
                    entry["ref"] = "|".join(cells)
        return pool

    run.load_pool = tampered
    try:
        rc, result, _ = invoke(smoke_args("aging-param", 0), 2)
    finally:
        run.load_pool = real_load
    check(rc == 1 and not result["correct"], "an altered reference verdict trips the gate")

    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        shutil.copytree(run.HERE, f"{tmp}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "perfbench/run.py", *smoke_args("sweep", 0)],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
    check(proc.returncode not in (0, None) and "correct" not in proc.stdout,
          "without src/qorder the benchmark exits non-zero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
