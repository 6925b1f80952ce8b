#!/usr/bin/env python3
"""qorder benchmark: seeded CLI workloads, end-to-end metrics, traced per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare-param --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 1

Every operation is one in-process call to ``qorder.cli.main([...])`` with
``--out``, exactly as a CLI user runs it; the report it writes is what the
correctness check reads.  One client, closed loop: the next call starts when
the previous one returns.  Only inputs recorded as successes are timed; each
recorded failure class is run once before the timed loop, untimed, and
printed.  A run measures for ``--seconds`` and for at least
``MIN_OPS`` operations, whichever takes longer; the set-up probes of an
untraced run are spread over it and left out of that time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
operations twice, untraced and then with every qorder layer wrapped (see
``tracer.py``), checks that the reports are byte-identical, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every check passed, 1 when a correctness check failed and 2
when the benchmark could not run (for instance without ``src/qorder``).
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools would otherwise start threads of their own in the oracle's
# matrix-vector products; pin them before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    compare_to_reference,
    decode,
    entry_family,
    expected_exit,
    load_pool,
    recorded_failures,
    sequence,
)

MIN_OPS = 100  # at least 10 samples beyond p90
MAX_OPS = None  # no cap; the self-test lowers it for smoke runs
TRACE_MIN_OPS = 10
SETUP_PROBES = 9  # spread evenly over the measured seconds of an untraced run
RUN_DEADLINE_S = 150.0  # measurement stops here even below MIN_OPS
GAUGE_INTERVAL_S = 0.1
GAUGE_HALF_WINDOW_S = 0.5
REFERENCE_S = 0.5e-3  # the reference unit's time at the speed timings are scaled to
# set-up is scaled by a fresh interpreter that imports part of the standard
# library, no qorder, numpy or scipy; SETUP_REFERENCE_S is its nominal time
SETUP_REFERENCE = ("import argparse, csv, decimal, email.parser, http.client, json, unittest; "
                   "print('ready')")
SETUP_REFERENCE_S = 0.1

# metric name -> unit.  The JSON result carries END_TO_END; decided_frac is
# 1 - inconclusive_frac, which stays above zero where the printed fraction is
# often exactly zero.  fail_frac is printed only: a timed operation that fails
# already fails the correctness check.
END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "decided_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINT_ONLY = {"fail_frac": "frac", "inconclusive_frac": "frac"}
WALL = {"wall.latency_ms_p50": "ms", "wall.latency_ms_p90": "ms", "wall.ops_per_s": "1/s",
        "wall.setup_s": "s"}

PINNED = (
    {
        "argv": ("compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5", "--method", "both"),
        "statuses": {"convex": "BothDirectionsFail", "qmit": "BothDirectionsFail",
                     "dmrl": "BothDirectionsFail", "star": "Holds", "ps": "Holds",
                     "nbue": "Holds"},
    },
    {
        "argv": ("aging", "--x", "govindarajulu:0,2,2"),
        "hazard": "BT",
        "hazard_modes": (1.0 / 3.0,),
        "mode_tol": 1e-6,
        "mrl_class": "UBT",
    },
)


_REF_X = np.linspace(1e-3, 1.0 - 1e-3, 20_000)


def reference_unit():
    """Seconds for a fixed computation outside qorder: a scalar Python loop and
    vectorized numpy, the two kinds of work qorder does."""
    start = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) ** 0.5
    acc += float((np.exp(-_REF_X) * np.log(_REF_X) + np.power(_REF_X, 1.7)).sum())
    return perf_counter() - start


class SpeedGauge:
    """Machine speed, sampled with the reference unit while a run goes on.

    Identical work runs up to 1.7x slower or faster from one minute to the
    next on shared virtual machines.  ``tick`` samples the reference unit
    (best of 2) at most every GAUGE_INTERVAL_S; ``factor`` is REFERENCE_S over
    the median sample within GAUGE_HALF_WINDOW_S of a call, so that a timing
    multiplied by it reads as if the reference unit had taken REFERENCE_S.
    """

    def __init__(self):
        reference_unit()  # the first call pays for cold caches
        self.times, self.values = [], []

    def tick(self, force=False):
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= GAUGE_INTERVAL_S:
            self.values.append(min(reference_unit(), reference_unit()))
            self.times.append(now)

    def factor(self, start, end):
        lo = bisect.bisect_left(self.times, start - GAUGE_HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + GAUGE_HALF_WINDOW_S)
        near = self.values[lo:hi] or [self.values[min(lo, len(self.values) - 1)]]
        return REFERENCE_S / statistics.median(near)


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, broken probe)."""


@dataclass
class OpResult:
    index: int
    entry: dict
    latency: float
    rc: object
    exc: BaseException | None
    stderr: str
    report: bytes | None
    factor: float = 1.0  # SpeedGauge factor around the call (1 when not gauged)
    outcome: Outcome | None = None


def import_cli():
    if not (SRC / "qorder" / "cli.py").is_file():
        raise BenchError(f"no qorder sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qorder.cli as cli

    return cli


def call_cli(cli, argv, workdir):
    """One CLI call with --out; returns (latency_s, rc, exception, stderr, report bytes)."""
    out = workdir / ("rows.csv" if argv[0] == "sweep" else "report.json")
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = exc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(argv) + ["--out", str(out)])
    except (Exception, SystemExit) as err:  # every escape from main counts as a failure
        exc = err
    latency = perf_counter() - start
    report = out.read_bytes() if out.exists() else None
    return latency, rc, exc, stderr.getvalue(), report


def run_ops(cli, ops, workdir, seconds, min_ops, limit, tracer=None, gauge=None, pause=None):
    """Closed loop over ``ops`` (index, stratum, entry).

    ``pause(elapsed)``, when given, is called between operations with the
    measured seconds so far; the time it takes is left out of the
    measurement.  Returns (results, wall seconds, scaled wall seconds).  With
    a gauge, each result gets its speed factor, and the scaled wall
    multiplies each call's stretch of wall time by it, leaving out the
    gauge's own samples; without one the scaled wall equals the wall time.
    """
    results, stretches = [], []
    start = prev_end = perf_counter()
    paused = 0.0
    for index, _stratum, entry in ops:
        tick_start = perf_counter()
        elapsed = tick_start - start - paused
        if tick_start - start >= limit or (elapsed >= seconds and len(results) >= min_ops):
            break
        if MAX_OPS is not None and len(results) >= MAX_OPS:
            break
        if pause is not None:
            pause(elapsed)
            spent = perf_counter() - tick_start
            paused += spent
            prev_end += spent
            tick_start += spent
        if gauge is not None:
            gauge.tick()
        call_start = perf_counter()
        if tracer is not None:
            tracer.op = index
        results.append(OpResult(index, entry, *call_cli(cli, entry["argv"], workdir)))
        end = perf_counter()
        stretches.append((call_start, end, (tick_start - prev_end) + (end - call_start)))
        prev_end = end
    wall = perf_counter() - start - paused
    if gauge is None:
        return results, wall, wall
    gauge.tick(force=True)
    scaled_wall = 0.0
    for r, (call_start, end, stretch) in zip(results, stretches):
        r.factor = gauge.factor(call_start, end)
        scaled_wall += stretch * r.factor
    return results, wall, scaled_wall


# ---------------------------------------------------------------------------
# correctness


def check_pinned(cli, workdir, pinned=PINNED):
    """Problems reproducing the pinned worked examples (empty list when all hold)."""
    problems = []
    for case in pinned:
        argv = case["argv"]
        _, rc, exc, stderr, report = call_cli(cli, argv, workdir)
        label = " ".join(argv)
        if exc is not None or rc not in (0, 2) or report is None:
            problems.append(f"pinned {label}: failed (rc={rc}, {exc or stderr.strip()})")
            continue
        doc = json.loads(report)
        if "statuses" in case:
            got = {v["order"]: v["status"] for v in doc["verdicts"]}
            for order, want in case["statuses"].items():
                if got.get(order) != want:
                    problems.append(f"pinned {label}: {order} is {got.get(order)}, expected {want}")
        if "hazard" in case:
            rep = doc["report"]
            if rep["hazard"]["status"] != case["hazard"]:
                problems.append(f"pinned {label}: hazard is {rep['hazard']['status']}, "
                                f"expected {case['hazard']}")
            modes = [m[0] for m in rep["hazard"]["modes"]]
            want_modes = case["hazard_modes"]
            if len(modes) != len(want_modes) or any(
                    abs(a - b) > case["mode_tol"] for a, b in zip(modes, want_modes)):
                problems.append(f"pinned {label}: hazard modes {modes}, expected {list(want_modes)} "
                                f"within {case['mode_tol']:g}")
            if rep["mrl_class"] != case["mrl_class"]:
                problems.append(f"pinned {label}: mrl is {rep['mrl_class']}, "
                                f"expected {case['mrl_class']}")
    return problems


def check_results(results):
    """Decode every result and compare it with its recorded reference."""
    problems = []
    for r in results:
        label = f"op {r.index} [{' '.join(r.entry['argv'])}]"
        try:
            r.outcome = decode(r.entry["argv"][0], r.rc, r.report, r.stderr, r.exc)
        except (ValueError, KeyError, IndexError) as exc:
            r.outcome = Outcome(False, [], "unreadable report")
            problems.append(f"{label}: unreadable report ({exc})")
            continue
        problems += [f"{label}: {p}" for p in compare_to_reference(r.entry["ref"], r.outcome)]
        if r.outcome.ok and r.rc != expected_exit(r.entry["argv"][0], r.outcome):
            problems.append(f"{label}: exit code {r.rc} does not match the report")
    return problems


def failure_breakdown(results):
    return Counter((r.outcome.error, entry_family(r.entry["argv"]))
                   for r in results if not r.outcome.ok)


def run_recorded_failures(cli, workload, workdir):
    """Run each recorded failure class of the workload once, untimed, and print
    what it gives now; the known defects stay in view while the timed loop
    holds only recorded successes.  Returns the correctness problems."""
    entries = recorded_failures(load_pool(workload.name))
    results = [OpResult(-1 - i, e, *call_cli(cli, e["argv"], workdir))
               for i, e in enumerate(entries)]
    problems = check_results(results)
    print_failures("recorded failures, run once outside the timed loop:",
                   failure_breakdown(results), len(results))
    return problems


# ---------------------------------------------------------------------------
# set-up


def probe(workload, seed):
    """Child side of the set-up measurement: import, build inputs, one warm-up op."""
    cli = import_cli()
    ops = sequence(workload, load_pool(workload.name), seed)
    next(ops)
    workdir = WORKDIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        call_cli(cli, workload.warmup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


class SetupProbes:
    """Set-up time, measured in fresh processes spread over a run.

    ``due(elapsed)`` starts the probes whose turn has come: SETUP_PROBES of
    them, evenly over ``seconds``.  Each probe times one process from start
    to ready, right after timing the SETUP_REFERENCE process.  Process start
    and imports drift with the machine in a way the CPU-bound SpeedGauge
    does not follow, so set-up is scaled by the paired reference instead:
    probe time over reference time, times SETUP_REFERENCE_S.
    """

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                     "--workload", workload.name, "--seed", str(seed)]
        self.reference_argv = [sys.executable, "-c", SETUP_REFERENCE]
        self.schedule = [k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.pairs = []  # (probe seconds, reference seconds)

    def due(self, elapsed):
        while len(self.pairs) < len(self.schedule) and elapsed >= self.schedule[len(self.pairs)]:
            reference = self.time_to_ready(self.reference_argv)
            self.pairs.append((self.time_to_ready(self.argv), reference))

    @staticmethod
    def time_to_ready(argv):
        """Seconds from starting ``argv`` until it prints "ready"."""
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                took = perf_counter() - start
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe timed out")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-400:]}")
        return took

    def finish(self):
        """Run the probes still due (a run cut short), then return
        (median scaled set-up time, median probe time)."""
        self.due(float("inf"))
        scaled = [SETUP_REFERENCE_S * t / ref for t, ref in self.pairs]
        return statistics.median(scaled), statistics.median(t for t, _ in self.pairs)


# ---------------------------------------------------------------------------
# metrics and output


def latency_metrics(latencies, wall, prefix=""):
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        prefix + "latency_ms_p50": statistics.median(lat) * 1e3,
        prefix + "latency_ms_p90": p90 * 1e3,
        prefix + "ops_per_s": len(lat) / wall,
    }


def fraction_metrics(results):
    failed = sum(1 for r in results if not r.outcome.ok)
    reported = sum(r.outcome.reported for r in results if r.outcome.ok)
    undecided = sum(r.outcome.inconclusive for r in results if r.outcome.ok)
    fail_frac = failed / len(results)
    inconclusive_frac = undecided / reported if reported else 0.0
    return {
        "fail_frac": fail_frac,
        "inconclusive_frac": inconclusive_frac,
        "decided_frac": 1.0 - inconclusive_frac,
    }


def print_table(title, values, units):
    print(title)
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")


def print_failures(title, breakdown, attempted):
    total = sum(breakdown.values())
    print(f"{title} {total} of {attempted} operations fail (by message class and model family)")
    for (error, fam), n in sorted(breakdown.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {n:>5}  {error}  [{fam}]")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_untraced(cli, workload, seed, args, workdir, started):
    ops = sequence(workload, load_pool(workload.name), seed)
    limit = max(args.seconds, RUN_DEADLINE_S - (perf_counter() - started))
    gauge = SpeedGauge()
    setup = SetupProbes(workload, seed, args.seconds)
    results, wall, scaled_wall = run_ops(cli, ops, workdir, args.seconds, MIN_OPS, limit,
                                         gauge=gauge, pause=setup.due)
    setup_s, wall_setup_s = setup.finish()
    problems = check_results(results)
    values = latency_metrics([r.latency * r.factor for r in results], scaled_wall)
    values.update(latency_metrics([r.latency for r in results], wall, "wall."))
    values.update(fraction_metrics(results))
    values["setup_s"] = setup_s
    values["wall.setup_s"] = wall_setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {workload.name}, seed {seed}: {len(results)} operations in {wall:.2f} s "
          f"(closed loop, 1 client); reference unit {1e3 * min(gauge.values):.3f}-"
          f"{1e3 * max(gauge.values):.3f} ms over {len(gauge.values)} samples")
    if len(results) < MIN_OPS:
        print(f"  note: only {len(results)} operations before the deadline; "
              f"p90 rests on fewer than 10 samples beyond it")
    print_table(f"end-to-end metrics (timings scaled to a {1e3 * REFERENCE_S:g} ms reference unit):",
                values, {**END_TO_END, **PRINT_ONLY})
    print_table("unscaled wall-clock timings:", values, WALL)
    print_failures("timed operations:", failure_breakdown(results), len(results))
    failed = sum(1 for r in results if not r.outcome.ok)
    return problems, len(results), failed, {k: (values[k], u) for k, u in END_TO_END.items()}


def run_traced(cli, workload, seed, args, workdir, started):
    from tracer import Tracer

    half = args.seconds / 2.0
    limit = max(half, (RUN_DEADLINE_S - (perf_counter() - started)) / 2.0)
    ops = sequence(workload, load_pool(workload.name), seed)
    plain, wall_plain, _ = run_ops(cli, ops, workdir, half, TRACE_MIN_OPS, limit)
    replay = ((r.index, None, r.entry) for r in plain)
    tracer = Tracer().install()
    try:
        traced, wall_traced, _ = run_ops(cli, replay, workdir, half, TRACE_MIN_OPS, limit,
                                         tracer)
    finally:
        problems = tracer.uninstall()
    problems += check_results(plain) + check_results(traced)
    for t, u in zip(traced, plain):
        if t.report != u.report or t.rc != u.rc or repr(t.exc) != repr(u.exc):
            problems.append(f"op {t.index}: traced report differs from the untraced one")
    stats = tracer.stats
    oracle_calls = stats["oracle.order_oracle"].calls
    dsl_calls = stats["dsl.evaluate"].calls
    if workload.name == "sweep" and oracle_calls:
        problems.append(f"isolation: sweep made {oracle_calls} order_oracle calls")
    if workload.name != "dsl" and dsl_calls:
        problems.append(f"isolation: {workload.name} made {dsl_calls} dsl.evaluate calls")
    metrics = tracer.layer_metrics(len(traced))
    rate_plain, rate_traced = len(plain) / wall_plain, len(traced) / wall_traced
    metrics["trace.ops_per_s_untraced"] = (rate_plain, "1/s")
    metrics["trace.ops_per_s_traced"] = (rate_traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (rate_plain - rate_traced, "1/s")
    spans_path = WORKDIR / f"spans-{workload.name}.jsonl"
    tracer.write_spans(spans_path)
    print(f"workload {workload.name}, seed {seed}: {len(plain)} untraced operations in "
          f"{wall_plain:.2f} s, {len(traced)} traced in {wall_traced:.2f} s; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
          + (f" ({tracer.dropped} beyond the cap aggregated only)" if tracer.dropped else ""))
    print_table("per-layer metrics (per traced operation):",
                {k: v for k, (v, _) in metrics.items()}, {k: u for k, (_, u) in metrics.items()})
    print_failures("timed operations:", failure_breakdown(plain + traced),
                   len(plain) + len(traced))
    failed = sum(1 for r in plain + traced if not r.outcome.ok)
    return problems, len(plain) + len(traced), failed, metrics


def main(argv=None, pinned=PINNED):
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.probe:
            return probe(workload, args.seed)
        cli = import_cli()
        workdir = WORKDIR / f"run-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            problems = check_pinned(cli, workdir, pinned)
            problems += run_recorded_failures(cli, workload, workdir)
            call_cli(cli, workload.warmup, workdir)
            runner = run_traced if args.trace else run_untraced
            more, attempted, failed, metrics = runner(cli, workload, args.seed, args, workdir,
                                                      started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    problems += more
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... {len(problems) - 20} more")
    print(f"correctness: {'ok' if not problems else f'{len(problems)} problems'}")
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
