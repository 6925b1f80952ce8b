"""Count the outcomes of every argv of the benchmark's input pools.

    python3 scripts/census.py

Every argv of the four pools ``perfbench/reference/*.json`` runs once,
in-process through ``qorder.cli.main`` with ``--out`` to a temporary file, on
the ``src`` tree next to this script.  For each pool the census prints the
count of each exit code, then the argv that exit 1, grouped by the message
class that ``perfbench/workloads.py`` gives their error line
(``classify_error``).  Each group lists how many of its argv have each
family of ``--x`` (``workloads.family``) and one example argv.  Then it
prints, for each command of the pool and each column of its reports (the
six orders of compare; hazard, mrl, ihrwa and ifra of aging; ratio_shape,
star, qmit and dmrl of each sweep cell), how many of the written reports give
each status, as ``workloads.decode`` reads them, so that a change that moves
verdicts without changing exit codes shows.

Then every compare argv of the compare-param and dsl pools runs again with
``--method theorem``, and the census prints, for each order, how many of the
written reports' verdicts each route (the verdict's ``method``) decided.

``workloads.py`` is loaded read-only; nothing is written under
``perfbench/``.  A full census takes a few tens of seconds.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qorder import cli  # noqa: E402

PERFBENCH = ROOT / "perfbench"
POOLS = ("compare-param", "dsl", "aging-param", "sweep")
ROUTE_POOLS = ("compare-param", "dsl")
ROUTES = ("theorem", "implication", "numeric-fallback")
COLUMNS = {"aging": ("hazard", "mrl", "ihrwa", "ifra"),
           "sweep": ("ratio_shape", "star", "qmit", "dmrl")}


def load_workloads():
    """``perfbench/workloads.py``, loaded without writing a bytecode cache there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run(argv, out: Path):
    """(exit code, stderr, report bytes or None) of one in-process CLI call with --out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(argv) + ["--out", str(out)])
    report = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return rc, stderr.getvalue(), report


def error_class(workloads, stderr):
    lines = [ln for ln in stderr.splitlines() if ln.startswith("qorder: error:")]
    return workloads.classify_error(lines[-1][len("qorder: error:"):] if lines else "")


def status_columns(workloads, argv, rc, stderr, report):
    """{column: statuses} of one call's report; empty when the call failed."""
    outcome = workloads.decode(argv[0], rc, report, stderr, None)
    if not outcome.ok:
        return {}
    if argv[0] == "sweep":  # one cell per row: in_region/ratio_shape/star/qmit/dmrl
        rows = [cell.split("/")[1:] for cell in outcome.cells]
    else:
        rows = [outcome.cells]
    return dict(zip(COLUMNS.get(argv[0], workloads.ORDERS), zip(*rows)))


def print_statuses(statuses):
    """One line per command and column: the count of each status."""
    for command, columns in statuses.items():
        for column, counts in columns.items():
            print(f"  {command} {column:<11} "
                  + ", ".join(f"{status} {n:,}" for status, n in sorted(counts.items())))


def theorem_argv(argv):
    """The compare argv with its --method set to theorem."""
    argv = list(argv)
    if "--method" in argv:
        argv[argv.index("--method") + 1] = "theorem"
    else:
        argv += ["--method", "theorem"]
    return argv


def main():
    workloads = load_workloads()
    pools = {name: [e["argv"] for stratum in workloads.load_pool(name).values()
                    for e in stratum] for name in POOLS}
    routes = defaultdict(Counter)  # order -> route -> verdicts
    written = failed = 0
    with tempfile.TemporaryDirectory() as work:
        for name, argvs in pools.items():
            codes, groups, examples = Counter(), defaultdict(Counter), {}
            statuses = defaultdict(lambda: defaultdict(Counter))  # command -> column -> status
            for argv in argvs:
                out = Path(work, "rows.csv" if argv[0] == "sweep" else "report.json")
                rc, stderr, report = run(argv, out)
                codes[rc] += 1
                for column, cells in status_columns(workloads, argv, rc, stderr,
                                                    report).items():
                    statuses[argv[0]][column].update(cells)
                if rc == 1:
                    group = error_class(workloads, stderr)
                    groups[group][workloads.family(argv[2])] += 1
                    examples.setdefault(group, " ".join(argv))
            print(f"{name}: {len(argvs)} argv; exit codes "
                  + ", ".join(f"{rc}: {count}" for rc, count in sorted(codes.items())))
            for group, families in sorted(groups.items(), key=lambda g: -g[1].total()):
                print(f"  exit 1 x {families.total()}: {group}")
                print("    " + ", ".join(f"{fam} {n}" for fam, n in families.most_common()))
                print(f"    e.g. {examples[group]}")
            print_statuses(statuses)
        for name in ROUTE_POOLS:
            for argv in pools[name]:
                if argv[0] != "compare":
                    continue
                rc, _, report = run(theorem_argv(argv), Path(work, "report.json"))
                if rc == 1:
                    failed += 1
                    continue
                written += 1
                for verdict in json.loads(report)["verdicts"]:
                    routes[verdict["order"]][verdict["method"]] += 1
    print(f"--method theorem on the compare argv of {' and '.join(ROUTE_POOLS)}: "
          f"{written} reports written, {failed} failed")
    print(f"  {'order':<7}" + "".join(f"{route:>18}" for route in ROUTES))
    for order in workloads.ORDERS:
        print(f"  {order:<7}" + "".join(f"{routes[order][route]:>18,}" for route in ROUTES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
