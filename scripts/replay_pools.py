"""Replay the benchmark's input pools against two source trees and list what differs.

    python3 scripts/replay_pools.py OLD_TREE NEW_TREE [--pool NAME ...] [--every K] [--jobs J]

Every argv of each pool ``perfbench/reference/*.json`` (every K-th argv of
each pool with ``--every K``; only the pools named by the repeatable
``--pool NAME``, such as ``--pool dsl --pool sweep``) runs once per tree.
Whenever the sweep pool is replayed, whatever ``--every``, the full default
``qorder sweep`` (no range flags, all 99 x 99 cells) runs once per tree too,
and is printed and counted like one of the sweep pool's argvs.  Each argv
runs in a fresh interpreter with that tree's ``src`` on ``PYTHONPATH`` and
BLAS pinned to one thread, as ``qorder.cli.main(argv + ["--out", FILE])`` in
an empty working directory.  A fresh process per call matters: Python prints a
warning once per source line and process, so stderr depends on what ran
before in the same process.

An argv is printed when the two trees differ in the bytes ``--out`` wrote,
the exit code, stdout or stderr; stdout and stderr are compared with each
tree's path replaced by ``<tree>``.  An argv that times out on either tree is
printed too, even when it times out on both.  Recorded failures are replayed
like every other argv.  The exit code is 1 when any argv differs or times
out.  Only files under ``perfbench/`` are read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
RUN_MAIN = "import sys; from qorder.cli import main; sys.exit(main(sys.argv[1:]))"
DEFAULT_SWEEP = ["sweep"]  # the full default map; each sweep pool argv is one of its rows
TIMEOUT_S = 600


def pool_argvs(path: Path, every):
    """The argvs of one pool, stratum by stratum in file order, every ``every``-th."""
    pool = json.loads(path.read_text(encoding="utf-8"))
    argvs = [entry["argv"] for stratum in pool["strata"].values() for entry in stratum]
    return argvs[::every]


def run_one(tree: Path, argv):
    """(exit code, stdout and stderr with the tree path normalized, --out bytes
    or None), or None when the run times out."""
    out_name = "rows.csv" if argv[0] == "sweep" else "report.json"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        try:
            proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv, "--out", out_name],
                                  cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        out = Path(work, out_name)
        report = out.read_bytes() if out.exists() else None
    return (proc.returncode, proc.stdout.replace(str(tree), "<tree>"),
            proc.stderr.replace(str(tree), "<tree>"), report)


def compare(old: Path, new: Path, argv):
    """Names of the outcome parts in which the two trees differ, or of the
    trees on which the run timed out."""
    a, b = run_one(old, argv), run_one(new, argv)
    if a is None or b is None:
        return [f"{side} timed out" for side, r in (("old", a), ("new", b)) if r is None]
    parts = ("exit code", "stdout", "stderr", "--out")
    return [f"{name} differs" for name, x, y in zip(parts, a, b) if x != y]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="source tree of the reference side")
    ap.add_argument("new", type=Path, help="source tree of the changed side")
    ap.add_argument("--pool", action="append", metavar="NAME",
                    help="replay only this pool (repeatable; default: every pool)")
    ap.add_argument("--every", type=int, default=1, help="replay every K-th argv of each pool")
    ap.add_argument("--jobs", type=int, default=1, help="argvs replayed at once (default 1)")
    args = ap.parse_args(argv)
    if args.every < 1 or not 1 <= args.jobs <= 8:
        ap.error("--every must be >= 1 and --jobs between 1 and 8")
    paths = sorted(POOLS.glob("*.json"))
    unknown = sorted(set(args.pool or ()) - {path.stem for path in paths})
    if unknown:
        ap.error(f"no pool named {', '.join(unknown)}; "
                 f"pools: {', '.join(path.stem for path in paths)}")
    if args.pool:
        paths = [path for path in paths if path.stem in args.pool]
    old, new = args.old.resolve(), args.new.resolve()
    for tree in (old, new):
        if not (tree / "src" / "qorder").is_dir():
            ap.error(f"no src/qorder under {tree}")

    differing = total = 0
    for path in paths:
        workload = path.stem
        argvs = pool_argvs(path, args.every)
        if workload == "sweep":
            argvs.append(DEFAULT_SWEEP)
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda a: compare(old, new, a), argvs))
        for a, diff in zip(argvs, results):
            if diff:
                print(f"{workload}: {' '.join(a)}  [{', '.join(diff)}]", flush=True)
        total += len(argvs)
        differing += sum(1 for d in results if d)
        print(f"{workload}: {len(argvs)} argv replayed, "
              f"{sum(1 for d in results if d)} differ or time out", flush=True)
    print(f"total: {total} argv replayed, {differing} differ or time out")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
