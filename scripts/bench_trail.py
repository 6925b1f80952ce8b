"""Summarize paired benchmark runs of a parent tree and a change tree as one BENCH file.

    python3 scripts/bench_trail.py RUNS_DIR --out BENCH_<N>.json

RUNS_DIR holds one file per run, named ``<workload>.<seed>.<side>.json`` with
``<side>`` either ``parent`` or ``change``, each holding the last line that

    python3 perfbench/run.py --workload <workload> --seed <seed> --seconds S --trace 0

printed in that tree: one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The two runs of a workload with one seed form a
pair; run them back to back, alternating which tree goes first.

For every workload and every end-to-end metric that ``BENCHMARK.json`` lists,
the output records each side's median and quartiles and its runs, the relative
change of the median, the pairs the change won (ties count for neither side),
whether the change is within the metric's bound, and whether it is a gain:
better in at least nine tenths of the pairs, with the medians further apart
than the parent's quartile distance, every run of both sides correct and no
larger share of the change's operations failed than of the parent's.  Each
workload also records its seeds and the attempted, failed and correct counts
of each side.  The file records ``run_seconds`` of ``BENCHMARK.json`` as the
run length: the benchmark sets it, so S must be that value.  A seed with only
one side is an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_runs(runs_dir: Path):
    """{workload: {seed: {side: last-line object}}}."""
    runs = defaultdict(lambda: defaultdict(dict))
    for path in sorted(runs_dir.glob("*.json")):
        try:
            workload, seed, side = path.stem.rsplit(".", 2)
            seed = int(seed)
        except ValueError:
            raise SystemExit(f"bench_trail: {path.name} is not <workload>.<seed>.<side>.json")
        if side not in SIDES:
            raise SystemExit(f"bench_trail: {path.name}: side must be parent or change")
        runs[workload][seed][side] = json.loads(path.read_text(encoding="utf-8"))
    for workload, by_seed in runs.items():
        for seed, pair in by_seed.items():
            if len(pair) != 2:
                raise SystemExit(f"bench_trail: {workload} seed {seed} has only the "
                                 f"{next(iter(pair))} run")
    return runs


def spread(values):
    """Median and quartiles (inclusive method, so one run gives itself three times)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric, pairs, sound):
    """One metric over the (parent, change) values of every pair; ``sound`` says
    whether every run was correct and no larger share of the change's operations
    failed, without which no metric is a gain."""
    lower = metric["better"] == "lower"
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    old, new = spread(parent), spread(change)
    won = sum(1 for p, c in pairs if (c < p if lower else c > p))
    worse = (new["median"] - old["median"]) * (1 if lower else -1)
    rel = (new["median"] / old["median"] - 1.0) if old["median"] else None
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": {**old, "runs": parent},
        "change": {**new, "runs": change},
        "median_change": rel,
        "pairs_won": won,
        "within_bound": worse <= metric["bound"] * abs(old["median"]),
        "gain": sound and won >= 0.9 * len(pairs) and -worse > old["q3"] - old["q1"],
    }


def trail(runs, benchmark):
    out = {"schema": 1, "run_seconds": benchmark["run_seconds"], "workloads": {}}
    for workload in sorted(runs):
        by_seed = runs[workload]
        seeds = sorted(by_seed)
        entry = {"seeds": seeds, "pairs": len(seeds)}
        for side in SIDES:
            entry[side] = {key: sum(int(by_seed[s][side][key]) for s in seeds)
                           for key in ("attempted", "failed", "correct")}
        old, new = entry["parent"], entry["change"]
        sound = (old["correct"] == new["correct"] == len(seeds)
                 and new["failed"] * old["attempted"] <= old["failed"] * new["attempted"])
        entry["metrics"] = {
            m["name"]: summarize(m, [(by_seed[s]["parent"]["metrics"][m["name"]]["value"],
                                      by_seed[s]["change"]["metrics"][m["name"]]["value"])
                                     for s in seeds], sound)
            for m in benchmark["end_to_end"]
        }
        out["workloads"][workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs_dir", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = load_runs(args.runs_dir)
    if not runs:
        raise SystemExit(f"bench_trail: no runs in {args.runs_dir}")
    result = trail(runs, benchmark)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
