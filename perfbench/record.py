#!/usr/bin/env python3
"""Regenerate the input pools and record their reference outcomes.

    python3 perfbench/record.py [workload ...]

Pools are drawn from a fixed seed, so regenerating them gives the same
inputs; the outcomes are whatever the current qorder returns.  Run it only to
add inputs or to accept a deliberate change of verdicts, and say so in the
change that commits the new reference files.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy is imported)
from run import call_cli, import_cli
from workloads import REFERENCE_DIR, WORKLOADS, decode, entry_family

POOL_SEED = 20260117


def compare(x, y):
    return ("compare", "--x", x, "--y", y, "--method", "both")


# inputs with a documented failure; they lead their stratum, so every run
# reproduces them among its recorded failures
KNOWN = {
    ("compare-param", "tukey-in"): [
        compare("tukey:1.34399,0.661558,2.19037", "tukey:1.68064,1.6027,1.46225")],
    ("compare-param", "vs-exp1"): [compare("govindarajulu:0,0.528542,1.0573", "exp1")],
    ("aging-param", "tukey-alpha-1"): [("aging", "--x", "tukey:2.57145,0.994598,1.55534")],
    ("dsl", "loglogistic-tukey"): [
        compare("dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s=0.586315;b=2.59233",
                "tukey:1.29448,1.12147,2.73423")],
    ("dsl", "expfd-tukey"): [compare("dsl:-s*log(1-p);s=2", "tukey:4,1,2.5")],
}

TUKEY_ALPHA_BANDS = ((0.1, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 4.9))
POOL_SIZES = {"compare-param": 400, "aging-param": 800}
DSL_COUNTS = {"weibull": 40, "loglogistic": 20, "expfd": 20}  # per partner


def g(x):
    return "%.6g" % x


def tukey(rng, alpha=None):
    """Tukey model with non-negative support (lam >= eta)."""
    eta = rng.uniform(0.5, 2.0)
    lam = eta + rng.uniform(0.0, 1.0)
    alpha = rng.uniform(0.1, 4.9) if alpha is None else alpha
    return f"tukey:{g(lam)},{g(eta)},{g(alpha)}"


def govindarajulu(rng):
    theta = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
    return f"govindarajulu:{g(theta)},{g(rng.uniform(0.3, 3.0))},{g(rng.uniform(0.3, 4.0))}"


def weibull(rng):
    return ("dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);"
            f"s={g(rng.uniform(0.5, 3.0))};k={g(rng.uniform(0.5, 4.0))}")


def loglogistic(rng):
    return ("dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;"
            f"s={g(rng.uniform(0.5, 3.0))};b={g(rng.uniform(1.5, 6.0))}")


def expfd(rng):
    return f"dsl:-s*log(1-p);s={g(rng.uniform(0.5, 3.0))}"


def _alpha(rng):
    return float(g(rng.uniform(0.1, 4.9)))


def tukey_pair(rng, inside):
    from qorder import tukey_unimodal_region

    while True:
        a1, a2 = _alpha(rng), _alpha(rng)
        if a1 in (1.0, 2.0) or a2 in (1.0, 2.0) or a1 == a2:
            continue
        if tukey_unimodal_region(a1, a2) == inside:
            return tukey(rng, a1), tukey(rng, a2)


def generate(name):
    """{stratum: [argv, ...]} for one workload, known inputs first."""
    rng = random.Random(f"{POOL_SEED}:{name}")
    n = POOL_SIZES.get(name)
    if name == "compare-param":
        strata = {
            "tukey-in": [compare(*tukey_pair(rng, True)) for _ in range(n)],
            "tukey-out": [compare(*tukey_pair(rng, False)) for _ in range(n)],
            "govindarajulu-pair": [compare(govindarajulu(rng), govindarajulu(rng))
                                   for _ in range(n)],
            "vs-exp1": [compare(govindarajulu(rng) if i % 2 else tukey(rng), "exp1")
                        for i in range(n)],
        }
    elif name == "aging-param":
        strata = {"govindarajulu": [("aging", "--x", govindarajulu(rng)) for _ in range(n)]}
        for band, (lo, hi) in enumerate(TUKEY_ALPHA_BANDS):
            strata[f"tukey-alpha-{band}"] = [("aging", "--x", tukey(rng, rng.uniform(lo, hi)))
                                             for _ in range(n // 4)]
    elif name == "dsl":
        models = {"weibull": weibull, "loglogistic": loglogistic, "expfd": expfd}
        partners = {"exp1": lambda r: "exp1", "tukey": tukey, "govindarajulu": govindarajulu}
        strata = {f"{fam}-{p}": [compare(models[fam](rng), partners[p](rng)) for _ in range(c)]
                  for fam, c in DSL_COUNTS.items() for p in partners}
        strata["weibull-aging"] = [("aging", "--x", weibull(rng)) for _ in range(120)]
    elif name == "sweep":
        rows = []
        for i in range(99):  # the default alpha1 grid of `qorder sweep`
            a = 0.05 + i * 0.05
            rows.append(("sweep", "--alpha1-min", repr(a), "--alpha1-max", repr(a),
                         "--grid", "512"))
        strata = {"rows": rows}
    else:
        raise ValueError(name)
    for (wl, stratum), argvs in KNOWN.items():
        if wl == name:
            strata[stratum] = argvs + strata[stratum]
    return strata


def write_pool(path, doc):
    """JSON with one pool entry per line, so that a re-recording diffs by input."""
    strata = doc["strata"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key in ("workload", "pool_seed", "failures"):
            fh.write(f"{json.dumps(key)}: {json.dumps(doc[key])},\n")
        fh.write('"strata": {\n')
        for i, (stratum, entries) in enumerate(strata.items()):
            fh.write(f"{json.dumps(stratum)}: [\n")
            fh.write(",\n".join(json.dumps(e) for e in entries))
            fh.write("\n]" + ("," if i < len(strata) - 1 else "") + "\n")
        fh.write("}\n}\n")


def record(name):
    cli = import_cli()
    known = {a for (wl, _), argvs in KNOWN.items() if wl == name for a in argvs}
    out = {"workload": name, "pool_seed": POOL_SEED, "strata": {}}
    breakdown = Counter()
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        for stratum, argvs in generate(name).items():
            entries = []
            for argv in argvs:
                _, rc, exc, stderr, report = call_cli(cli, argv, Path(tmp))
                outcome = decode(argv[0], rc, report, stderr, exc)
                if not outcome.ok:
                    breakdown[(outcome.error, entry_family(list(argv)))] += 1
                entry = {"argv": list(argv), "ref": outcome.ref_string()}
                if tuple(argv) in known:
                    entry["known"] = True
                entries.append(entry)
            out["strata"][stratum] = entries
            print(f"{name}/{stratum}: {len(entries)} inputs", flush=True)
    out["failures"] = [{"count": n, "error": e, "family": f}
                       for (e, f), n in sorted(breakdown.items(), key=lambda kv: -kv[1])]
    REFERENCE_DIR.mkdir(exist_ok=True)
    write_pool(REFERENCE_DIR / f"{name}.json", out)
    for item in out["failures"]:
        print(f"  {item['count']:>5}  {item['error']}  [{item['family']}]")


if __name__ == "__main__":
    for wl in sys.argv[1:] or list(WORKLOADS):
        record(wl)
