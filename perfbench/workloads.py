"""Workload definitions: input pools, seeded operation sequences, report decoding.

Every workload draws its operations from a fixed pool of inputs stored with
their reference outcomes in ``reference/<workload>.json``.  The pool is split
into strata (model families); a workload visits the strata in a fixed
rotation, so the family mix of a run does not depend on the seed.  The seed
only chooses the order in which each stratum's entries are visited.

The timed sequence holds only inputs recorded as successes, so that no timed
operation is expected to fail.  The recorded failures (known defects of the
program) are reproduced apart from it, one input per stratum and failure
class, by ``recorded_failures``.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ORDERS = ("convex", "qmit", "dmrl", "star", "ps", "nbue")

_ABBREV = {
    "Holds": "H",
    "HoldsReversed": "R",
    "Equivalent": "E",
    "BothDirectionsFail": "B",
    "Inconclusive": "I",
}
# cell values that carry no decision; anything may replace them later
UNDECIDED = frozenset({"I", "Inconclusive", "Error"})


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple  # stratum rotation, one entry per operation
    warmup: tuple  # argv of the untimed warm-up operation (without --out)


def _dsl_pattern():
    """27-operation rotation: 18 compare slots cycle Weibull and log-logistic
    2:1 against each of the three partners, and every second compare is
    followed by an aging call."""
    compares = [f"{fam}-{partner}" for partner in ("exp1", "tukey", "govindarajulu")
                for fam in ("weibull", "loglogistic", "weibull")]
    pattern = []
    for j in range(18):
        pattern.append(compares[j % len(compares)])
        if j % 2:
            pattern.append("weibull-aging")
    return tuple(pattern)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-param",
            # Tukey pairs cost about 1.4x the others; at 2/3 of the calls the
            # median falls inside their cluster instead of on its edge
            ("tukey-in", "govindarajulu-pair", "tukey-out", "vs-exp1", "tukey-in", "tukey-out"),
            ("compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5", "--method", "both"),
        ),
        Workload(
            "dsl",
            _dsl_pattern(),
            ("aging", "--x", "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1;k=2"),
        ),
        Workload(
            "aging-param",
            # Tukey alpha in five bands.  Bands 0, 2 and 3 and about half of
            # the Govindarajulu models form a fast cluster, band 1 and the other
            # Govindarajulu models a slower one; at 3 of each fast band, 3
            # Govindarajulu and 1 of band 1 per 15 calls the median falls well
            # inside the fast cluster instead of on the gap between them.
            # alpha > 4 costs about eight times the rest, and at 2/15 of the
            # calls p90 falls inside that cluster instead of on its edge
            ("govindarajulu", "tukey-alpha-0", "tukey-alpha-2", "tukey-alpha-3", "tukey-alpha-4",
             "tukey-alpha-0", "govindarajulu", "tukey-alpha-2", "tukey-alpha-3", "tukey-alpha-1",
             "tukey-alpha-0", "tukey-alpha-2", "govindarajulu", "tukey-alpha-3", "tukey-alpha-4"),
            ("aging", "--x", "govindarajulu:0,2,2"),
        ),
        Workload(
            "sweep",
            ("rows",),
            ("sweep", "--alpha1-min", "2.5", "--alpha1-max", "2.5", "--grid", "512"),
        ),
    )
}


# ---------------------------------------------------------------------------
# pools and sequences


def load_pool(name):
    """Strata of the stored pool: {stratum: [entry, ...]}; entry keys argv, ref, known."""
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def recorded_failure(entry):
    return entry["ref"].startswith("!")


def sequence(workload: Workload, pool, seed):
    """Endless seeded operation sequence: yields (index, stratum, entry).

    Each stratum's inputs recorded as successes are visited in a seeded
    shuffle; a stratum that runs out starts over in a fresh shuffle.
    """
    orders = {}
    for stratum in dict.fromkeys(workload.pattern):
        entries = [e for e in pool[stratum] if not recorded_failure(e)]
        rng = random.Random(f"perfbench:{workload.name}:{stratum}:{seed}")
        orders[stratum] = [rng, entries, rng.sample(entries, len(entries)), 0]
    index = 0
    while True:
        stratum = workload.pattern[index % len(workload.pattern)]
        state = orders[stratum]
        rng, entries, order, pos = state
        if pos == len(order):
            order[:] = rng.sample(entries, len(entries))
            pos = 0
        state[3] = pos + 1
        yield index, stratum, order[pos]
        index += 1


def recorded_failures(pool):
    """One input per stratum and recorded failure class, the first in pool
    order; the documented examples (``known``) lead their stratum."""
    picked = {}
    for stratum, entries in pool.items():
        for entry in entries:
            if recorded_failure(entry):
                picked.setdefault((stratum, entry["ref"]), entry)
    return list(picked.values())


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    ok: bool
    cells: list  # decoded report cells (empty on failure)
    error: str | None  # normalized failure message class
    inconclusive: int = 0
    reported: int = 0

    def ref_string(self):
        return "|".join(self.cells) if self.ok else "!" + self.error


def _abbrev(value):
    return _ABBREV.get(value, value)


def _format_bound(text):
    try:
        return "%.6g" % float(text)
    except ValueError:
        return text


_ERROR_RULES = (
    (re.compile(r"theorem/oracle disagreement: (.*)"),
     lambda m: "theorem/oracle disagreement on "
     + ",".join(part.split(":")[0].strip() for part in m.group(1).split(";"))),
    (re.compile(r"quadrature on \(([^,]+), ([^)]+)\) did not converge"),
     lambda m: f"QuadratureError: no convergence on ({_format_bound(m.group(1))}, "
     f"{_format_bound(m.group(2))})"),
    (re.compile(r"quadrature on \(([^,]+), ([^)]+)\) (produced a non-finite value|error estimate)"),
     lambda m: f"QuadratureError: {m.group(3)} on ({_format_bound(m.group(1))}, "
     f"{_format_bound(m.group(2))})"),
    (re.compile(r"aging class (\w+)=(\w+) contradicts the order engine \((\w+) vs Exp\(1\) is (\w+)\)"),
     lambda m: f"InternalConsistencyError: {m.group(1)}={m.group(2)} contradicts "
     f"{m.group(3)} {m.group(4)}"),
    (re.compile(r"implication diagram violated: (.*)"),
     lambda m: "InternalConsistencyError: implication diagram violated"),
)


def classify_error(message):
    """Message class of a failure: the message with input-specific numbers removed."""
    message = message.strip()
    for pattern, fmt in _ERROR_RULES:
        m = pattern.search(message)
        if m:
            return fmt(m)
    generic = re.sub(r"[-+]?\d[\d.eE+-]*", "#", message.splitlines()[0] if message else "")
    return generic[:100] or "(no message)"


def decode(command, rc, report, stderr_text, exc):
    """Decode one CLI call into an Outcome.

    A call fails when ``main`` raised or returned 1; otherwise its report
    (JSON for compare/aging, CSV for sweep) is parsed into cells.
    """
    if exc is not None:
        return Outcome(False, [], f"{type(exc).__name__}: {classify_error(str(exc))}")
    if rc not in (0, 2):
        lines = [ln for ln in stderr_text.splitlines() if ln.startswith("qorder: error:")]
        msg = lines[-1][len("qorder: error:"):] if lines else f"exit code {rc}"
        return Outcome(False, [], classify_error(msg))
    if report is None:
        return Outcome(False, [], "no report written")
    if command == "compare":
        doc = json.loads(report)
        cells = [_abbrev(v["status"]) for v in doc["verdicts"]]
        if [v["order"] for v in doc["verdicts"]] != list(ORDERS):
            raise ValueError("compare report lists orders out of order")
        return Outcome(True, cells, None, cells.count("I"), len(cells))
    if command == "aging":
        rep = json.loads(report)["report"]
        cells = [rep["hazard"]["status"], rep["mrl_class"], rep["ihrwa_class"], rep["ifra_class"]]
        return Outcome(True, cells, None, cells.count("Inconclusive"), len(cells))
    if command == "sweep":
        rows = list(csv.reader(io.StringIO(report.decode("utf-8"))))
        if rows[0] != ["alpha1", "alpha2", "in_region", "ratio_shape", "star", "qmit", "dmrl"]:
            raise ValueError(f"unexpected sweep header {rows[0]}")
        cells, undecided = [], 0
        for row in rows[1:]:
            statuses = [_abbrev(s) for s in row[4:]]
            undecided += statuses.count("I")
            cells.append("/".join([row[2], row[3]] + statuses))
        return Outcome(True, cells, None, undecided, 3 * len(rows[1:]))
    raise ValueError(f"unknown command {command!r}")


def expected_exit(command, outcome):
    """Exit code the CLI documents for a successful call with these cells."""
    if command == "compare":
        return 2 if "I" in outcome.cells else 0
    if command == "aging":
        return 2 if "Inconclusive" in outcome.cells[1:] else 0
    return 0


def compare_to_reference(ref, outcome):
    """Problems with ``outcome`` against the recorded reference string.

    Allowed: a recorded failure that now succeeds, and an undecided cell that
    is now decided.  Anything else that differs from a recorded determinate
    cell is a problem.
    """
    if ref.startswith("!"):
        return []
    if not outcome.ok:
        return [f"recorded success now fails: {outcome.error}"]
    ref_cells = ref.split("|")
    if len(ref_cells) != len(outcome.cells):
        return [f"report has {len(outcome.cells)} cells, reference has {len(ref_cells)}"]
    problems = []
    for i, (want, got) in enumerate(zip(ref_cells, outcome.cells)):
        if want == got:
            continue
        if "/" in want:  # sweep row cell: in_region/shape/star/qmit/dmrl
            parts = zip(want.split("/"), got.split("/"))
            if all(w == g or w in UNDECIDED for w, g in parts):
                continue
        elif want in UNDECIDED:
            continue
        problems.append(f"cell {i}: reference {want}, now {got}")
    return problems


def family(spec):
    """Model family of a spec string, as used in failure breakdowns."""
    if spec.startswith("dsl:"):
        if "(p/(1-p))" in spec:
            return "dsl-loglogistic"
        if "(-log(1-p))" in spec:
            return "dsl-weibull"
        return "dsl-exp-fd" if "qdf=" not in spec else "dsl"
    return spec.split(":", 1)[0]


def entry_family(argv):
    specs = [argv[i + 1] for i, a in enumerate(argv) if a in ("--x", "--y")]
    if argv[0] == "sweep":
        return "tukey-sweep-row"
    return f"{argv[0]} " + " vs ".join(family(s) for s in specs)
