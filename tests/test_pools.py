"""Every argv of the dsl pool, the only one that runs ``dsl.compile``, and
every 8th argv of the other input pools of the benchmark, run in-process
through ``cli.main`` as the benchmark runs it, against its recorded reference.

The pools and the decoding of a report are the benchmark's own
(``perfbench/reference/*.json`` and ``perfbench/workloads.py``, loaded by the
``workloads`` fixture); they are read here and never written, so a status that
moves away from a recorded determinate cell fails the tests before the
benchmark runs.  The full census is ``scripts/replay_pools.py``."""

import contextlib
import io
from pathlib import Path

import pytest

from qorder import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WHOLE = "dsl"  # the only pool that runs dsl.compile is replayed whole
EVERY = 8  # of each other pool, every 8th argv
POOLS = sorted(path.stem for path in (PERFBENCH / "reference").glob("*.json"))


def _run(argv, out):
    """(exit code, exception, stderr, report bytes) of one in-process CLI call with --out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = exc = None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(argv) + ["--out", str(out)])
    except (Exception, SystemExit) as err:  # every escape from main is a failure
        exc = err
    report = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return rc, exc, stderr.getvalue(), report


def test_every_pool_is_replayed():
    assert POOLS == ["aging-param", "compare-param", "dsl", "sweep"]


@pytest.mark.parametrize("pool", POOLS)
def test_pool_argv_keep_their_recorded_statuses(pool, tmp_path, workloads):
    entries = [e for stratum in workloads.load_pool(pool).values() for e in stratum]
    entries = entries if pool == WHOLE else entries[::EVERY]
    assert entries
    problems = []
    for entry in entries:
        argv = entry["argv"]
        rc, exc, stderr, report = _run(argv, tmp_path / ("rows.csv" if argv[0] == "sweep"
                                                         else "report.json"))
        outcome = workloads.decode(argv[0], rc, report, stderr, exc)
        found = workloads.compare_to_reference(entry["ref"], outcome)
        if outcome.ok and rc != workloads.expected_exit(argv[0], outcome):
            found.append(f"exit code {rc} does not match the report")
        problems += [f"{' '.join(argv)}: {p}" for p in found]
    assert problems == []
