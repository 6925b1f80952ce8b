"""Emit one pass/fail line per acceptance criterion in the terminal summary
(the in-test prints are only visible under -s), load the benchmark's workload
module for the tests that read its input pools, and keep the helpers that
several test modules share."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qorder import oracle
from qorder.deltas import delta, endpoint_limit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, the benchmark's pools and report decoding,
    loaded read-only: nothing is written under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def oracle_can_resolve(X, Y):
    """The grid oracle sees (P_MIN, 1 - P_MIN); a pair whose only sign change
    of delta lies beyond the grid edge is undecidable at that resolution, so
    theorem/oracle agreement is only asserted where the two routes measure
    the same thing.  Detected by comparing delta's sign at the grid edge with
    its endpoint limit."""
    for end, edge in ((0.0, oracle.P_MIN), (1.0, 1.0 - oracle.P_MIN)):
        lim = endpoint_limit("delta", X, Y, end)
        if lim.kind == "finite" and lim.value * delta(X, Y, edge) < 0.0:
            return False
    return True


_LABELS = {
    "test_tukey_worked_example": "tukey-worked-example",
    "test_closed_form_delta_limits": "closed-form-delta-limits",
    "test_figure_region_sweep": "figure-region-sweep",
    "test_govindarajulu_aging_bundle": "govindarajulu-aging-bundle",
    "test_closed_form_star_condition": "closed-form-star-condition",
    "test_property_suites": "property-suites",
    "test_empirical_identity_and_equivariance": "empirical-identity",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            label = _LABELS.get(name)
            if label:
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append(f"ACCEPTANCE {label}: {verdict}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
