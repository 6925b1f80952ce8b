"""Acceptance gate: one pass/fail line per criterion on stdout.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
criterion is a single test with its stated tolerance and time budget.
"""

import time
from collections import Counter

import numpy as np
import pytest
from conftest import oracle_can_resolve

from qorder import orders
from qorder.aging import aging_report
from qorder.deltas import delta, delta_ps, endpoint_limit, eps, ratio_qd
from qorder.empirical import SampleSet, qq_transform
from qorder.errors import DomainError
from qorder.limits import limit_at
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import order_oracle
from qorder.orders import (
    BOTH_FAIL,
    EQUIVALENT,
    HOLDS,
    HOLDS_REVERSED,
    INCONCLUSIVE,
    ORDERS,
    PairContext,
    check_star,
    compare_all,
)
from qorder.shape import tukey_unimodal_region

X_TUKEY = TukeyGeneralized(4, 1, 2.5)
Y_TUKEY = TukeyGeneralized(1.5, 1, 1.5)
EXP = UnitExponential()


def _verdict_line(name, ok):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _statuses(verdicts):
    return {v.order: v.status for v in verdicts}


def test_tukey_worked_example():
    t0 = time.perf_counter()
    got = _statuses(compare_all(X_TUKEY, Y_TUKEY, method="both"))
    elapsed = time.perf_counter() - t0
    expected = {
        "convex": BOTH_FAIL,
        "qmit": BOTH_FAIL,
        "dmrl": BOTH_FAIL,
        "star": HOLDS,
        "ps": HOLDS,
        "nbue": HOLDS,
    }
    _verdict_line(
        "tukey-worked-example",
        got == expected and elapsed < 2.0,
    )


def test_closed_form_delta_limits():
    l0 = endpoint_limit("delta", X_TUKEY, Y_TUKEY, 0)
    l1 = endpoint_limit("delta", X_TUKEY, Y_TUKEY, 1)
    n0 = limit_at(lambda p: delta(X_TUKEY, Y_TUKEY, p), 0)
    n1 = limit_at(lambda p: delta(X_TUKEY, Y_TUKEY, p), 1)
    ok = (
        l0.method == "analytic-hint"
        and l1.method == "analytic-hint"
        and abs(l0.x - 1.3) < 1e-9
        and abs(l1.x - 0.5) < 1e-9
        and abs(n0.x - 1.3) / 1.3 < 1e-3
        and abs(n1.x - 0.5) / 0.5 < 1e-3
    )
    _verdict_line("closed-form-delta-limits", ok)


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """(exit code, seconds, rows as dicts) of the full default sweep, run once."""
    from qorder.cli import main

    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    t0 = time.perf_counter()
    code = main(["sweep", "--out", str(out)])  # defaults: 0.05..4.95 step 0.05
    elapsed = time.perf_counter() - t0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    return code, elapsed, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_figure_region_sweep(default_sweep):
    code, elapsed, rows = default_sweep
    in_region = shape_ok = 0
    for row in rows:
        if row["in_region"] == "true":
            in_region += 1
            shape_ok += row["ratio_shape"] == "UnimodalMax"
    ok = code == 0 and in_region > 0 and shape_ok == in_region and elapsed < 60.0
    print(f"\n  region cells: {in_region}, unimodal-max: {shape_ok}, {elapsed:.1f}s")
    _verdict_line("figure-region-sweep", ok)


# every column of the full default sweep, counted; a change that moves a
# status on purpose updates these and says so
_DEFAULT_SWEEP_COUNTS = {
    "ratio_shape": {"Constant": 101, "UnimodalMax": 3840, "UnimodalMin": 3840, "NModal": 2020},
    "star": {BOTH_FAIL: 9696, INCONCLUSIVE: 101, HOLDS: 2, HOLDS_REVERSED: 2},
    "qmit": {EQUIVALENT: 101, INCONCLUSIVE: 9696, HOLDS: 2, HOLDS_REVERSED: 2},
    "dmrl": {EQUIVALENT: 101, INCONCLUSIVE: 9696, HOLDS: 2, HOLDS_REVERSED: 2},
}


def test_default_sweep_column_counts(default_sweep):
    code, _, rows = default_sweep
    assert code == 0 and len(rows) == 99 * 99
    counts = {col: dict(Counter(row[col] for row in rows)) for col in _DEFAULT_SWEEP_COUNTS}
    assert counts == _DEFAULT_SWEEP_COUNTS


# star cells of the default sweep on which the grid oracle disagrees with the theorem:
# the ratio's minima lie outside the grid window (ROADMAP item 15); a change that mends
# them updates this set
_SWEEP_STAR_DISAGREEMENTS = {(1.05, 1.10), (1.05, 1.15), (1.10, 1.05), (1.15, 1.05)}


def test_default_sweep_star_agrees_with_the_grid_oracle(default_sweep):
    _, _, rows = default_sweep
    alphas = sorted({float(row["alpha1"]) for row in rows})
    models = {a: TukeyGeneralized(2.0, 1.0, a) for a in alphas}  # one grid profile each
    agree, disagree = 0, set()
    for row in rows:
        if row["star"] == INCONCLUSIVE:
            continue
        a1, a2 = float(row["alpha1"]), float(row["alpha2"])
        gv = order_oracle(models[a1], models[a2], "star", 4096)
        if orders._combine(*orders._oracle_directions(gv)) == row["star"]:
            agree += 1
        else:
            disagree.add((round(a1, 2), round(a2, 2)))
    assert (agree, disagree) == (9696, _SWEEP_STAR_DISAGREEMENTS)


_MIRROR = {HOLDS: HOLDS_REVERSED, HOLDS_REVERSED: HOLDS,
           "UnimodalMax": "UnimodalMin", "UnimodalMin": "UnimodalMax",
           "Increasing": "Decreasing", "Decreasing": "Increasing"}


def test_default_sweep_mirrors_each_cell(default_sweep):
    # swapping X and Y reverses each order and turns the ratio upside down
    _, _, rows = default_sweep
    cells = {(row["alpha1"], row["alpha2"]): row for row in rows}
    columns = ("ratio_shape", "star", "qmit", "dmrl")
    wrong = [(a1, a2) for (a1, a2), row in cells.items()
             if tuple(_MIRROR.get(row[c], row[c]) for c in columns)
             != tuple(cells[a2, a1][c] for c in columns)]
    assert len(cells) == 99 * 99 and wrong == []


def test_govindarajulu_aging_bundle():
    rep = aging_report(Govindarajulu(0, 2, 2))
    ev = rep.evidence
    ok = (
        rep.hazard.status == "BT"
        and abs(rep.hazard.modes[0][0] - 1 / 3) < 1e-6
        and rep.mrl_class == "UBT"
        and rep.ifra_class not in ("DFRA", "IFRA", "Both")
        and abs(ev["ifra_value_at_pstar"] - (-0.1138)) < 1e-3
        and ev["ihrwa_limit_1"]["kind"] == "+inf"
        and ev["ihrwa_surrogate"] == rep.ihrwa_class
        and ("ihrwa_arbitration" in ev or "ihrwa_conflict" in ev)
    )
    _verdict_line("govindarajulu-aging-bundle", ok)


def test_closed_form_star_condition():
    rng = np.random.default_rng(2026)
    ok = True
    cells = 0
    while cells < 100:
        a1 = float(rng.choice([1.0, 2.0]))
        a2 = float(rng.uniform(1.02, 1.98))
        eta1, eta2 = rng.uniform(0.5, 2.0, size=2)
        lam1 = eta1 + rng.uniform(0.0, 3.0)
        lam2 = eta2 + rng.uniform(0.0, 3.0)
        lhs = (lam1 + eta1) * eta2 * a2
        rhs = (lam2 + eta2) * 2 * eta1
        if abs(lhs - rhs) < 1e-6:
            continue  # borderline draw; the inequality is strict
        cells += 1
        X, Y = TukeyGeneralized(lam1, eta1, a1), TukeyGeneralized(lam2, eta2, a2)
        v = check_star(PairContext(X, Y))
        holds = v.status in (HOLDS, EQUIVALENT)
        if holds != (lhs > rhs):
            ok = False
            break
    _verdict_line("closed-form-star-condition", ok and cells == 100)


def _random_region_pair(rng):
    while True:
        a1, a2 = rng.uniform(0.1, 4.9, size=2)
        try:
            if not tukey_unimodal_region(a1, a2):
                continue
        except DomainError:
            continue
        eta1, eta2 = rng.uniform(0.5, 2.0, size=2)
        return (
            TukeyGeneralized(eta1 + rng.uniform(0, 2), eta1, a1),
            TukeyGeneralized(eta2 + rng.uniform(0, 2), eta2, a2),
        )


MIRROR = {HOLDS: HOLDS_REVERSED, HOLDS_REVERSED: HOLDS, BOTH_FAIL: BOTH_FAIL,
          EQUIVALENT: EQUIVALENT, INCONCLUSIVE: INCONCLUSIVE}


def test_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    failures = []

    # implication chain + antisymmetry on 50 pairs (compare_all itself raises
    # on any implication violation)
    for _ in range(50):
        X, Y = _random_region_pair(rng)
        fwd = _statuses(compare_all(X, Y))
        rev = _statuses(compare_all(Y, X))
        for order in ORDERS:
            if rev[order] != MIRROR[fwd[order]]:
                failures.append(f"antisymmetry {order} on {X.label()} vs {Y.label()}")

    # scale invariance: (cX, cY) and (X, cY) both preserve all six verdicts
    for _ in range(50):
        X, Y = _random_region_pair(rng)
        c = float(rng.uniform(0.1, 10.0))
        base = _statuses(compare_all(X, Y))
        cX = TukeyGeneralized(c * X.lam, c * X.eta, X.alpha)
        cY = TukeyGeneralized(c * Y.lam, c * Y.eta, Y.alpha)
        if _statuses(compare_all(cX, cY)) != base:
            failures.append(f"scale (cX,cY) c={c:.3f} on {X.label()} vs {Y.label()}")
        if _statuses(compare_all(X, cY)) != base:
            failures.append(f"scale (X,cY) c={c:.3f} on {X.label()} vs {Y.label()}")

    # theorem/oracle agreement on 200 resolvable pairs
    agreed = 0
    while agreed < 200:
        X, Y = _random_region_pair(rng)
        if not oracle_can_resolve(X, Y):
            continue
        try:
            compare_all(X, Y, method="both")
        except Exception as exc:
            failures.append(f"agreement: {X.label()} vs {Y.label()}: {exc}")
        agreed += 1

    # delta(p) = int_0^p [ratio(p) qd_X - qd_Y] dq + l_X ratio(p) - l_Y
    from qorder.oracle import quadrature

    lx, ly = X_TUKEY.support_lo, Y_TUKEY.support_lo
    for p in np.linspace(0.02, 0.98, 49):
        p = float(p)
        r = ratio_qd(X_TUKEY, Y_TUKEY, p)
        lhs = delta(X_TUKEY, Y_TUKEY, p)
        rhs = quadrature(
            lambda q: r * X_TUKEY.quantile_density(q) - Y_TUKEY.quantile_density(q),
            0.0, p,
        ) + lx * r - ly
        if abs(lhs - rhs) > 1e-7 * max(abs(lhs), 1.0):
            failures.append(f"delta integral identity at p={p}")

    # EPS identity: eps(X,p) = upper integral of (1-q) qd / ((1-p) F^-1(p))... via delta_ps
    for p in (0.1, 0.5, 0.9):
        lhs = delta_ps(X_TUKEY, Y_TUKEY, p)
        rhs = X_TUKEY.quantile(p) / X_TUKEY.mean - Y_TUKEY.quantile(p) / Y_TUKEY.mean
        if abs(lhs - rhs) > 1e-9:
            failures.append(f"delta_ps identity at p={p}")
        escaled = eps(TukeyGeneralized(3 * 4, 3 * 1, 2.5), p)
        if abs(eps(X_TUKEY, p) - escaled) > 1e-9:
            failures.append(f"eps scale invariance at p={p}")

    # hazard-quantile / ratio identity
    from qorder.aging import hazard_quantile

    gov = Govindarajulu(0, 2, 2)
    for p in np.linspace(0.01, 0.99, 99):
        p = float(p)
        if abs(hazard_quantile(gov, p) - ratio_qd(gov, EXP, p)) > 1e-12 * abs(
            hazard_quantile(gov, p)
        ):
            failures.append(f"hazard identity at p={p}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 min")
    print(f"\n  property suites in {elapsed:.1f}s, {len(failures)} failure(s)")
    for f in failures[:10]:
        print("   -", f)
    _verdict_line("property-suites", not failures)


def test_empirical_identity_and_equivariance():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        vals = tuple(rng.exponential(2.0, size=int(rng.integers(4, 80))))
        s = SampleSet(vals)
        if any(y != x for x, y in qq_transform(s, s)):
            ok = False
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2.0))
        sy = SampleSet(tuple(a * v + b for v in s.values))
        base = qq_transform(s, s)
        moved = qq_transform(s, sy)
        if any(y2 != a * y + b or x2 != x
               for (x, y), (x2, y2) in zip(base, moved)):
            ok = False
    _verdict_line("empirical-identity", ok)
