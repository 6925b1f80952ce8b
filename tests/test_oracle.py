import math

import numpy as np
import pytest

from qorder import oracle
from qorder.errors import DomainError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import (
    GridVerdict,
    grid_sign,
    logit_grid,
    lower_cumulative,
    order_oracle,
    upper_cumulative,
)

X_TUKEY = TukeyGeneralized(4, 1, 2.5)
Y_TUKEY = TukeyGeneralized(1.5, 1, 1.5)
EXP = UnitExponential()

ORDERS = ("convex", "star", "qmit", "dmrl", "ps", "nbue")


class TestGrids:
    def test_logit_grid_shape_and_symmetry(self):
        g = logit_grid(101)
        assert oracle.P_MIN == 1e-6
        assert g[0] == pytest.approx(1e-6, rel=1e-9)
        assert g[-1] == pytest.approx(1 - 1e-6, rel=1e-9)
        assert np.allclose(g + g[::-1], 1.0)
        assert np.all(np.diff(g) > 0)

    def test_logit_grid_shared_and_read_only(self):
        g = logit_grid(257)
        assert logit_grid(257) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 0.5
        assert np.all(np.diff(g) > 0)

    @staticmethod
    def _monotone(fn, n=4096):
        grid = logit_grid(n)
        return oracle._monotone_verdict(grid, np.asarray(fn(grid), dtype=float))

    def test_monotone_verdict_constant(self):
        v = self._monotone(lambda p: np.full_like(np.asarray(p, dtype=float), 3.0))
        assert v.status == "Constant"

    def test_monotone_verdict_directions(self):
        assert self._monotone(lambda p: np.asarray(p) ** 2).status == "Increasing"
        assert self._monotone(lambda p: (1 - np.asarray(p)) ** 2).status == "Decreasing"

    def test_monotone_verdict_mixed_reports_violation(self):
        v = self._monotone(lambda p: np.sin(2 * math.pi * np.asarray(p)))
        assert v.status == "Mixed"
        assert v.worst_violation is not None

    def test_grid_sign(self):
        g = logit_grid(64)
        v = grid_sign(g, np.ones_like(g), np.ones_like(g))
        assert v.status == "Increasing"
        v = grid_sign(g, -np.ones_like(g), np.ones_like(g))
        assert v.status == "Decreasing"
        v = grid_sign(g, np.zeros_like(g), np.ones_like(g))
        assert v.status == "Constant"


class TestCumulatives:
    def test_lower_cumulative_closed_form(self):
        grid = logit_grid(512)
        vals = lower_cumulative(lambda q: 1.0 / (1.0 - q), 512, {})  # q*qd = q/(1-q)
        expected = -np.log1p(-grid) - grid
        assert np.max(np.abs(vals - expected) / np.maximum(expected, 1e-12)) < 1e-9

    def test_upper_cumulative_closed_form(self):
        grid = logit_grid(512)
        vals = upper_cumulative(np.ones_like, 512, {})  # (1-q)*qd = 1-q
        expected = 0.5 * (1.0 - grid) ** 2
        assert np.max(np.abs(vals - expected) / expected) < 1e-8


class TestOrderOracle:
    def test_star_tukey_pair_increasing(self):
        assert order_oracle(X_TUKEY, Y_TUKEY, "star", n=10000).status == "Increasing"

    def test_qmit_tukey_pair_mixed(self):
        assert order_oracle(X_TUKEY, Y_TUKEY, "qmit").status == "Mixed"

    def test_identity_pair_constant_everywhere(self):
        for order in ORDERS:
            v = order_oracle(X_TUKEY, X_TUKEY, order)
            assert v.status == "Constant", order

    def test_antisymmetry(self):
        flip = {"Increasing": "Decreasing", "Decreasing": "Increasing",
                "Constant": "Constant", "Mixed": "Mixed"}
        pairs = [
            (X_TUKEY, Y_TUKEY),
            (Govindarajulu(0, 2, 2), EXP),
            (Govindarajulu(0, 2, 0.5), EXP),
        ]
        for X, Y in pairs:
            for order in ORDERS:
                a = order_oracle(X, Y, order, n=1024)
                b = order_oracle(Y, X, order, n=1024)
                assert b.status == flip[a.status], (X.label(), Y.label(), order)

    def test_star_requires_positive_quantiles(self):
        shifted = TukeyGeneralized(0.0, 1.0, 2.5)  # support dips below zero
        with pytest.raises(DomainError):
            order_oracle(shifted, Y_TUKEY, "star")

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            order_oracle(X_TUKEY, Y_TUKEY, "likelihood-ratio")

    def test_verdict_records_grid_size(self):
        v = order_oracle(X_TUKEY, Y_TUKEY, "convex", n=777)
        assert v.n == 777
        assert type(v.n) is int


# The sign test as it read before it took |values| once and counted with count_nonzero,
# kept as the reference: the fused kernel must give its status, margin and worst
# violation bit for bit.  The reference monotone verdict passes the whole grid, as
# _monotone_verdict does since a violation in the last step got its real interval.
# The reference sign check names a violating point by itself (point=True): it read as
# the interval to the next point before, and the last point as a zero-width interval.
def _classify_signs_ref(grid, deltas, scales, point=False):
    thr = oracle.ORACLE_REL_TOL * scales
    pos = deltas > thr
    neg = deltas < -thr
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    accepted = np.abs(deltas[pos | neg]) / scales[pos | neg] if (n_pos + n_neg) else np.array([])
    margin = float(accepted.min()) if accepted.size else 0.0
    if n_pos and n_neg:
        status = "Mixed"
        minority = neg if n_pos >= n_neg else pos
    elif n_pos:
        status, minority = "Increasing", None
    elif n_neg:
        status, minority = "Decreasing", None
    else:
        status, minority = "Constant", None
    worst = None
    if minority is not None:
        idx = int(np.argmax(np.abs(deltas) * minority))
        end = idx if point else min(idx + 1, len(grid) - 1)
        worst = (float(grid[idx]), float(grid[end]), float(abs(deltas[idx])))
    return status, margin, worst


def _monotone_verdict_ref(grid, vals):
    deltas = np.diff(vals)
    scales = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), 1e-300)
    return GridVerdict(*_classify_signs_ref(grid, deltas, scales), len(grid))


def _grid_sign_ref(grid, values, scales):
    values = np.asarray(values, dtype=float)
    scales = np.maximum(np.asarray(scales, dtype=float), 1e-300)
    return GridVerdict(*_classify_signs_ref(grid, values, scales, point=True), len(grid))


def _verdict_bits(v):
    """A verdict's fields with every float as its repr, so -0.0, nan and ties compare exactly."""
    worst = None if v.worst_violation is None else tuple(map(repr, v.worst_violation))
    return v.status, repr(v.margin), worst, v.n


def _value_rows(n, rng):
    """Seeded rows: smooth, noisy at the tolerance, stepped, tiny, signed and non-finite."""
    grid = logit_grid(n)
    tol = oracle.ORACLE_REL_TOL
    rows = [np.full(n, 2.5), grid ** 2, np.sin(6 * grid), np.exp(-grid),
            np.cumsum(rng.choice([-1.0, 0.0, 1.0], n)),                 # ties for the worst step
            1.0 + np.cumsum(rng.choice([-1, 1], n) * tol * rng.uniform(0.5, 1.5, n)),
            rng.uniform(-1, 1, n) * 1e-305,                            # scales at the 1e-300 floor
            np.where(rng.random(n) < 0.1, -0.0, 0.0),
            rng.standard_normal(n)]
    for bad in (math.inf, -math.inf, math.nan):
        row = grid.copy()
        row[rng.integers(n)] = bad
        rows.append(row)
    # steps of exactly +-tol * scale, and the floats just beyond them
    base = np.full(n, 1.0)
    for k, step in enumerate((tol, -tol, np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0))):
        row = base.copy()
        row[1 + k::4] += step
        rows.append(row)
    return rows


class TestSignTestReference:
    @pytest.mark.parametrize("n", [3, 4, 64, 512, 4096])
    def test_monotone_verdict_equals_the_reference(self, n):
        rng = np.random.default_rng(20 + n)
        grid = logit_grid(n)
        with np.errstate(invalid="ignore", over="ignore"):
            for vals in _value_rows(n, rng):
                assert _verdict_bits(oracle._monotone_verdict(grid, vals)) == \
                    _verdict_bits(_monotone_verdict_ref(grid, vals))

    @pytest.mark.parametrize("n", [3, 4, 64, 512, 4096])
    def test_grid_sign_equals_the_reference(self, n):
        rng = np.random.default_rng(40 + n)
        grid = logit_grid(n)
        rows = _value_rows(n, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            for values, scales in zip(rows, rows[1:] + rows[:1]):
                scales = np.abs(scales)
                assert _verdict_bits(grid_sign(grid, values, scales)) == \
                    _verdict_bits(_grid_sign_ref(grid, values, scales))
                values = values - np.mean(values[np.isfinite(values)])
                assert _verdict_bits(grid_sign(grid, values, scales)) == \
                    _verdict_bits(_grid_sign_ref(grid, values, scales))

    def test_steps_at_the_tolerance_are_not_counted(self):
        grid = logit_grid(64)
        scales = np.full(64, 3.0)
        at = oracle.ORACLE_REL_TOL * scales
        assert grid_sign(grid, at, scales).status == "Constant"
        assert grid_sign(grid, -at, scales).status == "Constant"
        beyond = np.nextafter(at, 1.0)
        v = grid_sign(grid, beyond, scales)
        # |d|/s rounds to the tolerance itself, yet the step is counted
        assert v.status == "Increasing" and v.margin == pytest.approx(1e-9, rel=1e-15)

    def test_the_first_of_tied_worst_steps_is_reported(self):
        grid = logit_grid(8)
        v = oracle._monotone_verdict(grid, np.array([0.0, 1, 2, 1, 2, 3, 2, 3]))
        assert v.status == "Mixed"
        assert v.worst_violation == (grid[2], grid[3], 1.0)

    @pytest.mark.parametrize("i", [0, 3, 7])
    def test_a_sign_violation_names_its_point(self, i):
        grid = logit_grid(8)
        values = np.ones(8)
        values[i] = -2.0
        v = grid_sign(grid, values, np.ones(8))
        assert v.status == "Mixed"
        assert v.worst_violation == (grid[i], grid[i], 2.0)

    def test_a_violation_in_the_last_step_spans_that_step(self):
        grid = logit_grid(8)
        v = oracle._monotone_verdict(grid, np.array([0.0, 1, 2, 3, 4, 5, 6, 5]))
        assert v.status == "Mixed"
        assert v.worst_violation == (grid[6], grid[7], 1.0)
