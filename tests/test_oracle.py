import math

import numpy as np
import pytest

from qorder.errors import DomainError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import (
    GridVerdict,
    grid_monotone,
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
        g = logit_grid(101, 1e-6)
        assert g[0] == pytest.approx(1e-6, rel=1e-9)
        assert g[-1] == pytest.approx(1 - 1e-6, rel=1e-9)
        assert np.allclose(g + g[::-1], 1.0)
        assert np.all(np.diff(g) > 0)

    def test_logit_grid_shared_and_read_only(self):
        g = logit_grid(257, 1e-4)
        assert logit_grid(257, 1e-4) is g
        assert logit_grid(257, p_min=1e-4) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 0.5
        assert np.all(np.diff(g) > 0)

    def test_grid_monotone_constant(self):
        v = grid_monotone(lambda p: np.full_like(np.asarray(p, dtype=float), 3.0))
        assert v.status == "Constant"

    def test_grid_monotone_directions(self):
        assert grid_monotone(lambda p: np.asarray(p) ** 2).status == "Increasing"
        assert grid_monotone(lambda p: (1 - np.asarray(p)) ** 2).status == "Decreasing"

    def test_grid_monotone_mixed_reports_violation(self):
        v = grid_monotone(lambda p: np.sin(2 * math.pi * np.asarray(p)))
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
        vals = lower_cumulative(lambda q: q / (1.0 - q), 512)
        expected = -np.log1p(-grid) - grid
        assert np.max(np.abs(vals - expected) / np.maximum(expected, 1e-12)) < 1e-9

    def test_upper_cumulative_closed_form(self):
        grid = logit_grid(512)
        vals = upper_cumulative(lambda q: 1.0 - q, 512)
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
        assert isinstance(v.to_dict()["grid_n"], int)
