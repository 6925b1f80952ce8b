"""The grid panels' 7-point Gauss-Legendre rule: its tables, and its accuracy.

``lower`` and ``upper`` sum the rule over the panels of ``logit_grid(n)``.
Their panel parts, L[k] - L[0] and U[k] - U[-1], are checked against the same
sums taken with a 15-point rule, and at n = 4096 against mpmath.  The DSL
models without a ``qdf`` are left out: their quantile density is a finite
difference, noise at 1e-5, whatever the rule.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from qorder import oracle
from qorder.cli import parse_spec

WEIBULL = "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s={s};k={k}"
WEIBULL_LOG1P = "dsl:s*(-log1p(-p))^(1/k);qdf=s/k*(-log1p(-p))^(1/k-1)/(1-p);s={s};k={k}"
LOGLOGISTIC = "dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s={s};b={b}"
WEIBULLS = [WEIBULL.format(s="2.42016", k="1.99702"), WEIBULL.format(s="1", k="0.7")]
WEIBULL_LOG1P_1 = WEIBULL_LOG1P.format(s="2.42016", k="1.99702")
LOGLOGISTIC_1 = LOGLOGISTIC.format(s="2.08376", b="3.36564")
SPECS = [
    "tukey:0,1,0.05", "tukey:0,1,0.3", "tukey:4,1,2.5", "tukey:0,1,8",
    "govindarajulu:0,0.2,0.2", "govindarajulu:0,2,2", "exp1", *WEIBULLS, WEIBULL_LOG1P_1,
    LOGLOGISTIC_1,
]
SRC = Path(__file__).resolve().parents[1] / "src"


def _panel_parts(X, n, nodes, weights):
    """(L[k] - L[0], U[k] - U[-1]) for k = 0..n-1, with the given rule on every panel."""
    grid = oracle.logit_grid(n)
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    qd = X.quantile_density(pts.ravel()).reshape(pts.shape)
    lower = half * ((pts * qd) @ weights)
    upper = half * (((1.0 - pts) * qd) @ weights)
    return (np.concatenate(([0.0], np.cumsum(lower))),
            np.concatenate((np.cumsum(upper[::-1])[::-1], [0.0])))


def _profile_parts(X, n):
    prof = X.profile(n)
    return prof.lower - prof.lower[0], prof.upper - prof.upper[-1]


class TestRuleTables:
    def test_nodes_and_weights_are_leggauss_7_bit_for_bit(self):
        nodes, weights = leggauss(7)
        assert oracle._GL_NODES.tobytes() == nodes.tobytes()
        assert oracle._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_seven_nodes_per_panel(self):
        assert oracle.panel_nodes(4096).size == 4095 * 7

    def test_cli_import_leaves_numpy_polynomial_out(self):
        code = "import sys, qorder.cli; print('numpy.polynomial' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestAgainstFifteenPoints:
    @pytest.mark.parametrize("n", [64, 512, 4096])
    @pytest.mark.parametrize("spec", SPECS)
    def test_panel_parts_agree_to_2e_11(self, spec, n):
        X = parse_spec(spec)
        got = _profile_parts(X, n)
        ref = _panel_parts(X, n, *leggauss(15))
        for g, r in zip(got, ref):
            # every part is a sum of positive panels, zero only where it is empty
            np.testing.assert_allclose(g, r, rtol=2e-11, atol=0.0)


def _mp_quantile_densities(mp):
    """Each model's quantile density at mpmath precision, by spec."""
    f = mp.mpf

    def tukey(a):  # eta = 1
        return lambda p: a * (p ** (a - 1) + (1 - p) ** (a - 1))

    def govindarajulu(s, b):
        return lambda p: s * b * (b + 1) * p ** (b - 1) * (1 - p)

    def weibull(s, k):
        return lambda p: s / k * (-mp.log(1 - p)) ** (1 / k - 1) / (1 - p)

    def loglogistic(s, b):
        return lambda p: s / b * (p / (1 - p)) ** (1 / b - 1) / (1 - p) ** 2

    return {
        "tukey:0,1,0.05": tukey(f("0.05")),
        "tukey:0,1,0.3": tukey(f("0.3")),
        "tukey:4,1,2.5": tukey(f("2.5")),
        "tukey:0,1,8": tukey(f(8)),
        "govindarajulu:0,0.2,0.2": govindarajulu(f("0.2"), f("0.2")),
        "govindarajulu:0,2,2": govindarajulu(f(2), f(2)),
        "exp1": lambda p: 1 / (1 - p),
        WEIBULLS[0]: weibull(f("2.42016"), f("1.99702")),
        WEIBULLS[1]: weibull(f(1), f("0.7")),
        WEIBULL_LOG1P_1: weibull(f("2.42016"), f("1.99702")),
        LOGLOGISTIC_1: loglogistic(f("2.08376"), f("3.36564")),
    }


class TestAgainstMpmath:
    # Below k = 64 (p < 1.6e-6) the Weibull expressions written with -log(1-p) lose
    # ten digits, so their quantile density carries ~5e-11 relative noise there and
    # both rules miss mpmath by that noise, not by their order; for them those panels
    # are covered by the 15-point comparison above.  Every other model, the Weibull
    # written with log1p among them, is checked at every k.
    K = (1, 8, 32, 64, 1024, 2048, 3072, 4094)
    NOISY_BELOW = 64

    @pytest.mark.parametrize("spec", SPECS)
    def test_seven_points_are_as_close_as_fifteen(self, spec):
        mp = pytest.importorskip("mpmath")
        n = 4096
        X = parse_spec(spec)
        got = _profile_parts(X, n)
        ref = _panel_parts(X, n, *leggauss(15))
        grid = oracle.logit_grid(n)
        with mp.workdps(30):
            qd = _mp_quantile_densities(mp)[spec]
            ends = (0, *self.K, n - 1)
            ts = [mp.log(mp.mpf(grid[k]) / (1 - mp.mpf(grid[k]))) for k in ends]

            def segment(weight, ta, tb):
                # on t = logit(p), dp = p(1-p) dt: smooth on every segment
                def fn(t):
                    p = 1 / (1 + mp.exp(-t))
                    return weight(p) * qd(p) * p * (1 - p)
                return mp.quad(fn, mp.linspace(ta, tb, int(tb - ta) + 2),
                               method="gauss-legendre")

            lower = [segment(lambda p: p, *ab) for ab in zip(ts, ts[1:])]
            upper = [segment(lambda p: 1 - p, *ab) for ab in zip(ts, ts[1:])]
            for i, k in enumerate(self.K):
                if k < self.NOISY_BELOW and "log(1-p)" in spec:
                    continue
                exact = (mp.fsum(lower[:i + 1]), mp.fsum(upper[i + 1:]))
                for side in (0, 1):
                    e7 = abs(mp.mpf(got[side][k]) - exact[side])
                    e15 = abs(mp.mpf(ref[side][k]) - exact[side])
                    assert e7 <= e15 + mp.mpf("1e-13") * abs(exact[side]), (k, side)
