"""The models' weighted integrals L(p) = int_0^p q*qd(q) dq and
U(p) = int_p^1 (1-q)*qd(q) dq: closed forms for the built-in families against
high-precision mpmath, the quadrature default kept bit for bit for expression
models, and the decision functions that read them."""

import ast
import inspect
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qorder import deltas, models, oracle
from qorder.cli import parse_spec
from qorder.errors import DomainError, QorderError, QuadratureError
from qorder.models import (
    Govindarajulu,
    QuantileModel,
    TukeyGeneralized,
    UnitExponential,
    lower_integrand,
    upper_integrand,
)

TUKEYS = [(-1.3, -0.95), (-0.7, -0.5), (-2.0, -0.05), (1.0, 0.3), (0.8, 0.75), (1.0, 1.0),
          (2.0, 2.5), (1.2, 4.2), (0.8, 5.0)]  # (eta, alpha)
BETAS = [0.3, 0.53, 1.0, 1.17, 2.2, 3.7, 5.0]
WEIBULL = "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1.3;k=1.7"


def _cutoff(a):
    """The argument at which a family's cancelling closed form gives way to its series."""
    return 0.1 / max(1.0, abs(a))


def _points(a):
    """p (for L) or t = 1 - p (for U) over [1e-10, 0.5], and both sides of the cutoff."""
    c = _cutoff(a)
    below, above = c * (1 - 1e-9), c * (1 + 1e-9)
    assert models._series_applies(below, a) and not models._series_applies(above, a)
    return sorted({float(x) for x in np.logspace(-10, math.log10(0.5), 11)} | {below, above})


def _tukey_L(eta, a, x):
    x, a = mp.mpf(x), mp.mpf(a)
    return eta / (a + 1) * (a * x ** (a + 1) + 1 - (1 - x) ** a * (1 + a * x))


def _govindarajulu_L(sigma, b, p):
    p, b = mp.mpf(p), mp.mpf(b)
    return sigma * b * p ** (b + 1) * (1 - (b + 1) * p / (b + 2))


def _govindarajulu_U(sigma, b, t):
    t, b = mp.mpf(t), mp.mpf(b)
    return sigma / (b + 2) * (2 - (1 - t) ** b * (2 + 2 * b * t + b * (b + 1) * t**2))


def _exp1_L(p):
    p = mp.mpf(p)
    return -mp.log1p(-p) - p


def _check(model, L, U, points):
    """L and U at p = x and at p = 1 - x for each x, against references taken in the
    exact complement of each float p; the forms cancel up to 30 digits at 1e-10."""
    with mp.workdps(80):
        for x in points:
            for p in (x, 1.0 - x):
                q = 1 - mp.mpf(p)
                got = model.lower_weighted_integral(p)
                assert abs(got - L(p)) <= 1e-12 * abs(L(p)), ("L", p)
                got = model.upper_weighted_integral(p)
                assert abs(got - U(q)) <= 1e-12 * abs(U(q)), ("U", p)


class TestClosedFormsAgainstMpmath:
    @pytest.mark.parametrize("eta, alpha", TUKEYS)
    def test_tukey(self, eta, alpha):
        X = TukeyGeneralized(0.4, eta, alpha)
        # qd(q) = qd(1-q), so U(p) = L(1-p)
        _check(X, lambda p: _tukey_L(eta, alpha, p), lambda t: _tukey_L(eta, alpha, t),
               _points(alpha))

    @pytest.mark.parametrize("beta", BETAS)
    def test_govindarajulu(self, beta):
        X = Govindarajulu(0.2, 1.7, beta)
        _check(X, lambda p: _govindarajulu_L(1.7, beta, p),
               lambda t: _govindarajulu_U(1.7, beta, t), _points(beta))

    def test_exp1(self):
        _check(UnitExponential(), _exp1_L, lambda t: t, _points(0.0))

    @pytest.mark.parametrize("p", [1e-9, 0.02, 0.3, 0.5, 0.8, 1 - 1e-9])
    def test_tukey_alpha_one_is_eta_p_squared(self, p):
        # qd = 2*eta is constant: L = eta*p^2, U = eta*(1-p)^2
        X = TukeyGeneralized(0, 1.5, 1.0)
        assert X.lower_weighted_integral(p) == pytest.approx(1.5 * p * p, rel=1e-14)
        assert X.upper_weighted_integral(p) == pytest.approx(1.5 * (1 - p) ** 2, rel=1e-14)


class TestClosedFormsAgainstQuadrature:
    """The closed forms and the default quadrature are two computations of one integral;
    values below about 1e-5 are left out, where the quadrature's absolute tolerance of
    1e-13 costs it relative accuracy."""

    @pytest.mark.parametrize("X", [TukeyGeneralized(0, -1, -0.5), TukeyGeneralized(4, 1, 2.5),
                                   Govindarajulu(0, 2, 0.53), Govindarajulu(0, 2, 2),
                                   UnitExponential()], ids=str)
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_within_the_quadrature_tolerance(self, X, p):
        for name in ("lower_weighted_integral", "upper_weighted_integral"):
            closed = getattr(X, name)(p)
            assert abs(closed) > 1e-5
            numeric = getattr(QuantileModel, name)(X, p)
            assert numeric == pytest.approx(closed, rel=1e-8), name


class TestParameters:
    @pytest.mark.parametrize("p", [1e-10, 0.03, 0.3, 0.5, 0.97, 1 - 1e-10])
    def test_location_leaves_the_values_bit_identical(self, p):
        pairs = [(TukeyGeneralized(0, -1, -0.5), TukeyGeneralized(7.25, -1, -0.5)),
                 (TukeyGeneralized(-3, 2, 2.5), TukeyGeneralized(1e6, 2, 2.5)),
                 (Govindarajulu(0, 2, 1.17), Govindarajulu(123.5, 2, 1.17))]
        for X, shifted in pairs:
            assert X.lower_weighted_integral(p) == shifted.lower_weighted_integral(p)
            assert X.upper_weighted_integral(p) == shifted.upper_weighted_integral(p)

    @pytest.mark.parametrize("alpha", [-1.0, -1.5, -3.0])
    def test_tukey_divergent_integrals_raise(self, alpha):
        X = TukeyGeneralized(0, -1, alpha)
        for integral in (X.lower_weighted_integral, X.upper_weighted_integral):
            with pytest.raises(QorderError, match="diverge for alpha <= -1"):
                integral(0.3)
        with pytest.raises(QorderError):
            deltas.delta_qmit(X, UnitExponential(), 0.3)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_outside_the_open_interval_is_a_domain_error(self, p):
        for X in (TukeyGeneralized(0, 1, 2), Govindarajulu(0, 1, 2), UnitExponential()):
            for integral in (X.lower_weighted_integral, X.upper_weighted_integral):
                with pytest.raises(DomainError):
                    integral(p)


class TestExpressionModelsIntegrateNumerically:
    @pytest.mark.parametrize("p", [1e-6, 0.1, 0.5, 0.9, 1 - 1e-6])
    def test_default_is_the_quadrature_bit_for_bit(self, p):
        X = parse_spec(WEIBULL)
        assert X.lower_weighted_integral(p) == oracle.quadrature(lower_integrand(X), 0.0, p,
                                                                 rel_tol=1e-8)
        assert X.upper_weighted_integral(p) == oracle.quadrature(upper_integrand(X), p, 1.0,
                                                                 rel_tol=1e-8)


class TestDecisionFunctionsReadTheModel:
    def test_built_in_families_run_no_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "quadrature", lambda *args, **kw: calls.append(args))
        tukey, gov, exp1 = TukeyGeneralized(4, 1, 2.5), Govindarajulu(0, 2, 0.53), UnitExponential()
        for X, Y in [(tukey, TukeyGeneralized(1.5, 1, 1.5)), (gov, exp1), (exp1, tukey)]:
            for p in (0.01, 0.4, 0.9):
                deltas.delta_qmit(X, Y, p)
                deltas.delta_dmrl(X, Y, p)
                deltas.eps(X, p)
                X.upper_weighted_integral(p) / (1 - p)  # the mrl
                X.lower_weighted_integral(p) / p  # the mit
                exp1.lower_weighted_integral(p) / X.lower_weighted_integral(p)  # wa_surrogate
        assert calls == []

    def test_eps_of_a_zero_quantile_is_inf_without_integrating(self):
        integrals = []

        class ZeroHead(UnitExponential):
            def quantile(self, p):
                return 0.0

            def upper_weighted_integral(self, p):
                integrals.append(p)
                raise QuadratureError("the integral was not needed")

        assert deltas.eps(ZeroHead(), 0.3) == math.inf
        assert integrals == []


def _calls_to_the_methods(node):
    names = ("lower_weighted_integral", "upper_weighted_integral")
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr in names]


def test_the_oracle_and_the_profiles_integrate_on_their_own():
    # the theorem/oracle agreement gate compares two independent computations
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert _calls_to_the_methods(ast.parse(source)) == []
    profile = ast.parse(inspect.getsource(models.GridProfile))
    assert _calls_to_the_methods(profile) == []
