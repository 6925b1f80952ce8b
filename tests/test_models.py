import math
import random
import tracemalloc

import numpy as np
import pytest

from qorder import oracle
from qorder.errors import DomainError, NonFiniteMeanError, ValidationError
from qorder.models import (Govindarajulu, TukeyGeneralized, UnitExponential, check_p,
                           upper_integrand)


class TestCheckP:
    def test_scalar_passthrough(self):
        assert check_p(0.5) == 0.5

    def test_array_passthrough(self):
        p = np.array([0.1, 0.9])
        assert np.array_equal(check_p(p), p)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            check_p(bad)

    def test_rejects_array_with_endpoint(self):
        with pytest.raises(DomainError):
            check_p(np.array([0.5, 1.0]))

    @staticmethod
    def _three_reductions(p):
        """check_p as it was written with three np.any reductions, for reference."""
        if type(p) is float or type(p) is int:
            if not 0.0 < p < 1.0:
                raise DomainError(f"probability argument must lie strictly inside (0,1), got {p!r}")
            return float(p)
        arr = np.asarray(p, dtype=float)
        if arr.size == 0:
            return arr
        if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError(f"probability argument must lie strictly inside (0,1), got {p!r}")
        return arr

    @staticmethod
    def _outcome(fn, p):
        try:
            out = fn(p)
        except DomainError as exc:
            return "raises", str(exc)
        return type(out), np.shape(out), np.asarray(out).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 1.5,
                                       0.5, 1e-300, 1.0 - 1e-16, 0, 1])
    def test_min_max_rejects_what_three_reductions_rejected(self, value):
        inputs = [value, np.float64(value), np.array(value), np.array([value]), [value],
                  [0.5, value], np.array([[0.25, value], [0.5, 0.75]]), (value, 0.5)]
        for p in inputs:
            assert self._outcome(check_p, p) == self._outcome(self._three_reductions, p)

    @pytest.mark.parametrize("p", [np.array([]), [], np.empty((0, 3)), np.linspace(0.01, 0.99, 21)])
    def test_empty_and_plain_arrays_as_before(self, p):
        assert self._outcome(check_p, p) == self._outcome(self._three_reductions, p)


class TestTukey:
    def test_quantile_closed_form(self):
        t = TukeyGeneralized(4.0, 1.0, 2.5)
        assert t.quantile(0.5) == pytest.approx(4.0)  # symmetric around the median
        p = 0.3
        expected = 4.0 + (p**2.5 - 0.7**2.5)
        assert t.quantile(p) == pytest.approx(expected, rel=1e-14)

    def test_quantile_density(self):
        t = TukeyGeneralized(1.5, 1.0, 1.5)
        p = 0.5
        assert t.quantile_density(p) == pytest.approx(1.5 * (0.5**0.5 + 0.5**0.5), rel=1e-14)

    def test_support_and_tails(self):
        t = TukeyGeneralized(4.0, 1.0, 2.5)
        assert t.support_lo == 3.0
        assert t.tail_quantile(1) == 5.0
        assert t.tail_qdensity(0) == 2.5  # eta*alpha for alpha > 1

    def test_mean_is_lambda(self):
        assert TukeyGeneralized(4.0, 1.0, 2.5).mean == 4.0

    def test_mean_divergence(self):
        t = TukeyGeneralized(0.0, -1.0, -1.5)
        with pytest.raises(NonFiniteMeanError):
            t.mean

    def test_eta_zero_rejected(self):
        with pytest.raises(ValidationError):
            TukeyGeneralized(0.0, 0.0, 1.0)

    def test_decreasing_quantile_rejected(self):
        # eta*alpha < 0 would make the quantile function decreasing
        with pytest.raises(ValidationError):
            TukeyGeneralized(0.0, 1.0, -2.0)

    def test_vectorized_matches_scalar(self):
        t = TukeyGeneralized(2.0, 1.0, 0.7)
        grid = np.linspace(0.01, 0.99, 17)
        vec = t.quantile(grid)
        assert vec == pytest.approx([t.quantile(float(p)) for p in grid])


class TestGovindarajulu:
    def test_quantile_and_density(self):
        g = Govindarajulu(0.0, 2.0, 2.0)
        p = 1.0 / 3.0
        assert g.quantile(p) == pytest.approx(2.0 * (3 * p**2 - 2 * p**3), rel=1e-14)
        # qd = sigma*b*(b+1)*p^(b-1)*(1-p) = 12 p (1-p)
        assert g.quantile_density(p) == pytest.approx(12 * p * (1 - p), rel=1e-14)

    def test_mean_closed_form(self):
        assert Govindarajulu(0.0, 2.0, 2.0).mean == pytest.approx(1.0)
        assert Govindarajulu(1.0, 3.0, 1.0).mean == pytest.approx(3.0)

    def test_support(self):
        g = Govindarajulu(0.5, 2.0, 3.0)
        assert g.support_lo == 0.5
        assert g.tail_quantile(1) == 2.5

    def test_tail_density_classification(self):
        assert Govindarajulu(0, 1, 2.0).tail_qdensity(0) == 0.0
        assert Govindarajulu(0, 1, 1.0).tail_qdensity(0) == 2.0
        assert Govindarajulu(0, 1, 0.5).tail_qdensity(0) == math.inf
        assert Govindarajulu(0, 1, 2.0).tail_qdensity(1) == 0.0

    @pytest.mark.parametrize("theta,sigma,beta", [(-1, 1, 1), (0, 0, 1), (0, 1, 0)])
    def test_parameter_validation(self, theta, sigma, beta):
        with pytest.raises(ValidationError):
            Govindarajulu(theta, sigma, beta)


class TestUnitExponential:
    def test_quantile(self):
        e = UnitExponential()
        assert e.quantile(1 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_mean_and_tails(self):
        e = UnitExponential()
        assert e.mean == 1.0
        assert e.support_lo == 0.0
        assert e.tail_quantile(1) == math.inf

    def test_mean_matches_quadrature(self):
        from qorder.oracle import quadrature

        e = UnitExponential()
        assert quadrature(e.quantile, 0.0, 1.0, rel_tol=1e-10) == pytest.approx(1.0, abs=1e-8)


def test_labels_round_trip_through_spec_parser():
    from qorder.cli import parse_spec

    for m in (TukeyGeneralized(4, 1, 2.5), Govindarajulu(0, 2, 2), UnitExponential()):
        again = parse_spec(m.label())
        assert type(again) is type(m)
        assert again.quantile(0.37) == pytest.approx(m.quantile(0.37), rel=1e-15)


# The one-expression formulas that the in-place chains replaced, kept as the reference:
# each chain must give their bits.
def _tukey_q(X, p):
    return X.lam + X.eta * (p**X.alpha - (1.0 - p) ** X.alpha)


def _tukey_qd(X, p):
    return X.eta * X.alpha * (p ** (X.alpha - 1.0) + (1.0 - p) ** (X.alpha - 1.0))


def _govindarajulu_q(X, p):
    b = X.beta
    return X.theta + X.sigma * ((b + 1.0) * p**b - b * p ** (b + 1.0))


def _govindarajulu_qd(X, p):
    b = X.beta
    return X.sigma * b * (b + 1.0) * p ** (b - 1.0) * (1.0 - p)


_REFERENCE = {TukeyGeneralized: (_tukey_q, _tukey_qd),
              Govindarajulu: (_govindarajulu_q, _govindarajulu_qd)}


def _seeded_models():
    rng = random.Random(19)
    out = []
    for _ in range(6):
        alpha = rng.choice([-1, 1]) * rng.uniform(0.05, 4.0)
        out.append(TukeyGeneralized(rng.uniform(-5, 5), math.copysign(rng.uniform(0.1, 3), alpha),
                                    alpha))
        out.append(Govindarajulu(rng.uniform(0, 3), rng.uniform(0.1, 3), rng.uniform(0.05, 6)))
    # numpy's ** takes a fast path at the exponents 0, 0.5, 1 and 2, which these give as
    # alpha, alpha - 1, beta - 1, beta or beta + 1
    for e in (0.5, 1.0, 1.5, 2.0, 3.0):
        out.append(TukeyGeneralized(1.5, 0.7, e))
        out.append(Govindarajulu(0.3, 1.7, e))
    return out


def _bits(fn, *args):
    """fn(*args) as comparable bits, or the error it raised (a float power can overflow)."""
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) \
        else (type(value), repr(value))


class TestInPlaceFormulas:
    @pytest.mark.parametrize("X", _seeded_models(), ids=lambda X: X.label())
    def test_bits_equal_the_one_expression_formulas(self, X):
        scalars = [float(p) for p in oracle.logit_grid(64)] + [1e-300, 0.5 - 2**-53, 1 - 2**-53]
        for method, formula in zip((X.quantile, X.quantile_density), _REFERENCE[type(X)]):
            for p in scalars:
                for given in (p, np.float64(p), np.array(p)):
                    with np.errstate(over="ignore"):  # inf at 1e-300 for alpha < 0, both ways
                        want = _bits(lambda: float(formula(X, check_p(given))))
                        assert _bits(method, given) == want
            for n in (64, 512, 4096):
                nodes = oracle.panel_nodes(n)
                assert _bits(method, nodes) == _bits(formula, X, nodes)

    @pytest.mark.parametrize("X", _seeded_models()[:2] + [UnitExponential()], ids=lambda X: X.label())
    def test_upper_integrand_bits_equal_the_one_expression_form(self, X):
        fn = upper_integrand(X)
        for p in (0.25, np.float64(0.75), np.array(1e-6), oracle.panel_nodes(512)):
            assert _bits(fn, p) == _bits(lambda: (1.0 - p) * X.quantile_density(p))

    @pytest.mark.parametrize("X", _seeded_models()[:2] + [UnitExponential()], ids=lambda X: X.label())
    def test_input_is_left_unchanged(self, X):
        nodes = oracle.panel_nodes(512)
        assert not nodes.flags.writeable
        for p in (nodes, nodes.copy(), np.array(0.3)):
            before = p.tobytes()
            X.quantile(p), X.quantile_density(p), upper_integrand(X)(p)
            assert p.tobytes() == before


def _peak_arrays(fn, p):
    """Peak of the memory fn(p) allocates, in arrays of p's size, as tracemalloc sees it."""
    fn(p)  # anything allocated once, on first use, is left out
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(p)
        return (tracemalloc.get_traced_memory()[1] - base) / p.nbytes
    finally:
        if not tracing:
            tracemalloc.stop()


class TestNodeSizedArrays:
    """An evaluation on the panel nodes holds at most its result and one scratch array."""

    SLACK = 0.05  # of a node array, 11 KB at n = 4096

    @pytest.mark.parametrize("X", [TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(-1, -1, -0.5),
                                   Govindarajulu(0, 2, 2), Govindarajulu(0.5, 1, 0.5),
                                   UnitExponential()], ids=lambda X: X.label())
    def test_quantile_and_density_peak_at_two_arrays(self, X):
        nodes = oracle.panel_nodes(4096)
        assert _peak_arrays(X.quantile, nodes) <= 2 + self.SLACK
        assert _peak_arrays(X.quantile_density, nodes) <= 2 + self.SLACK
