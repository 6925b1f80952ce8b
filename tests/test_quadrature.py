"""The adaptive quadrature (a port of QUADPACK's dqagse): its contract, an
independent high-precision cross-check with mpmath, and parity with scipy's
QUADPACK where scipy is installed."""

import inspect
import math
import warnings

import numpy as np
import pytest

from qorder.cli import main, parse_spec
from qorder.errors import DomainError, QuadratureError
from qorder.models import (
    Govindarajulu,
    TukeyGeneralized,
    UnitExponential,
    check_p,
    lower_integrand,
    upper_integrand,
)
from qorder.oracle import quadrature

WEIBULL = "dsl:s*(-log(1-p))^(1/k);s=1.3;k=0.7"
WEIBULL_QDF = "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1.3;k=2.2"
LOG_LOGISTIC = "dsl:s*(p/(1-p))^(1/b);s=1;b=3"
# b > 1, so its mean and upper tail are finite, yet the tail quadrature fails
LOG_LOGISTIC_QDF = "dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s=0.586315;b=2.59233"
TAIL = 1.0 - 1e-6


class _Counted:
    """An integrand that records the size of every array it is called on."""

    def __init__(self, fn):
        self.fn, self.sizes, self.points = fn, [], []

    def __call__(self, q):
        self.sizes.append(q.size)
        self.points.append(q.copy())
        return self.fn(q)


class TestContract:
    def test_signature_unchanged(self):
        params = inspect.signature(quadrature).parameters
        assert list(params) == ["fn", "a", "b", "rel_tol"]
        assert params["rel_tol"].default == 1e-8

    def test_one_call_per_step_on_both_halves(self):
        fn = _Counted(upper_integrand(TukeyGeneralized(0, 1, 0.5)))
        quadrature(fn, 0.3, 1.0)
        # the first rule on (a, b), then one call on the 2 x 21 nodes of each bisection
        assert fn.sizes[0] == 21 and len(fn.sizes) > 2
        assert set(fn.sizes[1:]) == {42}

    def test_nodes_stay_inside_the_interval(self):
        # on (1 - 1e-15, 1) the outermost Kronrod node rounds onto 1, which
        # check_p rejects; it moves one ulp inside instead
        a, b = 1.0 - 1e-15, 1.0
        assert 0.5 * (a + b) + 0.5 * (b - a) * 0.995657163025808 == b
        fn = _Counted(lambda q: np.ones_like(check_p(q)))
        assert quadrature(fn, a, b) == pytest.approx(b - a, rel=1e-12)
        nodes = np.concatenate(fn.points)
        assert nodes.min() > a and nodes.max() < b

    def test_scalar_result_is_a_constant_integrand(self):
        assert quadrature(lambda q: 2.0, 0.0, 3.0) == pytest.approx(6.0, rel=1e-14)

    def test_integrand_failure_is_a_quadrature_error(self):
        def fn(q):
            raise DomainError("log of a negative number")

        with pytest.raises(QuadratureError) as info:
            quadrature(fn, 0.0, 1.0)
        assert str(info.value).startswith("quadrature on (0.0, 1.0) did not converge")
        assert isinstance(info.value.__cause__, DomainError)

    def test_needs_a_below_b(self):
        with pytest.raises(DomainError):
            quadrature(np.sqrt, 1.0, 1.0)

    @pytest.mark.parametrize("fn, a, b, reason", [
        (lambda q: q / (1.0 - q), 0.0, 1.0, "behaves extremely badly"),
        (upper_integrand(parse_spec(LOG_LOGISTIC_QDF)), TAIL, 1.0, "roundoff error"),
        (upper_integrand(parse_spec("dsl:-s*log(1-p);s=2")), TAIL, 1.0, "subdivision limit (300)"),
    ])
    def test_failure_message_is_one_line(self, fn, a, b, reason):
        with pytest.raises(QuadratureError) as info:
            quadrature(fn, a, b, rel_tol=1e-10)
        message = str(info.value)
        assert message.startswith(f"quadrature on ({a}, {b}) did not converge (possibly divergent): ")
        assert reason in message
        assert "\n" not in message


class TestMpmathCrossCheck:
    """Each value within the requested relative tolerance of a 30-digit reference,
    or within the absolute tolerance 1e-13 where that is the larger (the integrals
    up to p = 1e-6 are 1e-12 to 1e-8)."""

    @staticmethod
    def _ref(f, a, b):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            return float(mp.quad(f, [a, b]))

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 2.5, 4.9])
    @pytest.mark.parametrize("p", [1e-6, 0.37, 0.9])
    def test_tukey_lower_and_upper(self, alpha, p):
        X = TukeyGeneralized(0.0, 1.0, alpha)

        def qd(q):
            return alpha * (q ** (alpha - 1) + (1 - q) ** (alpha - 1))

        lower = self._ref(lambda q: q * qd(q), 0, p)
        upper = self._ref(lambda q: (1 - q) * qd(q), p, 1)
        assert quadrature(lower_integrand(X), 0.0, p) == pytest.approx(lower, rel=1e-8, abs=1e-13)
        assert quadrature(upper_integrand(X), p, 1.0) == pytest.approx(upper, rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("beta", [0.2, 0.7])
    @pytest.mark.parametrize("p", [1e-6, 0.37, 0.9])
    def test_govindarajulu_below_one(self, beta, p):
        X = Govindarajulu(0.0, 1.5, beta)

        def qd(q):
            return 1.5 * beta * (beta + 1) * q ** (beta - 1) * (1 - q)

        lower = self._ref(lambda q: q * qd(q), 0, p)
        upper = self._ref(lambda q: (1 - q) * qd(q), p, 1)
        assert quadrature(lower_integrand(X), 0.0, p) == pytest.approx(lower, rel=1e-8, abs=1e-13)
        assert quadrature(upper_integrand(X), p, 1.0) == pytest.approx(upper, rel=1e-8, abs=1e-13)

    def test_means(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            weibull = float(1.3 * mp.gamma(1 + 1 / mp.mpf(0.7)))
            log_logistic = float((mp.pi / 3) / mp.sin(mp.pi / 3))
        assert quadrature(UnitExponential().quantile, 0.0, 1.0, rel_tol=1e-10) == pytest.approx(
            1.0, rel=1e-10, abs=0)
        assert parse_spec(WEIBULL).mean == pytest.approx(weibull, rel=1e-10, abs=0)
        assert parse_spec(LOG_LOGISTIC).mean == pytest.approx(log_logistic, rel=1e-10, abs=0)

    @pytest.mark.parametrize("fn, exact", [
        (lambda q: q**-0.5, 2.0),
        (lambda q: q**-0.9, 10.0),
        (np.log, -1.0),
    ])
    def test_endpoint_singularities(self, fn, exact):
        # exact values: tanh-sinh itself misses the integral of q^-0.9 by 4e-4
        assert quadrature(fn, 0.0, 1.0) == pytest.approx(exact, rel=1e-8, abs=0)


def _parity_cases():
    cases = []
    for alpha in (0.05, 0.5, 2.5):
        X = TukeyGeneralized(0.0, 1.0, alpha)
        for p in (1e-6, 0.37, 0.9):
            cases.append(pytest.param(lower_integrand(X), 0.0, p, 1e-8, id=f"tukey{alpha}-lower-{p}"))
            cases.append(pytest.param(upper_integrand(X), p, 1.0, 1e-8, id=f"tukey{alpha}-upper-{p}"))
        cases.append(pytest.param(lower_integrand(X), 0.0, 1e-6, 1e-10, id=f"tukey{alpha}-head"))
        cases.append(pytest.param(upper_integrand(X), TAIL, 1.0, 1e-10, id=f"tukey{alpha}-tail"))
    for name, spec in (("weibull", WEIBULL), ("weibull-qdf", WEIBULL_QDF),
                       ("log-logistic", LOG_LOGISTIC), ("log-logistic-qdf", LOG_LOGISTIC_QDF)):
        X = parse_spec(spec)
        cases.append(pytest.param(X.quantile, 0.0, 1.0, 1e-10, id=f"{name}-mean"))
        cases.append(pytest.param(upper_integrand(X), TAIL, 1.0, 1e-10, id=f"{name}-tail"))
    cases.append(pytest.param(lambda q: q / (1.0 - q), 0.0, 1.0, 1e-8, id="divergent"))
    return cases


class TestScipyParity:
    """The same node count, values within 1e-11, and the same successes and failures
    as scipy's QUADPACK called on one point at a time."""

    @staticmethod
    def _scipy(fn, a, b, rel_tol):
        integrate = pytest.importorskip("scipy.integrate")
        mid = 0.5 * (a + b)

        def scalar(q):
            # one point at a time; a point on a singular endpoint moves one ulp inside
            for x in (q, np.nextafter(q, mid)):
                try:
                    return float(fn(np.array([x]))[0])
                except (ZeroDivisionError, ValueError, FloatingPointError, DomainError):
                    pass
            return math.nan

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = integrate.quad(scalar, a, b, epsabs=1e-13, epsrel=rel_tol, limit=300,
                                 full_output=1)
        # a fourth item, the message, comes with a nonzero ier
        return out[0], out[2]["neval"], len(out) > 3

    @pytest.mark.parametrize("fn, a, b, rel_tol", _parity_cases())
    def test_matches_scipy(self, fn, a, b, rel_tol):
        value, neval, failed = self._scipy(fn, a, b, rel_tol)
        counted = _Counted(fn)
        if failed:
            with pytest.raises(QuadratureError):
                quadrature(counted, a, b, rel_tol)
        else:
            assert quadrature(counted, a, b, rel_tol) == pytest.approx(value, rel=1e-11, abs=0)
        assert sum(counted.sizes) == neval

    def test_known_failures_fail_on_both(self):
        assert self._scipy(lambda q: q / (1.0 - q), 0.0, 1.0, 1e-8)[2]
        X = parse_spec(LOG_LOGISTIC_QDF)
        assert self._scipy(upper_integrand(X), TAIL, 1.0, 1e-10)[2]
        with pytest.raises(QuadratureError, match="roundoff"):
            quadrature(upper_integrand(X), TAIL, 1.0, 1e-10)


def test_cli_failure_is_one_error_line(capsys):
    # the finite-difference exponential's tail quadrature reaches the subdivision limit
    rc = main(["compare", "--x", "dsl:-s*log(1-p);s=2", "--y", "tukey:4,1,2.5"])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qorder: error: quadrature on (0.999999, 1.0) "
                                                   "did not converge")
    for scipy_wording in ("If increasing the limit", "special-purpose integrator",
                          "IntegrationWarning", "scipy"):
        assert scipy_wording not in err
