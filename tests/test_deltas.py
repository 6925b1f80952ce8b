import math

import numpy as np
import pytest

from qorder import deltas, limits
from qorder.deltas import ratio_qd
from qorder.errors import DomainError, NonFiniteMeanError
from qorder.limits import LimitValue, limit_at
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import quadrature
from qorder.orders import ORDERS, compare_all

X_TUKEY = TukeyGeneralized(4, 1, 2.5)
Y_TUKEY = TukeyGeneralized(1.5, 1, 1.5)
EXP = UnitExponential()


class TestDelta:
    def test_identity_pair_zero(self):
        for p in (0.2, 0.5, 0.8):
            assert deltas.delta(X_TUKEY, X_TUKEY, p) == 0.0

    def test_limit_0_closed_form(self):
        lim = deltas.endpoint_limit("delta", X_TUKEY, Y_TUKEY, 0)
        assert lim.method == "analytic-hint"
        # (eta2*alpha2/(eta1*alpha1)) * (lam1-eta1) - (lam2-eta2) = 0.6*3 - 0.5
        assert lim.x == pytest.approx(1.3, rel=1e-12)

    def test_limit_1_closed_form(self):
        lim = deltas.endpoint_limit("delta", X_TUKEY, Y_TUKEY, 1)
        assert lim.x == pytest.approx(0.5, rel=1e-12)

    def test_limits_by_extrapolation(self):
        lim0 = limit_at(lambda p: deltas.delta(X_TUKEY, Y_TUKEY, p), 0)
        lim1 = limit_at(lambda p: deltas.delta(X_TUKEY, Y_TUKEY, p), 1)
        assert lim0.method == "extrapolation"
        assert lim0.x == pytest.approx(1.3, rel=1e-3)
        assert lim1.x == pytest.approx(0.5, rel=1e-3)

    def test_integral_representation(self):
        # delta(p) = int_0^p [ratio(p)*qd_X(q) - qd_Y(q)] dq + l_X*ratio(p) - l_Y
        X, Y = X_TUKEY, Y_TUKEY
        lx, ly = X.support_lo, Y.support_lo
        for p in np.linspace(0.02, 0.98, 64):
            p = float(p)
            r = ratio_qd(X, Y, p)
            integral = quadrature(
                lambda q: r * X.quantile_density(q) - Y.quantile_density(q), 0.0, p
            )
            direct = deltas.delta(X, Y, p)
            assert direct == pytest.approx(integral + lx * r - ly, rel=1e-7, abs=1e-9)

    def test_sign_linked_to_quantile_ratio_slope(self):
        X, Y = X_TUKEY, Y_TUKEY
        h = 1e-7
        for p in np.linspace(0.05, 0.95, 31):
            p = float(p)
            d = deltas.delta(X, Y, p)
            if abs(d) <= 1e-9:
                continue
            qr = lambda t: Y.quantile(t) / X.quantile(t)
            slope = (qr(p + h) - qr(p - h)) / (2 * h)
            assert math.copysign(1, d) == math.copysign(1, slope)


class TestDeltaPs:
    def test_identity_zero(self):
        assert deltas.delta_ps(X_TUKEY, X_TUKEY, 0.3) == 0.0

    def test_scale_cancels(self):
        X = TukeyGeneralized(4, 1, 2.5)
        cX = TukeyGeneralized(8, 2, 2.5)  # 2*X
        for p in (0.1, 0.6, 0.9):
            assert deltas.delta_ps(X, cX, p) == pytest.approx(0.0, abs=1e-14)

    def test_tukey_median_value(self):
        # medians and means both equal lambda for the symmetric Tukey family
        assert deltas.delta_ps(X_TUKEY, Y_TUKEY, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_refuses_nonfinite_mean(self):
        bad = TukeyGeneralized(0.0, -1.0, -1.5)
        with pytest.raises(NonFiniteMeanError):
            deltas.delta_ps(bad, Y_TUKEY, 0.5)


class TestWeightedDeltas:
    def test_qmit_identity_zero(self):
        for p in (0.2, 0.7):
            assert deltas.delta_qmit(X_TUKEY, X_TUKEY, p) == pytest.approx(0.0, abs=1e-10)

    def test_qmit_scaled_exponential_zero(self):
        two_exp = TukeyGeneralized  # placeholder to keep names close
        from qorder.dsl import as_quantile_model

        scaled = as_quantile_model("-2*log(1-p)", qdf="2/(1-p)")
        for p in (0.3, 0.8):
            assert deltas.delta_qmit(EXP, scaled, p) == pytest.approx(0.0, abs=1e-10)
            assert deltas.delta_dmrl(EXP, scaled, p) == pytest.approx(0.0, abs=1e-10)

    def test_dmrl_identity_zero(self):
        assert deltas.delta_dmrl(X_TUKEY, X_TUKEY, 0.4) == pytest.approx(0.0, abs=1e-10)

    def test_qmit_nonnegative_before_first_mode(self):
        # ratio increasing on (0, p1) makes the qmit integrand non-negative there
        from qorder.shape import find_shape

        rep = find_shape(lambda p: ratio_qd(X_TUKEY, Y_TUKEY, p))
        p1 = rep.modes[0].location
        for p in np.linspace(0.01, p1 * 0.98, 16):
            assert deltas.delta_qmit(X_TUKEY, Y_TUKEY, float(p)) >= -1e-10

    def test_centered_delta_limits(self):
        lim1 = deltas.endpoint_limit("centered_delta", X_TUKEY, Y_TUKEY, 1)
        lim0 = deltas.endpoint_limit("centered_delta", X_TUKEY, Y_TUKEY, 0)
        # eta2*(alpha2/2 - 1) and eta2*(1 - alpha2/2) for alpha1 = 2.5 > 2
        assert lim1.x == pytest.approx(-0.4, rel=1e-6)
        assert lim0.x == pytest.approx(0.4, rel=1e-6)


def _mrl(X, p):
    """Mean residual life at the p-th quantile, m(F^-1(p)), from the model's upper integral."""
    return X.upper_weighted_integral(p) / (1 - p)


def _mit(X, p):
    """Mean inactivity time at the p-th quantile, from the model's lower integral."""
    return X.lower_weighted_integral(p) / p


class TestEpsAndResidualFunctions:
    def test_eps_exponential_closed_form(self):
        p = 1 - math.exp(-1.0)
        assert deltas.eps(EXP, p) == pytest.approx(math.exp(-1.0), rel=1e-8)
        assert deltas.eps(EXP, 0.5) == pytest.approx(0.5 / math.log(2), rel=1e-8)

    def test_eps_scale_invariant(self):
        X = Govindarajulu(0, 2, 2)
        cX = Govindarajulu(0, 6, 2)
        for p in (0.2, 0.5, 0.9):
            assert deltas.eps(X, p) == pytest.approx(deltas.eps(cX, p), rel=1e-9)

    def test_eps_identity(self):
        # eps * quantile = (1-p) * mrl
        for X in (X_TUKEY, Govindarajulu(0, 2, 2), EXP):
            for p in np.linspace(0.05, 0.95, 19):
                p = float(p)
                lhs = deltas.eps(X, p) * X.quantile(p)
                rhs = (1 - p) * _mrl(X, p)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_mrl_exponential_memoryless(self):
        for p in (0.1, 0.5, 0.99):
            assert _mrl(EXP, p) == pytest.approx(1.0, rel=1e-9)

    def test_mrl_scales(self):
        X = Govindarajulu(0, 2, 2)
        cX = Govindarajulu(0, 10, 2)
        assert _mrl(cX, 0.4) == pytest.approx(5 * _mrl(X, 0.4), rel=1e-9)

    def test_mrl_at_zero_is_mean(self):
        g = Govindarajulu(0, 2, 2)
        assert _mrl(g, 1e-8) == pytest.approx(g.mean, rel=1e-6)

    def test_mit_exponential_closed_form(self):
        assert _mit(EXP, 0.5) == pytest.approx((math.log(2) - 0.5) / 0.5, rel=1e-8)

    def test_mit_bounded_by_elapsed_interval(self):
        for X in (X_TUKEY, Govindarajulu(0, 2, 2)):
            for p in (0.1, 0.5, 0.9):
                assert _mit(X, p) <= X.quantile(p) - X.support_lo + 1e-12

    def test_eps_requires_positive_quantile(self):
        shifted = TukeyGeneralized(0.0, 1.0, 2.5)  # support (-1, 1)
        with pytest.raises(DomainError):
            deltas.eps(shifted, 0.1)


class TestMonotonicityCoupling:
    def test_delta_monotone_on_ratio_segments(self):
        # on the increasing segment of the ratio, delta is non-decreasing
        from qorder.shape import find_shape

        X, Y = X_TUKEY, Y_TUKEY
        rep = find_shape(lambda p: ratio_qd(X, Y, p))
        p_star = rep.modes[0].location
        up = np.linspace(0.02, p_star * 0.98, 32)
        down = np.linspace(p_star * 1.02, 0.98, 32)
        dvals_up = [deltas.delta(X, Y, float(p)) for p in up]
        dvals_down = [deltas.delta(X, Y, float(p)) for p in down]
        assert all(b >= a - 1e-10 for a, b in zip(dvals_up, dvals_up[1:]))
        assert all(b <= a + 1e-10 for a, b in zip(dvals_down, dvals_down[1:]))


class TestLimitEvaluator:
    def test_constant_function(self):
        lim = limit_at(lambda p: 2.5, 0)
        assert lim.kind == "finite"
        assert lim.value == pytest.approx(2.5)

    def test_tukey_alpha_below_one_left_limit(self):
        # with alpha1 < 1 the ratio vanishes at 0+, so delta -> -(lam2 - eta2)
        X = TukeyGeneralized(1.0, 1.0, 0.5)
        Y = Y_TUKEY
        lim = deltas.endpoint_limit("delta", X, Y, 0)
        assert lim.x == pytest.approx(-(1.5 - 1.0), rel=1e-9)

    def test_govindarajulu_hazard_diverges_at_zero(self):
        lim = deltas.endpoint_limit("ratio", Govindarajulu(0, 2, 2), EXP, 0)
        assert lim.kind == "+inf"

    def test_divergence_classified_without_hint(self):
        lim = limit_at(lambda p: 1.0 / p**2, 0)
        assert lim.kind == "+inf"
        lim = limit_at(lambda p: -1.0 / p**2, 0)
        assert lim.kind == "-inf"

    def test_slow_divergence_is_indeterminate(self):
        # log-speed growth cannot be told apart from a large finite limit
        lim = limit_at(lambda p: -math.log(p), 0)
        assert lim.kind == "indeterminate"

    def test_oscillation_is_indeterminate(self):
        lim = limit_at(lambda p: math.sin(1.0 / p), 0)
        assert lim.kind == "indeterminate"

    def test_extrapolation_beats_naive_sampling(self):
        # f(p) = 1 + p^0.25 converges slowly; extrapolation still nails it
        lim = limit_at(lambda p: 1.0 + p**0.25, 0)
        assert lim.kind == "finite"
        assert lim.value == pytest.approx(1.0, abs=1e-6)


class TestEndpointLimit:
    @pytest.mark.parametrize("X, Y, end, form", [
        (Govindarajulu(0, 1, 0.5), Govindarajulu(0, 1, 0.7), 0, "inf/inf"),
        (Govindarajulu(0, 1, 2), Govindarajulu(0, 1, 3), 1, "0/0"),
        (EXP, EXP, 1, "inf - inf"),
        (EXP, TukeyGeneralized(2, 1, 2.5), 1, "0 * inf"),
    ])
    def test_an_indeterminate_form_gives_no_hint(self, X, Y, end, form):
        assert math.isnan(deltas._LIMITS["delta"][1](X, Y, end)), form
        assert deltas.endpoint_limit("delta", X, Y, end).method == "extrapolation", form

    def test_zero_times_inf_extrapolates_to_its_limit(self):
        # the ratio of the quantile densities vanishes at 1-, so delta -> -(lam + eta)
        lim = deltas.endpoint_limit("delta", EXP, TukeyGeneralized(2, 1, 2.5), 1)
        assert lim.x == pytest.approx(-3.0, rel=1e-9)

    def test_closed_form_tails_need_no_extrapolation(self, monkeypatch):
        # every limit of the worked Tukey pair has a closed-form tail, so
        # compare_all completes with the extrapolation switched off
        calls = []

        def refuse(fn, end):
            calls.append(end)
            raise AssertionError("limit_at called")

        monkeypatch.setattr(limits, "limit_at", refuse)
        monkeypatch.setattr(deltas, "limit_at", refuse)
        verdicts = compare_all(X_TUKEY, Y_TUKEY, method="both")
        assert [v.order for v in verdicts] == list(ORDERS)
        assert calls == []


class TestLimitValue:
    @pytest.mark.parametrize("x, kind, value", [
        (2.5, "finite", 2.5),
        (math.inf, "+inf", None),
        (-math.inf, "-inf", None),
        (math.nan, "indeterminate", None),
    ])
    def test_to_dict_keeps_the_evidence_format(self, x, kind, value):
        assert LimitValue(x).to_dict() == {"kind": kind, "value": value,
                                           "method": "extrapolation"}


class TestQuadratureContracts:
    def test_divergent_integral_raises(self):
        from qorder.errors import QuadratureError

        with pytest.raises(QuadratureError):
            quadrature(lambda q: q / (1.0 - q), 0.0, 1.0)

    def test_partial_integral_closed_form(self):
        val = quadrature(lambda q: q / (1.0 - q), 0.0, 0.5)
        assert val == pytest.approx(math.log(2) - 0.5, rel=1e-8)

    def test_exponential_mean(self):
        assert quadrature(EXP.quantile, 0.0, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_endpoint_singularity_integrable(self):
        # int_0^1 1/sqrt(q) dq = 2 despite the singularity at 0
        assert quadrature(lambda q: q**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_sqrt_weight(self):
        assert quadrature(lambda q: np.sqrt(q), 0.0, 1.0) == pytest.approx(2 / 3, rel=1e-10)


def _limit_at_all_points(fn, endpoint):
    """Reference: limit_at as it sampled every k = 8..40 before classifying."""
    samples = []
    for k in range(8, 41):
        eps = 2.0**-k
        try:
            v = float(fn(eps if endpoint == 0 else 1.0 - eps))
        except (ArithmeticError, ValueError):
            continue
        if not math.isnan(v):
            samples.append((eps, v))
    diag = samples[-10:]
    if len(samples) < 6:
        return LimitValue(math.nan, diagnostics=diag)
    vals = [v for _, v in samples]
    tail = vals[-5:]
    if all(abs(v) > 1e12 for v in tail):
        mags = [abs(v) for v in tail]
        if len({math.copysign(1.0, v) for v in tail}) == 1 and all(
                m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
            return LimitValue(math.inf if tail[-1] > 0 else -math.inf, diagnostics=diag)
    close = lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    fin = [v for v in vals if math.isfinite(v)]
    if len(fin) >= 4 and all(close(a, b) for a, b in zip(fin[-4:], fin[-3:])):
        return LimitValue(fin[-1], diagnostics=diag)
    ext = []
    for i in range(len(fin) - 2):
        d1, d2 = fin[i + 1] - fin[i], fin[i + 2] - fin[i + 1]
        if d1 != 0.0 and abs(d2 / d1) < 0.97:
            lam = d2 / d1
            ext.append(fin[i + 2] + d2 * lam / (1.0 - lam))
    if len(ext) >= 3 and all(close(a, b) for a, b in zip(ext[-3:], ext[-2:])):
        return LimitValue(ext[-1], diagnostics=diag)
    return LimitValue(math.nan, diagnostics=diag)


def _raising_at(fn, ks, exc):
    """fn, raising exc at the points 2^-k (or 1 - 2^-k) for k in ks."""
    points = {2.0**-k for k in ks} | {1.0 - 2.0**-k for k in ks}

    def wrapped(p):
        if p in points:
            raise exc
        return fn(p)
    return wrapped


def _three_finite_then_geometric(p):
    """Alternating infinities nearest the end, three equal finite samples, then
    a geometric approach to the same value: the Cauchy test needs a fourth
    finite sample, and the extrapolants decide."""
    eps = min(p, 1.0 - p)
    k = round(-math.log2(eps))
    if k >= 34:
        return math.inf if k % 2 else -math.inf
    return 1.0 if k >= 31 else 1.0 + 1e3 * eps


_LIMIT_CASES = {
    "constant": lambda p: 2.5,
    "geometric": lambda p: 3.0 - p,
    "slow power": lambda p: 1.0 + p**0.25,
    "very slow power": lambda p: 1.0 + p**0.05,
    "log growth": lambda p: -math.log(p),
    "divergent": lambda p: 1.0 / p**2,
    "divergent negative": lambda p: -1.0 / p**2,
    "oscillating": lambda p: math.sin(1.0 / p),
    "noisy": lambda p: 1.0 + 1e-3 * math.sin(1e6 * p) * p**0.1,
    "infinite near the end": lambda p: math.inf if p < 2.0**-30 or p > 1 - 2.0**-30 else 1.0 + p,
    "infinite throughout": lambda p: math.inf,
    "alternating infinities near the end": lambda p: (
        math.copysign(math.inf, math.sin(1.0 / p)) if min(p, 1.0 - p) < 2.0**-29 else 1.0 - p),
    "three finite then geometric": _three_finite_then_geometric,
    "nan near the end": lambda p: math.nan if p < 2.0**-20 or p > 1 - 2.0**-20 else 4.0 + p,
    "nan throughout": lambda p: math.nan,
    "zero division near the end": _raising_at(lambda p: 1.0 + p, range(25, 41), ZeroDivisionError),
    "value errors apart": _raising_at(lambda p: 2.0 - p**0.5, range(9, 41, 3), ValueError),
    "five successes": _raising_at(lambda p: 1.0, range(13, 41), OverflowError),
    "six successes": _raising_at(lambda p: 1.0, range(14, 41), OverflowError),
    "tukey delta, alpha below one": lambda p: deltas.delta(
        TukeyGeneralized(1.0, 1.0, 0.5), Y_TUKEY, p),
    "tukey centered delta": lambda p: deltas.centered_delta(
        TukeyGeneralized(2.0, 1.0, 0.3), TukeyGeneralized(1.7, 1.0, 0.7), p),
    "govindarajulu hazard ratio": lambda p: ratio_qd(Govindarajulu(0, 0.53, 1.17), EXP, p),
}


class TestLimitSampledFromTheEndpoint:
    """limit_at samples from the endpoint inward and stops once the result is
    fixed; the result, diagnostics included, is that of sampling every point."""

    @pytest.mark.parametrize("name", list(_LIMIT_CASES))
    @pytest.mark.parametrize("endpoint", [0, 1])
    def test_equals_sampling_every_point(self, name, endpoint):
        fn = _LIMIT_CASES[name]
        assert limit_at(fn, endpoint) == _limit_at_all_points(fn, endpoint)

    def test_a_settled_limit_stops_early(self):
        calls = []
        lim = limit_at(lambda p: calls.append(p) or 2.0 + p, 0)
        assert lim.kind == "finite" and lim.value == pytest.approx(2.0)
        assert len(calls) == 10  # the diagnostics' ten samples settle it
        assert calls[0] == 2.0**-40 and calls == sorted(calls)

    @pytest.mark.parametrize("name, endpoint, evaluations", [
        ("alternating infinities near the end", 0, 16),  # 4 finite samples for the Cauchy test
        ("value errors apart", 1, 15),                   # 3 extrapolants
        ("log growth", 0, 33),                           # never settled before the last point
    ])
    def test_sampling_stops_once_the_result_is_fixed(self, name, endpoint, evaluations):
        calls = []
        limit_at(lambda p: calls.append(p) or _LIMIT_CASES[name](p), endpoint)
        assert len(calls) == evaluations

    def test_every_point_is_tried_below_six_samples(self):
        calls = []
        fn = _raising_at(lambda p: 1.0, range(13, 41), OverflowError)
        lim = limit_at(lambda p: calls.append(p) or fn(p), 0)
        assert lim.kind == "indeterminate" and len(lim.diagnostics) == 5
        assert len(calls) == 33

    def test_an_error_at_an_unneeded_point_is_not_raised(self):
        def fn(p):
            if p > 2.0**-20:
                raise DomainError("far from the endpoint")
            return 1.0 + p
        assert limit_at(fn, 0).value == pytest.approx(1.0)
