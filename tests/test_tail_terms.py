"""Leading terms of the quantile densities at the ends, qd ~ c*t^beta as t -> 0
(t = p at end 0, t = 1 - p at end 1), and the ratio limits that deltas.ratio_qd_tail
draws from them; checked against the quantile densities at 50 digits."""

import math
import random

import mpmath as mp
import pytest

from qorder import dsl
from qorder.deltas import ratio_qd_tail
from qorder.models import Govindarajulu, QuantileModel, TukeyGeneralized, UnitExponential

EXP = UnitExponential()


def _seeded_tukeys(lo, hi, count, seed):
    rng = random.Random(seed)
    return [TukeyGeneralized(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(lo, hi))
            for _ in range(count)]


def _mp_qd(model):
    """qd at 50 digits as a function of (p, t), t = 1 - p given exactly."""
    if isinstance(model, UnitExponential):
        return lambda p, t: 1 / t
    eta, a = mp.mpf(model.eta), mp.mpf(model.alpha)
    return lambda p, t: eta * a * (p ** (a - 1) + t ** (a - 1))


def _mp_ratio(X, Y, end, t):
    """qd_Y/qd_X at distance t from the end, at 50 digits."""
    with mp.workdps(50):
        t = mp.mpf(t)
        pt = (t, 1 - t) if end == 0 else (1 - t, t)
        return _mp_qd(Y)(*pt) / _mp_qd(X)(*pt)


def _point_ratio(X, Y, end):
    """The ratio's limit from the point values of the quantile densities alone."""
    qdx, qdy = X.tail_qdensity(end), Y.tail_qdensity(end)
    if qdx is None or qdy is None:
        return None
    if math.isinf(qdx):
        return None if math.isinf(qdy) else 0.0
    if qdx == 0.0:
        return None if qdy == 0.0 else math.inf
    return qdy / qdx


class TestTerms:
    @pytest.mark.parametrize("alpha, term", [
        (0.5, (0.5, -0.5)), (-1.5, (1.5, -2.5)), (1.0, (4.0, 0.0)), (2.5, (2.5, 0.0)),
    ])
    def test_tukey_has_the_same_term_at_both_ends(self, alpha, term):
        X = TukeyGeneralized(1.0, 2.0 if alpha == 1.0 else math.copysign(1.0, alpha), alpha)
        assert X.tail_term(0) == X.tail_term(1) == term

    def test_exp1(self):
        assert (EXP.tail_term(0), EXP.tail_term(1)) == ((1.0, 0.0), (1.0, -1.0))

    def test_families_without_a_term(self):
        # Govindarajulu's terms wait for its recorded star verdicts to be settled, a DSL
        # model's for a derivative of its expression
        assert Govindarajulu(0, 2, 2).tail_term(0) is None
        assert Govindarajulu(0, 2, 2).tail_term(1) is None
        weibull = dsl.as_quantile_model("s*(-log1p(-p))^(1/k)", bindings={"s": 1.0, "k": 2.0})
        assert weibull.tail_term(0) is weibull.tail_term(1) is None

    def test_tukey_and_exp1_state_their_tail_once(self):
        for cls in (TukeyGeneralized, UnitExponential):
            assert cls.tail_qdensity is QuantileModel.tail_qdensity

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.3, 0.999, 1.0, 1.001, 2.5])
    def test_point_values_are_those_of_the_term(self, alpha):
        X = TukeyGeneralized(0.5, math.copysign(1.3, alpha), alpha)
        expected = (X.eta * alpha if alpha > 1.0 else 2.0 * X.eta if alpha == 1.0
                    else math.inf)
        for end in (0, 1):
            assert repr(X.tail_qdensity(end)) == repr(expected)
        assert (EXP.tail_qdensity(0), EXP.tail_qdensity(1)) == (1.0, math.inf)


class TestRatioLimitsAt50Digits:
    @pytest.mark.parametrize("end", [0, 1])
    def test_tukey_pairs_below_alpha_1_move_toward_the_limit(self, end):
        models = _seeded_tukeys(0.02, 0.98, 8, seed=27)
        for X in models:
            for Y in models:
                if X.alpha == Y.alpha:
                    continue
                limit = ratio_qd_tail(X, Y, end)
                assert limit == (0.0 if Y.alpha > X.alpha else math.inf)
                far, near = _mp_ratio(X, Y, end, "1e-200"), _mp_ratio(X, Y, end, "1e-300")
                assert (near < far) if limit == 0.0 else (near > far), (X, Y, end)

    def test_tukey_and_exp1_at_end_1_move_toward_the_limit(self):
        for T in _seeded_tukeys(0.02, 0.98, 4, seed=28) + _seeded_tukeys(1.02, 4.0, 4, seed=29):
            for X, Y in ((T, EXP), (EXP, T)):
                limit = ratio_qd_tail(X, Y, 1)
                assert limit == (math.inf if Y is EXP else 0.0), (X, Y)
                far, near = _mp_ratio(X, Y, 1, "1e-200"), _mp_ratio(X, Y, 1, "1e-300")
                assert (near < far) if limit == 0.0 else (near > far), (X, Y)

    @pytest.mark.parametrize("end", [0, 1])
    def test_equal_alphas_give_the_ratio_of_the_coefficients(self, end):
        rng = random.Random(30)
        for _ in range(6):
            a = rng.uniform(0.02, 0.98)
            X, Y = (TukeyGeneralized(rng.uniform(-3, 3), rng.uniform(0.2, 3), a)
                    for _ in range(2))
            limit = ratio_qd_tail(X, Y, end)
            assert limit == (Y.eta * a) / (X.eta * a)
            near = _mp_ratio(X, Y, end, "1e-300")
            assert abs(near - limit) <= 1e-12 * limit


def _built_in_models():
    out = [EXP, Govindarajulu(0, 2, 0.5), Govindarajulu(0.3, 1, 1.0), Govindarajulu(1, 2, 3)]
    for alpha in (-1.5, -0.4, 0.3, 0.9, 1.0, 1.4, 2.5):
        out.append(TukeyGeneralized(2.0, math.copysign(0.8, alpha), alpha))
        out.append(TukeyGeneralized(-1.0, math.copysign(1.7, alpha), alpha))
    return out


def test_terms_agree_with_the_point_values_wherever_those_decide():
    decided = 0
    for X in _built_in_models():
        for Y in _built_in_models():
            for end in (0, 1):
                point = _point_ratio(X, Y, end)
                if point is not None:
                    decided += 1
                    assert repr(ratio_qd_tail(X, Y, end)) == repr(point), (X, Y, end)
    assert decided == 476  # of the 2 * 18 * 18 pairs and ends


def test_a_model_without_a_term_keeps_the_point_rules():
    G, T = Govindarajulu(0, 2, 0.5), TukeyGeneralized(2, 1, 0.5)  # both qd infinite at 0
    assert math.isnan(ratio_qd_tail(G, T, 0)) and math.isnan(ratio_qd_tail(T, G, 0))
    assert ratio_qd_tail(G, T, 1) == math.inf  # qd_G(1-) = 0
