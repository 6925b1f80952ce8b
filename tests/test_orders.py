import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from qorder import deltas, oracle, orders
from qorder.cli import parse_spec
from qorder.errors import DomainError, QuadratureError, TooOscillatoryError, ValidationError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.orders import (
    BOTH_FAIL,
    EQUIVALENT,
    HOLDS,
    HOLDS_REVERSED,
    INCONCLUSIVE,
    ORDERS,
    check_convex,
    check_dmrl,
    check_ps,
    check_qmit,
    check_star,
    compare_all,
    predict_quantile_ratio_shape,
)
from qorder.shape import GridConfig, find_shape, tukey_unimodal_region

X_TUKEY = TukeyGeneralized(4, 1, 2.5)
Y_TUKEY = TukeyGeneralized(1.5, 1, 1.5)
EXP = UnitExponential()


def _statuses(verdicts):
    return {v.order: v.status for v in verdicts}


class TestWorkedTukeyPair:
    def test_full_verdict_set(self):
        got = _statuses(compare_all(X_TUKEY, Y_TUKEY))
        assert got == {
            "convex": BOTH_FAIL,
            "qmit": BOTH_FAIL,
            "dmrl": BOTH_FAIL,
            "star": HOLDS,
            "ps": HOLDS,
            "nbue": HOLDS,
        }

    def test_methods_agree(self):
        # raises InternalConsistencyError on any theorem/oracle mismatch
        compare_all(X_TUKEY, Y_TUKEY, method="both")

    def test_star_certificate_limits(self):
        v = check_star(X_TUKEY, Y_TUKEY)
        vals = {c.name: c.value for c in v.certificate.conditions}
        assert vals["lim_delta_0"] == pytest.approx(1.3, rel=1e-9)
        assert vals["lim_delta_1"] == pytest.approx(0.5, rel=1e-9)

    def test_qmit_fails_via_endpoint_condition(self):
        v = check_qmit(X_TUKEY, Y_TUKEY)
        vals = {c.name: c.value for c in v.certificate.conditions}
        assert vals["lim_centered_delta_1"] == pytest.approx(-0.4, rel=1e-6)

    def test_dmrl_reversed_fails_via_swap(self):
        v = check_dmrl(X_TUKEY, Y_TUKEY)
        vals = {c.name: c.value for c in v.certificate.conditions}
        # role-swapped endpoint limit eta1*(1 - alpha1/alpha2) = 1 - 2.5/1.5
        assert vals["swapped.lim_centered_delta_0"] == pytest.approx(-2.0 / 3.0, rel=1e-6)


def _forced_failure(*args):
    raise QuadratureError("forced failure")


class TestVerdictAssembly:
    def test_both_runs_each_oracle_once(self, monkeypatch):
        calls = Counter()
        real = orders.order_oracle

        def spy(X, Y, order, *args, **kw):
            calls[order] += 1
            return real(X, Y, order, *args, **kw)

        monkeypatch.setattr(orders, "order_oracle", spy)
        compare_all(X_TUKEY, Y_TUKEY, method="both")
        assert calls == Counter(ORDERS)

    def test_failed_dmrl_direction_falls_back_to_oracle(self, monkeypatch):
        # an n-modal pair: the forward dmrl theorem reads delta_dmrl at the
        # second mode (the worked pair's unimodal ratio never evaluates it)
        X, Y = TukeyGeneralized(2, 1, 4), TukeyGeneralized(2, 1, 0.5)
        expected = check_dmrl(X, Y).status
        monkeypatch.setattr(deltas, "delta_dmrl", _forced_failure)
        v = check_dmrl(X, Y)
        names = [c.name for c in v.certificate.conditions]
        assert "delta_dmrl_at_p2" not in names
        assert names[-1] == "oracle_dmrl"
        assert v.method == "numeric-fallback"
        assert v.status == expected == BOTH_FAIL

    def test_failed_direction_leaves_the_other_to_the_theorem(self, monkeypatch):
        # worked pair: forward star reads the endpoint limits (analytic hints),
        # reversed star evaluates delta at the ratio mode
        monkeypatch.setattr(deltas, "delta", _forced_failure)
        v = check_star(X_TUKEY, Y_TUKEY)
        conds = {c.name: c.satisfied for c in v.certificate.conditions}
        assert conds == {"lim_delta_0": True, "lim_delta_1": True, "oracle_star": None}
        assert v.status == HOLDS
        assert v.method == "numeric-fallback"


class TestSharedGridProfile:
    def test_both_integrates_each_model_once(self, monkeypatch):
        calls = Counter()
        for name in ("lower_cumulative", "upper_cumulative"):
            real = getattr(oracle, name)

            def spy(fn, grid, real=real, name=name):
                calls[name] += 1
                return real(fn, grid)

            monkeypatch.setattr(oracle, name, spy)
        # fresh instances: the module-level pair may carry profiles from other tests
        compare_all(TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5), method="both")
        assert calls == {"lower_cumulative": 2, "upper_cumulative": 2}

    def test_models_die_without_the_cyclic_collector(self):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        ref = weakref.ref(X)
        gc.disable()
        try:
            compare_all(X, Y, method="both")
            del X
            assert ref() is None
        finally:
            gc.enable()


class TestShapeFromProfiles:
    @pytest.mark.parametrize("x, y", [
        ("tukey:4,1,2.5", "tukey:1.5,1,1.5"),        # the worked pair, unimodal
        ("tukey:2,1,4", "tukey:2,1,0.5"),            # n-modal
        ("govindarajulu:0,2,2", "exp1"),             # the hazard quantile, unimodal min
    ])
    def test_equals_find_shape_on_the_ratio(self, x, y):
        ctx = orders.PairContext(parse_spec(x), parse_spec(y), GridConfig())
        assert ctx.shape() == find_shape(ctx.ratio, ctx.cfg)

    def test_both_evaluates_each_quantile_density_once_on_the_grid(self, monkeypatch):
        calls = Counter()
        real = TukeyGeneralized.quantile_density

        def spy(self, p):
            if np.ndim(p) == 1 and np.size(p) == 4096:
                calls[id(self)] += 1
            return real(self, p)

        monkeypatch.setattr(TukeyGeneralized, "quantile_density", spy)
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        compare_all(X, Y, method="both")
        assert calls == {id(X): 1, id(Y): 1}

    def test_stored_shape_failure_lets_the_models_die(self):
        # the finite-difference qdf makes the ratio too oscillatory (stored), then
        # the dmrl oracle's tail quadrature fails
        X, Y = parse_spec("dsl:-s*log(1-p);s=2"), TukeyGeneralized(4, 1, 2.5)
        ref = weakref.ref(X)
        gc.disable()
        try:
            try:
                compare_all(X, Y, method="theorem")
            except QuadratureError:
                pass
            else:
                pytest.fail("expected a QuadratureError")
            del X
            assert ref() is None
        finally:
            gc.enable()

    def test_stored_failure_reraised_unchanged(self):
        X = parse_spec("dsl:-s*log(1-p);s=2")
        ctx = orders.PairContext(X, TukeyGeneralized(4, 1, 2.5), GridConfig())
        seen = []
        for shape in (lambda: find_shape(ctx.ratio, ctx.cfg), ctx.shape, ctx.shape):
            with pytest.raises(TooOscillatoryError) as info:
                shape()
            seen.append((str(info.value), info.value.modes))
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0][1]) > 16


class TestGridConfigDrivesEveryRoute:
    def test_oracle_reads_the_configured_profiles_only(self):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        ctx = orders.PairContext(X, Y, GridConfig(n=512, p_min=1e-4))
        for order in ORDERS:
            assert ctx.oracle(order).n == 512
        for m in (X, Y):
            assert set(m.__dict__["_profiles"]) == {(512, 1e-4)}


class TestQuantileRatioShapeFromProfiles:
    # reversed ps, case b: the only route that reads the quantile-ratio shape
    X, Y = "tukey:2.20268,1.5292,2.43994", "tukey:1.48892,0.885053,1.29627"

    def test_equals_find_shape_on_the_quantile_ratio(self):
        X, Y = parse_spec(self.X), parse_spec(self.Y)
        ctx = orders.PairContext(X, Y, GridConfig())
        assert ctx.quantile_ratio_shape() == find_shape(lambda p: Y.quantile(p) / X.quantile(p),
                                                        GridConfig())

    def test_both_evaluates_each_quantile_once_on_the_grid(self, monkeypatch):
        calls = Counter()
        real = TukeyGeneralized.quantile

        def spy(self, p):
            if np.ndim(p) == 1 and np.size(p) == 4096:
                calls[id(self)] += 1
            return real(self, p)

        monkeypatch.setattr(TukeyGeneralized, "quantile", spy)
        X, Y = parse_spec(self.X), parse_spec(self.Y)
        verdicts = {v.order: v for v in compare_all(X, Y, method="both")}
        assert "case_b" in [c.name for c in verdicts["ps"].certificate.conditions]
        assert calls == {id(X): 1, id(Y): 1}

    def test_non_positive_quantile_refused(self):
        class Shifted(UnitExponential):  # claims support from 0, yet F^-1 < 0 near 0
            def quantile(self, p):
                return super().quantile(p) - 1e-3

        ctx = orders.PairContext(Shifted(), UnitExponential(), GridConfig())
        with pytest.raises(DomainError, match="strictly positive F"):
            ctx.quantile_ratio_shape()


class TestNbuePositiveLeftSupport:
    X = Govindarajulu(0.152193, 1.70822, 2.94381)
    Y = Govindarajulu(0, 1.3935, 2.75415)

    @pytest.mark.parametrize("method", ["theorem", "both"])
    def test_decided_by_the_grid_oracle(self, method):
        # dmrl reads HoldsReversed, but dmrl => nbue needs lifetimes starting at 0
        v = _by_order(compare_all(self.X, self.Y, method=method))
        assert v["dmrl"].status == HOLDS_REVERSED
        assert v["nbue"].status == HOLDS
        if method == "theorem":
            names = [c.name for c in v["nbue"].certificate.conditions]
            assert names[-2:] == ["left_support_endpoint", "oracle_nbue"]
            assert v["nbue"].method == "numeric-fallback"


def _by_order(verdicts):
    return {v.order: v for v in verdicts}


class TestDegenerateAndErrorPaths:
    def test_same_model_equivalent(self):
        got = _statuses(compare_all(EXP, UnitExponential()))
        assert set(got.values()) == {EQUIVALENT}

    def test_proportional_pair_equivalent(self):
        X = Govindarajulu(0, 2, 2)
        Y = Govindarajulu(0, 5, 2)  # 2.5 * X
        got = _statuses(compare_all(X, Y))
        assert set(got.values()) == {EQUIVALENT}

    def test_negative_support_refused(self):
        shifted = TukeyGeneralized(0.0, 1.0, 2.5)
        with pytest.raises(ValidationError):
            check_star(shifted, Y_TUKEY)

    def test_sample_backed_model_refused(self):
        from qorder.empirical import SampleSet

        with pytest.raises(ValidationError):
            check_convex(SampleSet((1.0, 2.0, 3.0)), EXP)


class TestMonotoneRatioPairs:
    def test_convex_pair_all_hold(self):
        # beta <= 1 gives a monotone hazard, i.e. monotone ratio vs Exp(1)
        got = _statuses(compare_all(Govindarajulu(0, 2, 0.5), EXP))
        assert got["convex"] == HOLDS
        for order in ("qmit", "dmrl", "star", "ps", "nbue"):
            assert got[order] == HOLDS, order

    def test_reversed_direction_mirror(self):
        got = _statuses(compare_all(EXP, Govindarajulu(0, 2, 0.5)))
        assert got["convex"] == HOLDS_REVERSED
        assert got["star"] == HOLDS_REVERSED

    def test_constant_ratio_with_shifted_support_not_equivalent(self):
        # ratio is constant but the supports differ, so delta = F^-1 - G^-1 is
        # the constant 0.5 > 0: star holds forward even though convex is a tie
        X = TukeyGeneralized(2.0, 1.0, 1.5)  # support (1, 3)
        Y = TukeyGeneralized(1.5, 1.0, 1.5)  # support (0.5, 2.5), same shape
        got = _statuses(compare_all(X, Y))
        assert got["convex"] == EQUIVALENT  # ratio identically 1
        assert got["star"] == HOLDS


class TestAntisymmetryAndScale:
    MIRROR = {HOLDS: HOLDS_REVERSED, HOLDS_REVERSED: HOLDS, BOTH_FAIL: BOTH_FAIL,
              EQUIVALENT: EQUIVALENT, INCONCLUSIVE: INCONCLUSIVE}

    PAIRS = [
        (X_TUKEY, Y_TUKEY),
        (Govindarajulu(0, 2, 2), EXP),
        (Govindarajulu(0, 2, 0.5), EXP),
        (TukeyGeneralized(3.5, 1, 2.5), TukeyGeneralized(2.5, 2, 0.5)),
    ]

    def test_antisymmetry(self):
        for X, Y in self.PAIRS:
            fwd = _statuses(compare_all(X, Y))
            rev = _statuses(compare_all(Y, X))
            for order in ORDERS:
                assert rev[order] == self.MIRROR[fwd[order]], (X.label(), Y.label(), order)

    def test_scale_invariance(self):
        def scaled(m, c):
            if isinstance(m, TukeyGeneralized):
                return TukeyGeneralized(c * m.lam, c * m.eta, m.alpha)
            if isinstance(m, Govindarajulu):
                return Govindarajulu(c * m.theta, c * m.sigma, m.beta)
            return TukeyGeneralized(c, c, 1.0) if False else m

        rng = np.random.default_rng(11)
        for X, Y in self.PAIRS[:2]:
            for c in rng.uniform(0.1, 10.0, size=3):
                if isinstance(X, UnitExponential) or isinstance(Y, UnitExponential):
                    continue
                a = _statuses(compare_all(X, Y))
                b = _statuses(compare_all(scaled(X, c), scaled(Y, c)))
                assert a == b, c


class TestImplicationChain:
    EDGES = [("convex", "qmit"), ("convex", "dmrl"), ("qmit", "star"),
             ("star", "ps"), ("dmrl", "nbue"), ("ps", "nbue")]

    def test_chain_on_random_pairs(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            a1, a2 = rng.uniform(0.3, 4.5, size=2)
            if abs(a1 - a2) < 0.05 or min(abs(a1 - 1), abs(a1 - 2), abs(a2 - 1), abs(a2 - 2)) < 0.02:
                continue
            X = TukeyGeneralized(a1 + rng.uniform(1, 2), 1.0, a1)
            Y = TukeyGeneralized(a2 + rng.uniform(1, 2), 1.0, a2)
            got = _statuses(compare_all(X, Y))  # raises on violated implications
            checked += 1
            for up, down in self.EDGES:
                if got[up] == HOLDS:
                    assert got[down] in (HOLDS, EQUIVALENT, INCONCLUSIVE) or \
                        "not applicable" in str(got), (got, up, down)


class TestClosedFormStarCondition:
    def test_alpha1_special_cases(self):
        # for alpha1 in {1,2} and alpha2 in (1,2) the star order reduces to
        # (lam1+eta1)*eta2*alpha2 > (lam2+eta2)*2*eta1
        rng = np.random.default_rng(5)
        for _ in range(40):
            a1 = float(rng.choice([1.0, 2.0]))
            a2 = float(rng.uniform(1.05, 1.95))
            eta1, eta2 = rng.uniform(0.5, 2.0, size=2)
            lam1 = eta1 + rng.uniform(0.0, 3.0)
            lam2 = eta2 + rng.uniform(0.0, 3.0)
            lhs = (lam1 + eta1) * eta2 * a2
            rhs = (lam2 + eta2) * 2 * eta1
            if abs(lhs - rhs) < 1e-6:
                continue
            v = check_star(TukeyGeneralized(lam1, eta1, a1), TukeyGeneralized(lam2, eta2, a2))
            holds = v.status in (HOLDS, EQUIVALENT)
            assert holds == (lhs > rhs), (lam1, eta1, a1, lam2, eta2, a2, v.status)


def oracle_can_resolve(X, Y, p_min=1e-6):
    """The grid oracle sees (p_min, 1-p_min); a pair whose only sign change
    of delta lies beyond the grid edge is undecidable at that resolution, so
    theorem/oracle agreement is only asserted where the two routes measure
    the same thing.  Detected by comparing delta's sign at the grid edge with
    its endpoint limit."""
    from qorder.deltas import delta, delta_limit

    for end, edge in ((0.0, p_min), (1.0, 1.0 - p_min)):
        lim = delta_limit(X, Y, end)
        if lim.kind != "finite":
            continue
        if lim.value * delta(X, Y, edge) < 0.0:
            return False
    return True


class TestTheoremOracleAgreement:
    def test_random_unimodal_region_pairs(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 40:  # the full 200-pair run lives in the acceptance suite
            a1, a2 = rng.uniform(0.1, 4.9, size=2)
            try:
                if not tukey_unimodal_region(a1, a2):
                    continue
            except Exception:
                continue
            eta1, eta2 = rng.uniform(0.5, 2, size=2)
            X = TukeyGeneralized(eta1 + rng.uniform(0, 2), eta1, a1)
            Y = TukeyGeneralized(eta2 + rng.uniform(0, 2), eta2, a2)
            if not oracle_can_resolve(X, Y):
                continue
            compare_all(X, Y, method="both")  # raises on disagreement
            done += 1


class TestPrediction:
    def test_tukey_pair_case_1(self):
        pred = predict_quantile_ratio_shape(X_TUKEY, Y_TUKEY)
        assert pred.case == "1"
        assert pred.directions == ("increasing",)

    def test_non_unimodal_hypothesis_rejected(self):
        from qorder.errors import HypothesisError

        with pytest.raises(HypothesisError):
            predict_quantile_ratio_shape(Govindarajulu(0, 2, 2), EXP)

    def test_case_2_shape(self):
        # swap the worked pair: delta limits change sign, ratio has one min,
        # so predict on a pair whose limits are (+, -): reversed star via 2
        X = TukeyGeneralized(1.2, 1.0, 2.5)
        Y = TukeyGeneralized(3.0, 1.0, 1.5)
        pred = predict_quantile_ratio_shape(X, Y)
        assert pred.case in ("2", "4a", "4b", "3", "1")  # consistency with oracle below
        from qorder.shape import find_shape

        rep = find_shape(lambda p: Y.quantile(p) / X.quantile(p))
        expected = tuple(s.direction for s in rep.segments) or ("increasing",)
        if rep.classification == "Constant":
            return
        assert pred.directions == expected
