import gc
import weakref
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from conftest import oracle_can_resolve

from qorder import deltas, oracle, orders
from qorder.cli import parse_spec
from qorder.errors import (
    DomainError,
    QorderError,
    QuadratureError,
    TooOscillatoryError,
    ValidationError,
)
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.orders import (
    BOTH_FAIL,
    EQUIVALENT,
    HOLDS,
    HOLDS_REVERSED,
    INCONCLUSIVE,
    ORDERS,
    PairContext,
    check_convex,
    check_dmrl,
    check_ps,
    check_qmit,
    check_star,
    compare_all,
    segment_ratios,
)
from qorder.shape import (
    CONSTANT,
    DECREASING,
    INCREASING,
    N_MODAL,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    Mode,
    Segment,
    ShapeReport,
    find_shape,
    tukey_unimodal_region,
)

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
        v = check_star(PairContext(X_TUKEY, Y_TUKEY))
        vals = {c.name: c.value for c in v.certificate.conditions}
        assert vals["lim_delta_0"] == pytest.approx(1.3, rel=1e-9)
        assert vals["lim_delta_1"] == pytest.approx(0.5, rel=1e-9)

    def test_qmit_fails_via_endpoint_condition(self):
        v = check_qmit(PairContext(X_TUKEY, Y_TUKEY))
        vals = {c.name: c.value for c in v.certificate.conditions}
        assert vals["lim_centered_delta_1"] == pytest.approx(-0.4, rel=1e-6)

    def test_ps_takes_the_star_verdict(self):
        ctx = PairContext(X_TUKEY, Y_TUKEY)
        v = check_ps(ctx, check_star(ctx))
        assert (v.status, v.method) == (HOLDS, "implication")

    def test_dmrl_reversed_fails_via_swap(self):
        v = check_dmrl(PairContext(X_TUKEY, Y_TUKEY))
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

    @pytest.mark.parametrize("check, fn, reads", [
        (check_star, "delta", ["swapped.delta_at_p1", "swapped.delta_at_p3", "swapped.delta_at_p2"]),
        (check_qmit, "delta_qmit", ["swapped.delta_qmit_at_p2"]),
        (check_dmrl, "delta_dmrl", ["delta_dmrl_at_p2"]),
    ], ids=["star", "qmit", "dmrl"])
    def test_failed_delta_falls_back_to_oracle(self, monkeypatch, check, fn, reads):
        # an n-modal pair whose ratio has modes (min, max, min): each theorem
        # reads its delta function at modes (the worked pair's unimodal ratio
        # never evaluates delta_qmit or delta_dmrl there)
        X, Y = TukeyGeneralized(2, 1, 4), TukeyGeneralized(2, 1, 0.5)
        assert [m.kind for m in PairContext(X, Y).shape().modes] == ["min", "max", "min"]
        v = check(PairContext(X, Y))
        expected = v.status
        names = [c.name for c in v.certificate.conditions]
        assert [name for name in names if name in reads] == reads
        monkeypatch.setattr(deltas, fn, _forced_failure)
        v = check(PairContext(X, Y))
        names = [c.name for c in v.certificate.conditions]
        assert not set(reads) & set(names)
        assert names[-1] == f"oracle_{v.order}"
        assert v.method == "numeric-fallback"
        assert v.status == expected == BOTH_FAIL

    def test_failed_direction_leaves_the_other_to_the_theorem(self, monkeypatch):
        # worked pair: forward star reads the endpoint limits (analytic hints),
        # reversed star evaluates delta at the ratio mode
        monkeypatch.setattr(deltas, "delta", _forced_failure)
        v = check_star(PairContext(X_TUKEY, Y_TUKEY))
        conds = {c.name: c.satisfied for c in v.certificate.conditions}
        assert conds == {"lim_delta_0": True, "lim_delta_1": True, "oracle_star": None}
        assert v.status == HOLDS
        assert v.method == "numeric-fallback"


def _synthetic_shape(cls, first=None, n_modes=0):
    """A ShapeReport of class cls whose first segment goes ``first`` ("up" or
    "down"), with n_modes alternating modes at 0.3, 0.5, 0.7."""
    if cls == CONSTANT:
        return ShapeReport(CONSTANT)
    up = first == "up"
    modes = [Mode(0.3 + 0.2 * i, "max" if (i % 2 == 0) == up else "min") for i in range(n_modes)]
    bounds = [0.0] + [m.location for m in modes] + [1.0]
    runs = ("increasing", "decreasing") if up else ("decreasing", "increasing")
    segments = [Segment(a, b, runs[i % 2]) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return ShapeReport(cls, modes=modes, segments=segments)


_SYNTHETIC_SHAPES = {
    "constant": (CONSTANT,),
    "increasing": (INCREASING, "up"),
    "decreasing": (DECREASING, "down"),
    "unimodal-max": (UNIMODAL_MAX, "up", 1),
    "unimodal-min": (UNIMODAL_MIN, "down", 1),
    "2-modal-up": (N_MODAL, "up", 2),
    "2-modal-down": (N_MODAL, "down", 2),
    "3-modal-up": (N_MODAL, "up", 3),
    "3-modal-down": (N_MODAL, "down", 3),
}

# (forward, reverse) theorem verdict and the conditions read, in order, for
# the worked Tukey pair under each synthetic ratio shape
_THEOREM_PATHS = {
    ("constant", "star"): (True, False, ["delta_constant", "delta_constant"]),
    ("constant", "qmit"): (True, True, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("constant", "dmrl"): (True, True, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("increasing", "star"): (True, False, ["lim_delta_0", "lim_delta_1"]),
    ("increasing", "qmit"): (True, False, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("increasing", "dmrl"): (True, False, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("decreasing", "star"): (True, False, ["lim_delta_1", "lim_delta_0"]),
    ("decreasing", "qmit"): (False, True, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("decreasing", "dmrl"): (False, True, ["ratio_monotone", "swapped.ratio_monotone"]),
    ("unimodal-max", "star"): (True, False, ["lim_delta_0", "lim_delta_1", "delta_at_pstar"]),
    ("unimodal-max", "qmit"): (False, None, ["lim_centered_delta_1"]),
    ("unimodal-max", "dmrl"): (None, False, ["swapped.lim_centered_delta_0"]),
    ("unimodal-min", "star"): (True, False, ["swapped.delta_at_pstar", "swapped.lim_delta_0",
                                             "swapped.lim_delta_1"]),
    ("unimodal-min", "qmit"): (None, True, ["swapped.lim_centered_delta_1"]),
    ("unimodal-min", "dmrl"): (True, None, ["lim_centered_delta_0"]),
    ("2-modal-up", "star"): (True, False, ["lim_delta_0", "delta_at_p2", "lim_delta_1",
                                           "delta_at_p1"]),
    ("2-modal-up", "qmit"): (True, None, ["delta_qmit_at_p2"]),
    ("2-modal-up", "dmrl"): (True, None, ["delta_dmrl_at_p1"]),
    ("2-modal-down", "star"): (True, False, ["swapped.lim_delta_1", "swapped.delta_at_p1",
                                             "swapped.lim_delta_0", "swapped.delta_at_p2"]),
    ("2-modal-down", "qmit"): (None, False, ["swapped.delta_qmit_at_p2"]),
    ("2-modal-down", "dmrl"): (None, False, ["swapped.delta_dmrl_at_p1"]),
    ("3-modal-up", "star"): (True, False, ["lim_delta_0", "delta_at_p2", "lim_delta_1",
                                           "delta_at_p1", "delta_at_p3"]),
    ("3-modal-up", "qmit"): (False, None, ["delta_qmit_at_p2", "lim_centered_delta_1"]),
    ("3-modal-up", "dmrl"): (None, False, ["swapped.lim_centered_delta_0",
                                           "swapped.delta_dmrl_at_p2"]),
    ("3-modal-down", "star"): (True, False, ["swapped.delta_at_p1", "swapped.delta_at_p3",
                                             "swapped.lim_delta_0", "swapped.delta_at_p2",
                                             "swapped.lim_delta_1"]),
    ("3-modal-down", "qmit"): (None, False, ["swapped.delta_qmit_at_p2",
                                             "swapped.lim_centered_delta_1"]),
    ("3-modal-down", "dmrl"): (False, None, ["lim_centered_delta_0", "delta_dmrl_at_p2"]),
}


class TestTheoremPaths:
    """Every path of the star, qmit and dmrl theorem stage: a synthetic ratio
    shape fixes which conditions each direction reads, and the worked pair's
    delta functions give their values."""

    @pytest.mark.parametrize("shape, order", sorted(_THEOREM_PATHS),
                             ids=[f"{s}-{o}" for s, o in sorted(_THEOREM_PATHS)])
    def test_verdicts_and_conditions(self, shape, order):
        ctx = PairContext(X_TUKEY, Y_TUKEY, _shape=_synthetic_shape(*_SYNTHETIC_SHAPES[shape]))
        conds = []
        fwd, rev = orders._directions(ctx, order, conds)
        assert (fwd, rev, [c.name for c in conds]) == _THEOREM_PATHS[shape, order]

    @pytest.mark.parametrize("shape", sorted(_SYNTHETIC_SHAPES))
    def test_theorem_status_equals_the_certificate_path(self, shape):
        sh = _synthetic_shape(*_SYNTHETIC_SHAPES[shape])
        ctx = PairContext(X_TUKEY, Y_TUKEY, _shape=sh)  # one context, as a sweep cell has
        for order in ("star", "qmit", "dmrl"):
            fresh = PairContext(X_TUKEY, Y_TUKEY, _shape=sh)
            certified = orders._combine(*orders._directions(fresh, order, []))
            assert orders.theorem_status(ctx, order) == certified, order

    @pytest.mark.parametrize("order", ["ps", "convex", "nbue", "STAR", "nonsense"])
    def test_theorem_status_refuses_other_orders(self, order):
        with pytest.raises(ValidationError, match="star, qmit or dmrl") as info:
            orders.theorem_status(PairContext(X_TUKEY, Y_TUKEY), order)
        assert repr(order) in str(info.value)


# a coarse Tukey(2, 1, alpha) map, the sweep's models at grid 512
_MAP_ALPHAS = sorted({0.25 * k for k in range(1, 20)} | {1.0, 2.0})
_MAP_GRID = 512


def _map_cells():
    models = {a: TukeyGeneralized(2, 1, a) for a in _MAP_ALPHAS}
    return [(models[a1], models[a2]) for a1 in _MAP_ALPHAS for a2 in _MAP_ALPHAS]


class TestTheoremStatusOnTheTukeyMap:
    """theorem_status records no certificate; on every cell it must give the
    status that the certificate-keeping path gives."""

    def test_equals_the_certificate_path(self):
        cells = _map_cells()
        contexts = [PairContext(X, Y, _MAP_GRID) for X, Y in cells]
        segment_ratios(contexts)  # as the sweep segments its cells
        shapes = Counter()
        for (X, Y), ctx in zip(cells, contexts):
            shapes[ctx.shape().classification] += 1
            for order in ("star", "qmit", "dmrl"):
                fresh = PairContext(X, Y, _MAP_GRID)
                certified = orders._combine(*orders._directions(fresh, order, []))
                assert orders.theorem_status(ctx, order) == certified, (X, Y, order)
        assert set(shapes) == {CONSTANT, UNIMODAL_MAX, UNIMODAL_MIN, N_MODAL}
        # where both alphas are below 1 both quantile densities are infinite at the ends;
        # their leading terms still give the limits in closed form
        lim = deltas.endpoint_limit("delta", TukeyGeneralized(2, 1, 0.25),
                                    TukeyGeneralized(2, 1, 0.5), 0)
        assert lim.method == "analytic-hint"

    def test_swap_gives_the_statuses_of_a_fresh_swapped_pair(self):
        for X, Y in _map_cells():
            swapped = PairContext(X, Y, _MAP_GRID).swap()
            fresh = PairContext(Y, X, _MAP_GRID)
            assert (swapped.X, swapped.Y, swapped.n) == (fresh.X, fresh.Y, fresh.n)
            for order in ("star", "qmit", "dmrl"):
                assert (orders.theorem_status(swapped, order)
                        == orders.theorem_status(fresh, order)), (X, Y, order)


class TestSharedGridProfile:
    def test_both_integrates_each_model_once(self, monkeypatch):
        calls = Counter()
        for name in ("lower_cumulative", "upper_cumulative"):
            real = getattr(oracle, name)

            def spy(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

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
        ctx = PairContext(parse_spec(x), parse_spec(y))
        assert ctx.shape() == find_shape(ctx.ratio, ctx.n)

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
        ctx = PairContext(X, TukeyGeneralized(4, 1, 2.5))
        seen = []
        for shape in (lambda: find_shape(ctx.ratio, ctx.n), ctx.shape, ctx.shape):
            with pytest.raises(TooOscillatoryError) as info:
                shape()
            seen.append((str(info.value), info.value.modes))
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0][1]) > 16


class _BrokenDensity(UnitExponential):
    def quantile_density(self, p):
        if np.ndim(p):
            raise DomainError("no density on the grid")
        return super().quantile_density(p)


def _shape_or_error(ctx):
    try:
        return ctx.shape()
    except QorderError as exc:
        return type(exc), str(exc), getattr(exc, "modes", None)


class TestSegmentRatios:
    YS = ["tukey:1.5,1,1.5", "tukey:2,1,0.5", "tukey:4,1,2.5", "exp1", "govindarajulu:0,2,2",
          "dsl:-s*log(1-p);s=2"]  # the last ratio is too oscillatory

    @pytest.mark.parametrize("n", [3, 512])
    def test_equals_each_context_alone(self, n):
        X = TukeyGeneralized(4, 1, 2.5)
        batch = [PairContext(X, parse_spec(y), n) for y in self.YS]
        batch.append(PairContext(X, _BrokenDensity(), n))
        segment_ratios(batch)
        alone = [PairContext(X, parse_spec(y), n) for y in self.YS]
        alone.append(PairContext(X, _BrokenDensity(), n))
        got, ref = [_shape_or_error(c) for c in batch], [_shape_or_error(c) for c in alone]
        assert got == ref
        assert ref[-1] == (DomainError, "no density on the grid", None)
        assert n == 3 or ref[-2][0] is TooOscillatoryError  # 2 panels cannot oscillate

    def test_reads_the_shared_x_once_and_keeps_settled_shapes(self, monkeypatch):
        calls = Counter()
        real = TukeyGeneralized.quantile_density

        def spy(self, p):
            if np.ndim(p) == 1 and np.size(p) == 512:
                calls[id(self)] += 1
            return real(self, p)

        monkeypatch.setattr(TukeyGeneralized, "quantile_density", spy)
        X = TukeyGeneralized(4, 1, 2.5)
        ctxs = [PairContext(X, TukeyGeneralized(1 + a, 1, a), 512) for a in (0.5, 1.5, 3.0)]
        first = ctxs[0].shape()
        segment_ratios(ctxs)
        assert ctxs[0].shape() is first
        assert calls[id(X)] == 1 and sum(calls.values()) == 4

    def test_one_grid_size(self):
        with pytest.raises(ValidationError, match="one grid size"):
            segment_ratios([PairContext(X_TUKEY, Y_TUKEY, 512), PairContext(X_TUKEY, EXP, 64)])


class TestGridSizeDrivesEveryRoute:
    def test_oracle_reads_the_configured_profiles_only(self):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        ctx = PairContext(X, Y, 512)
        for order in ORDERS:
            assert ctx.oracle(order).n == 512
        for m in (X, Y):
            assert set(m.__dict__["_profiles"]) == {512}


class TestQuantileRatioShapeFromProfiles:
    # reversed ps, case b: the only route that reads the quantile-ratio shape
    X, Y = "tukey:2.20268,1.5292,2.43994", "tukey:1.48892,0.885053,1.29627"

    def test_equals_find_shape_on_the_quantile_ratio(self):
        X, Y = parse_spec(self.X), parse_spec(self.Y)
        ctx = PairContext(X, Y)
        assert ctx.quantile_ratio_shape() == find_shape(lambda p: Y.quantile(p) / X.quantile(p))

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

        ctx = PairContext(Shifted(), UnitExponential())
        with pytest.raises(DomainError, match="strictly positive F"):
            ctx.quantile_ratio_shape()

    def test_non_positive_quantile_refused_in_a_mode_refinement(self):
        X, Y = parse_spec(self.X), parse_spec(self.Y)
        assert PairContext(X, Y).quantile_ratio_shape().modes  # so a scalar call is made

        class ScalarNegative(TukeyGeneralized):  # positive on the grid, not at scalars
            def quantile(self, p):
                q = super().quantile(p)
                return -q if type(q) is float else q

        ctx = PairContext(ScalarNegative(X.lam, X.eta, X.alpha), Y)
        with pytest.raises(DomainError, match="^quantile ratio needs strictly positive F"):
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
            check_star(PairContext(shifted, Y_TUKEY))

    def test_sample_backed_model_refused(self):
        from qorder.empirical import SampleSet

        with pytest.raises(ValidationError, match="no smooth quantile density"):
            check_convex(PairContext(SampleSet((1.0, 2.0, 3.0)), EXP))


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
            X, Y = TukeyGeneralized(lam1, eta1, a1), TukeyGeneralized(lam2, eta2, a2)
            v = check_star(PairContext(X, Y))
            holds = v.status in (HOLDS, EQUIVALENT)
            assert holds == (lhs > rhs), (lam1, eta1, a1, lam2, eta2, a2, v.status)


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


# The paper's case analysis of G^-1/F^-1 when the quantile-density ratio r = qd_Y/qd_X
# rises, then falls (UnimodalMax).  d/dp (G^-1/F^-1) = qd_X * delta / (F^-1)^2, so
# G^-1/F^-1 rises exactly where delta = F^-1 * r - G^-1 > 0, and the signs of delta's
# limits at 0 and 1 (and, in case 4, of delta at r's mode) give its segments.
_INC, _DEC = "increasing", "decreasing"
_CASES = {  # (lim delta_0 >= 0, lim delta_1 >= 0): case and segments
    (True, True): ("1", (_INC,)),
    (True, False): ("2", (_INC, _DEC)),
    (False, True): ("3", (_DEC, _INC)),
}
_CASE_STAR = {"1": HOLDS, "4a": HOLDS_REVERSED}  # cases 2, 3 and 4b: BOTH_FAIL


def _case(ctx):
    """(case, segments of G^-1/F^-1) of a pair whose ratio is UnimodalMax, or
    None when a delta limit is indeterminate."""
    lim0, lim1 = ctx.limit("delta", 0), ctx.limit("delta", 1)
    if not (lim0.is_determinate and lim1.is_determinate):
        return None
    key = (lim0.x >= 0.0, lim1.x >= 0.0)
    if key in _CASES:
        return _CASES[key]
    if ctx.delta(ctx.shape().modes[0].location) <= 0.0:
        return "4a", (_DEC,)
    return "4b", (_DEC, _INC, _DEC)


# Pool pairs whose G^-1/F^-1, read on logit_grid(4096), lacks a run of its
# case: in each, that run lies outside the grid (TestCaseAnalysis checks why).
_LEFT_RUN_BELOW_GRID = {  # case 4b reads (increasing, decreasing)
    ("tukey:2.3787,1.57462,2.92258", "tukey:2.14151,1.79313,1.08369"),
    ("tukey:1.46898,0.930831,3.08175", "tukey:2.10749,1.74521,1.04492"),
    ("tukey:1.33184,0.666952,0.955442", "tukey:2.82179,1.93484,1.40371"),
    ("tukey:0.692176,0.536593,2.54227", "tukey:0.863045,0.749734,1.04525"),
    ("tukey:2.61724,1.93618,3.63065", "tukey:1.45072,1.2865,1.09259"),
    ("tukey:1.76139,1.3646,2.88451", "tukey:0.861163,0.761266,1.04362"),
    ("tukey:2.09898,1.22843,0.770655", "tukey:1.10252,1.07593,1.51947"),
    ("tukey:1.55164,0.59679,2.43659", "tukey:1.97974,1.1307,1.01822"),
    ("tukey:1.08754,0.718723,0.962919", "tukey:1.86128,1.59276,1.57005"),
    ("tukey:1.70356,0.719145,0.889592", "tukey:0.694075,0.58436,1.74293"),
    ("tukey:2.29289,1.71698,0.918156", "tukey:0.713267,0.674127,0.965497"),
}
_BOTH_RUNS_OFF_GRID = {  # case 4b reads (increasing,): its first run ends below p = 1e-554
    ("tukey:2.23296,1.37991,0.996333", "tukey:1.46276,1.44906,1.66065"),
}
_RIGHT_RUN_ABOVE_GRID = {  # case 2 reads (increasing,)
    ("tukey:1.41476,0.701861,2.33726", "tukey:2.43668,1.95832,1.01462"),
}


class TestModesOutsideTheGridWindow:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
    def test_star_does_not_hold_where_the_ratio_has_tail_minima(self):
        # both models run from 1 to 3, so star cannot hold; the grid window [1e-6, 1 - 1e-6]
        # misses the ratio's minima near p = 2.4e-8 and 1 - 2.2e-8 and reads UnimodalMax
        verdicts = compare_all(TukeyGeneralized(2, 1, 1.05), TukeyGeneralized(2, 1, 1.1),
                               method="theorem")
        assert {v.order: v.status for v in verdicts}["star"] != "Holds"


class _PoolCase(NamedTuple):
    case: str  # "1" to "4b", "refused" (r is not UnimodalMax) or "indeterminate"
    segments: tuple = ()  # the case's segments of G^-1/F^-1
    star: tuple = ()  # the star verdict's (status, method)
    read: tuple = ()  # the segments of G^-1/F^-1 on the grid


@pytest.fixture(scope="module")
def pool_cases(workloads):
    """{(x spec, y spec): _PoolCase} of every pair of the benchmark's
    compare-param pool, both ways round."""
    out = {}
    for stratum in workloads.load_pool("compare-param").values():
        for entry in stratum:
            argv = entry["argv"]
            specs = argv[argv.index("--x") + 1], argv[argv.index("--y") + 1]
            models = [parse_spec(spec) for spec in specs]
            for i, j in ((0, 1), (1, 0)):
                ctx = PairContext(models[i], models[j])
                if ctx.shape().classification != UNIMODAL_MAX:
                    out[specs[i], specs[j]] = _PoolCase("refused")
                elif (case := _case(ctx)) is None:
                    out[specs[i], specs[j]] = _PoolCase("indeterminate")
                else:
                    star = check_star(ctx)
                    read = tuple(s.direction for s in ctx.quantile_ratio_shape().segments)
                    out[specs[i], specs[j]] = _PoolCase(*case, (star.status, star.method), read)
    return out


class TestCaseAnalysis:
    """The case analysis as a cross-check of the star row, over the compare-param pool."""

    def test_worked_pair_is_case_1(self):
        ctx = PairContext(X_TUKEY, Y_TUKEY)
        assert _case(ctx) == ("1", (_INC,))
        assert [s.direction for s in ctx.quantile_ratio_shape().segments] == [_INC]

    def test_the_pool_splits_by_case(self, pool_cases):
        counts = Counter(row.case for row in pool_cases.values())
        assert len(pool_cases) == 3204
        assert counts == {"refused": 2289, "1": 42, "2": 221, "4a": 195, "4b": 457}

    def test_each_star_verdict_matches_its_case(self, pool_cases):
        # not independent of the star row: both read ctx.limit("delta", end)
        wrong = {pair: row for pair, row in pool_cases.items() if row.segments
                 and row.star != (_CASE_STAR.get(row.case, BOTH_FAIL), "theorem")}
        assert wrong == {}

    def test_the_grid_reads_each_case_but_on_the_pinned_pairs(self, pool_cases):
        mismatched = {pair: (row.case, row.read) for pair, row in pool_cases.items()
                      if row.segments != row.read}
        assert mismatched == {**{pair: ("4b", (_INC, _DEC)) for pair in _LEFT_RUN_BELOW_GRID},
                              **{pair: ("4b", (_INC,)) for pair in _BOTH_RUNS_OFF_GRID},
                              **{pair: ("2", (_INC,)) for pair in _RIGHT_RUN_ABOVE_GRID}}

    @pytest.mark.parametrize("pairs, left, right", [
        (_LEFT_RUN_BELOW_GRID, True, False),
        (_BOTH_RUNS_OFF_GRID, True, True),
        (_RIGHT_RUN_ABOVE_GRID, False, True),
    ])
    def test_each_missing_run_lies_off_the_grid(self, pairs, left, right):
        # delta < 0 at the end, but > 0 at the grid's point nearest it: delta's sign
        # change, and with it the missing decreasing run, lies between the two
        grid = oracle.logit_grid(4096)
        for x, y in sorted(pairs):
            ctx = PairContext(parse_spec(x), parse_spec(y))
            for end, at, off in ((0, grid[0], left), (1, grid[-1], right)):
                assert (ctx.limit("delta", end).x < 0.0 < ctx.delta(at)) is off, (x, y, end)