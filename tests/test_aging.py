import gc
import weakref

import numpy as np
import pytest

from qorder import aging
from qorder.aging import (
    aging_report,
    classify_hazard,
    classify_ifra,
    classify_ihrwa,
    classify_mrl,
    hazard_quantile,
    wa_surrogate,
)
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.orders import PairContext
from qorder.shape import GridConfig, find_shape, ratio_qd

GOV = Govindarajulu(0, 2, 2)
EXP = UnitExponential()


def _ctx(X):
    return PairContext(X, EXP, GridConfig())


class TestHazardQuantile:
    def test_exponential_is_constant_one(self):
        for p in (0.05, 0.5, 0.95):
            assert hazard_quantile(EXP, p) == pytest.approx(1.0, rel=1e-12)

    def test_worked_value_at_mode(self):
        assert hazard_quantile(GOV, 1 / 3) == pytest.approx(0.5625, rel=1e-12)

    def test_agrees_with_ratio_qd_against_exponential(self):
        for p in np.linspace(0.01, 0.99, 256):
            p = float(p)
            assert hazard_quantile(GOV, p) == pytest.approx(
                ratio_qd(GOV, EXP, p), rel=1e-12
            )


class TestHazardShape:
    def test_govindarajulu_bathtub(self):
        h = classify_hazard(_ctx(GOV))
        assert h.status == "BT"
        assert h.modes[0][0] == pytest.approx(1 / 3, abs=1e-6)
        assert h.modes[0][1] == "min"

    def test_exponential_constant(self):
        assert classify_hazard(_ctx(EXP)).status == "Constant"

    def test_monotone_for_small_beta(self):
        assert classify_hazard(_ctx(Govindarajulu(0, 2, 0.5))).status == "Increasing"
        assert classify_hazard(_ctx(Govindarajulu(0, 2, 1.0))).status == "Increasing"


@pytest.fixture(scope="module")
def report():
    return aging_report(GOV)


class TestWorkedGovindarajulu:

    def test_mrl_upside_down(self, report):
        assert report.mrl_class == "UBT"

    def test_ihrwa_bathtub_with_dual_route(self, report):
        assert report.ihrwa_class == "BT"
        assert report.evidence["ihrwa_corollary"] == "BT"
        assert report.evidence["ihrwa_surrogate"] == "BT"
        assert "ihrwa_arbitration" in report.evidence
        assert "ihrwa_conflict" not in report.evidence

    def test_ihrwa_endpoint_limit_diverges(self, report):
        assert report.evidence["ihrwa_limit_1"]["kind"] == "+inf"

    def test_ifra_neither_with_inner_value(self, report):
        assert report.ifra_class == "Neither"
        assert report.evidence["ifra_value_at_pstar"] == pytest.approx(
            -0.1138, abs=1e-3
        )

    def test_cross_checks_recorded(self, report):
        assert any("agrees" in n or "consistent" in n for n in report.notes)


class TestMonotonePath:
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_small_beta_is_uniformly_aging(self, beta):
        rep = aging_report(Govindarajulu(0, 2, beta))
        assert rep.hazard.status == "Increasing"
        assert rep.mrl_class == "DMRL"
        assert rep.ihrwa_class == "IHRWA"
        assert rep.ifra_class == "IFRA"

    def test_exponential_boundary_classes(self):
        rep = aging_report(EXP)
        assert rep.hazard.status == "Constant"
        assert rep.mrl_class == "Constant"
        assert rep.ihrwa_class == "Both"
        assert rep.ifra_class == "Both"


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [0.25, 3.0, 17.5])
    def test_classes_survive_rescaling(self, c):
        base = aging_report(GOV)
        scaled = aging_report(Govindarajulu(0, c * 2, 2))
        assert scaled.hazard.status == base.hazard.status
        assert scaled.mrl_class == base.mrl_class
        assert scaled.ihrwa_class == base.ihrwa_class
        assert scaled.ifra_class == base.ifra_class


class TestSurrogate:
    def test_exponential_surrogate_is_one(self):
        for p in (0.1, 0.5, 0.9):
            assert wa_surrogate(EXP, p) == pytest.approx(1.0, rel=1e-8)

    def test_ihrwa_class_standalone_matches_report(self):
        ev = {}
        ctx = _ctx(GOV)
        assert classify_ihrwa(ctx, classify_hazard(ctx), ev) == "BT"
        assert ev["ihrwa_surrogate"] == "BT"


class TestImplicationChain:
    MODELS = [
        GOV,
        EXP,
        Govindarajulu(0, 2, 0.5),
        Govindarajulu(0, 2, 1.0),
        Govindarajulu(0, 1, 3.0),
        Govindarajulu(0, 4, 0.8),
    ]

    def test_ifr_implies_dmrl_ihrwa_ifra(self):
        # IFR => DMRL, IFR => IHRWA => IFRA; "Both"/"Constant" count as membership
        for m in self.MODELS:
            rep = aging_report(m)
            ifr = rep.hazard.status in ("Increasing", "Constant")
            dmrl = rep.mrl_class in ("DMRL", "Constant")
            ihrwa = rep.ihrwa_class in ("IHRWA", "Both")
            ifra = rep.ifra_class in ("IFRA", "Both")
            if ifr:
                assert dmrl and ihrwa, m.label()
            if ihrwa:
                assert ifra, m.label()

    def test_mrl_classifier_consistent_with_report(self):
        for m in self.MODELS:
            ctx = _ctx(m)
            assert classify_mrl(ctx, classify_hazard(ctx), {}) == aging_report(m).mrl_class, m.label()

    def test_ifra_classifier_consistent_with_report(self):
        for m in self.MODELS:
            ctx = _ctx(m)
            assert classify_ifra(ctx, classify_hazard(ctx), {}) == aging_report(m).ifra_class, m.label()


class TestOneContext:
    def test_report_hands_one_context_to_classifiers_and_cross_checks(self, monkeypatch):
        seen = []

        def record(name):
            real = getattr(aging, name)

            def spy(*args, **kw):
                seen.append((name, kw["ctx"] if "ctx" in kw else args[0]))
                return real(*args, **kw)

            monkeypatch.setattr(aging, name, spy)

        names = [f"classify_{k}" for k in ("hazard", "mrl", "ihrwa", "ifra")]
        names += [f"check_{o}" for o in ("convex", "dmrl", "qmit", "star")]
        for name in names:
            record(name)
        aging_report(GOV)
        assert sorted(name for name, _ in seen) == sorted(names)
        ctx = seen[0][1]
        assert isinstance(ctx, PairContext) and (ctx.X, ctx.Y) == (GOV, EXP)
        assert all(c is ctx for _, c in seen)


class TestReportSerialization:
    def test_to_dict_round_trips_labels(self):
        d = aging_report(GOV).to_dict()
        assert d["mrl_class"] == "UBT"
        assert d["ihrwa_class"] == "BT"
        assert d["ifra_class"] == "Neither"
        assert d["hazard"]["status"] == "BT"
        assert isinstance(d["notes"], list)


class TestGridProfileShapes:
    @pytest.mark.parametrize("X, expected", [
        (TukeyGeneralized(1.5, 1, 4.2), 2),  # mrl shape fallback and ihrwa surrogate
        (TukeyGeneralized(1.5, 1, 4.8), 2),
        (Govindarajulu(0, 2, 2), 1),  # ihrwa surrogate only
    ])
    def test_profile_values_match_the_scalar_reference(self, monkeypatch, X, expected):
        cfg = GridConfig(n=512)
        seen = []
        real = aging.find_shape

        def spy(fn, grid=GridConfig(), values=None):
            rep = real(fn, grid, values)
            if values is not None:
                seen.append((fn, rep))
            return rep

        monkeypatch.setattr(aging, "find_shape", spy)
        aging_report(X, cfg)
        assert len(seen) == expected
        for fn, rep in seen:
            ref = find_shape(np.vectorize(lambda p: fn(float(p)), otypes=[float]), cfg)
            assert rep.classification == ref.classification
            assert [m.kind for m in rep.modes] == [m.kind for m in ref.modes]
            for m, r in zip(rep.modes, ref.modes):
                assert m.location == pytest.approx(r.location, abs=1e-8)

    def test_report_lets_the_model_die_without_the_cyclic_collector(self):
        X = TukeyGeneralized(1.5, 1, 4.5)
        ref = weakref.ref(X)
        gc.disable()
        try:
            aging_report(X)
            del X
            assert ref() is None
        finally:
            gc.enable()
