import dataclasses
import gc
import json
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from qorder import aging, oracle
from qorder.aging import (
    HazardShape,
    aging_report,
    classify_hazard,
    classify_ifra,
    classify_ihrwa,
    classify_mrl,
    hazard_quantile,
)
from qorder.cli import dumps, main, parse_spec
from qorder.deltas import ratio_qd
from qorder.errors import (
    InternalConsistencyError,
    ModelIntegrityError,
    QorderError,
    TooOscillatoryError,
)
from qorder.limits import LimitValue
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import logit_grid
from qorder.orders import TOL, PairContext
from qorder.shape import CONSTANT, UNIMODAL_MIN, find_shape

GOV = Govindarajulu(0, 2, 2)
EXP = UnitExponential()


def _ctx(X):
    return PairContext(X, EXP)


class TestHazardQuantile:
    def test_exponential_is_constant_one(self):
        for p in (0.05, 0.5, 0.95):
            assert hazard_quantile(EXP, p) == pytest.approx(1.0, rel=1e-12)

    def test_density_at_quantile(self):
        # f(F^-1(p)) = (1 - p) * r(F^-1(p)) = 1 - p for the unit exponential
        assert (1 - 0.25) * hazard_quantile(EXP, 0.25) == pytest.approx(0.75)

    def test_non_positive_quantile_density_is_refused(self):
        class Flat(UnitExponential):
            def quantile_density(self, p):
                return 0.0 * np.asarray(p) if np.ndim(p) else 0.0

        with pytest.raises(ModelIntegrityError, match="quantile density must be positive"):
            hazard_quantile(Flat(), 0.25)
        with pytest.raises(ModelIntegrityError, match="quantile density must be positive"):
            classify_hazard(_ctx(Flat()))

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


class TestShiftInvariance:
    """Shifting X by c shifts its hazard and its mrl along with it, so no class
    moves; the mrl criterion of a BT/UBT hazard compares lim h(0+) with
    1/(E[X] - a), the reciprocal of the mrl at the support's left end a."""

    def test_support_above_zero_reads_the_mrl_at_its_left_end(self):
        X = TukeyGeneralized(2.57145, 0.994598, 1.55534)  # support starts at lam - eta
        rep = aging_report(X)
        assert (rep.hazard.status, rep.mrl_class, rep.ihrwa_class, rep.ifra_class) == (
            "BT", "DMRL", "BT", "IFRA")
        assert rep.evidence["mean_reciprocal"] == 1.0 / (X.mean - X.support_lo)

    def test_hazard_limit_is_the_pairs_ratio_limit(self):
        # the hazard quantile is ratio_qd(X, Exp(1)): its limit at 0+ is the pair's memo
        X = TukeyGeneralized(2.57145, 0.994598, 1.55534)
        rep = aging_report(X)
        assert rep.evidence["hazard_limit_0"] == _ctx(X).limit("ratio", 0).to_dict()

    def test_width_rounded_away_by_the_location_takes_the_shape_fallback(self):
        # E[X] - a rounds to 0: no threshold is read, and no division by zero escapes
        X = Govindarajulu(1e17, 1, 2)
        assert X.mean - X.support_lo == 0.0
        ctx = PairContext(X, EXP, 512)
        hazard = classify_hazard(ctx)
        evidence = {}
        assert hazard.status == "BT"
        assert classify_mrl(ctx, hazard, evidence) in ("DMRL", "IMRL", "BT", "UBT", "Inconclusive")
        assert "mean_reciprocal" not in evidence

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: absolute tolerance at a large location")
    def test_location_far_above_the_width_agrees_with_the_order_engine(self, tmp_path):
        # theta from 0 to 1e14 exits 0; at 1e16 it exits 1 with
        # "mrl=UBT contradicts the order engine (dmrl vs Exp(1) is Holds)"
        assert main(["aging", "--x", "govindarajulu:1e16,1,2",
                     "--out", str(tmp_path / "report.json")]) == 0

    @staticmethod
    def _hazard_and_mrl(X):
        try:
            ctx = PairContext(X, EXP, 512)
            hazard = classify_hazard(ctx)
            return hazard.status, classify_mrl(ctx, hazard, {})
        except QorderError as exc:
            return type(exc).__name__

    def test_shifted_aging_pool_models_keep_their_classes(self, workloads):
        entries = [e for stratum in workloads.load_pool("aging-param").values() for e in stratum]
        moved = []
        for entry in entries[::6]:  # about 300 Tukey and Govindarajulu models
            X = parse_spec(entry["argv"][2])
            base = self._hazard_and_mrl(X)
            for c in (0.5, 3.0):
                if isinstance(X, TukeyGeneralized):
                    shifted = dataclasses.replace(X, lam=X.lam + c)
                else:
                    shifted = dataclasses.replace(X, theta=X.theta + c)
                classes = self._hazard_and_mrl(shifted)
                if classes != base:
                    moved.append((shifted.label(), base, classes))
        assert moved == []


class TestSurrogate:
    def test_exponential_surrogate_is_one(self):
        for p in (0.1, 0.5, 0.9):
            wa = UnitExponential().lower_weighted_integral(p) / EXP.lower_weighted_integral(p)
            assert wa == pytest.approx(1.0, rel=1e-8)
            # the numerator as classify_ihrwa builds it on the grid
            assert (-np.log1p(-p) - p) / EXP.lower_weighted_integral(p) == pytest.approx(1.0,
                                                                                      rel=1e-8)

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
                seen.append((name, args[0]))
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
        d = json.loads(dumps(aging_report(GOV)))
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
        n = 512
        seen = []
        real = aging.shape_class

        def spy(values, n=4096):
            cls = real(values, n)
            seen.append((values, cls))
            return cls

        monkeypatch.setattr(aging, "shape_class", spy)
        aging_report(X, n)
        assert len(seen) == expected
        # the mrl fallback, when it runs, comes before the ihrwa surrogate
        mrl = lambda X, p: X.upper_weighted_integral(p) / (1 - p)  # noqa: E731
        wa = lambda X, p: EXP.lower_weighted_integral(p) / X.lower_weighted_integral(p)  # noqa: E731
        refs = [mrl, wa][-expected:]
        grid = logit_grid(n)
        for (values, cls), ref in zip(seen, refs):
            scalar = np.vectorize(lambda p, ref=ref: ref(X, float(p)), otypes=[float])
            assert values[::37] == pytest.approx(scalar(grid[::37]), rel=1e-6)
            assert cls == find_shape(scalar, n).classification

    def test_surrogate_runs_no_quadrature_beyond_the_profile(self, monkeypatch):
        X = Govindarajulu(0, 0.53, 1.17)  # fresh: no profile built yet
        ctx = _ctx(X)
        hazard = classify_hazard(ctx)
        assert hazard.status == "BT"
        calls = []
        real = oracle.quadrature

        def spy(*args, **kw):
            calls.append(args[1:3])
            return real(*args, **kw)

        monkeypatch.setattr(oracle, "quadrature", spy)
        classify_ihrwa(ctx, hazard, {})
        # only the head of the profile's lower cumulative integral
        assert calls == [(0.0, float(logit_grid(ctx.n)[0]))]

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


INF = math.inf
NAN = math.nan
_BAND = [  # (x, sign test of x against the band [-TOL, TOL]: True above, False below)
    (INF, True), (-INF, False), (NAN, None), (0.0, None),
    (TOL, None), (-TOL, None),  # exactly on the band's edges: borderline
    (math.nextafter(TOL, 0.0), None), (math.nextafter(-TOL, 0.0), None),  # just inside
    (math.nextafter(TOL, INF), True), (math.nextafter(-TOL, -INF), False),  # just outside
]


class TestClassifierBranches:
    """Every branch of the mrl, ihrwa and ifra classifiers, driven by limits,
    delta values and oracle runs patched on one context of X = Exp(1), whose
    mrl shape (Constant) and weighted-average surrogate (Both) differ from every
    endpoint outcome.  E[X] is pinned at 2**40, so the mrl threshold
    1/(E[X] - a) is 2**-40 and every gap lim - threshold below is exact."""

    THRESHOLD = 2.0 ** -40

    @pytest.fixture
    def ctx(self, monkeypatch):
        monkeypatch.setattr(aging, "finite_mean", lambda X: 2.0 ** 40)
        return PairContext(EXP, EXP, 64)

    @staticmethod
    def _patch(ctx, limits=None, delta=None, oracle_status=None):
        """Make ctx read limits[(name, end)], delta at any p and a star oracle
        run of the given status; anything not given must not be read."""

        def limit(name, end):
            return LimitValue(limits[(name, end)], "analytic-hint")

        def unread(*args):
            raise AssertionError(f"unexpected read {args}")

        ctx.limit = unread if limits is None else limit
        ctx.delta = unread if delta is None else (lambda p: delta)
        ctx.oracle = unread if oracle_status is None else (
            lambda order: SimpleNamespace(status=oracle_status))

    @pytest.mark.parametrize("status, expected", [
        ("Increasing", "DMRL"), ("Decreasing", "IMRL"), ("Constant", "Constant"),
        ("NModal", "Constant"),  # the shape fallback
    ])
    def test_mrl_of_a_monotone_hazard_reads_no_limit(self, ctx, status, expected):
        self._patch(ctx)
        evidence = {}
        assert classify_mrl(ctx, HazardShape(status), evidence) == expected
        assert evidence == {}

    @pytest.mark.parametrize("status", ["BT", "UBT"])
    @pytest.mark.parametrize("gap, above", _BAND)
    def test_mrl_endpoint_criterion(self, ctx, status, gap, above):
        x = gap if math.isinf(gap) else self.THRESHOLD + gap
        if math.isfinite(gap):
            assert x - self.THRESHOLD == gap
        self._patch(ctx, limits={("ratio", 0): x})
        evidence = {}
        got = classify_mrl(ctx, HazardShape(status, ((0.3, "min"),)), evidence)
        expected = {None: "Constant",  # the shape fallback
                    True: "UBT" if status == "BT" else "IMRL",
                    False: "DMRL" if status == "BT" else "BT"}[above]
        assert got == expected
        assert list(evidence) == ["hazard_limit_0", "mean_reciprocal"]
        assert evidence["hazard_limit_0"] == LimitValue(x, "analytic-hint").to_dict()
        assert evidence["mean_reciprocal"] == self.THRESHOLD

    @pytest.fixture(params=[CONSTANT, UNIMODAL_MIN, None])
    def surrogate(self, request, monkeypatch):
        """The weighted-average surrogate's label, from a patched shape class:
        Both, BT, or Inconclusive when the surrogate is too oscillatory."""
        cls = request.param

        def shape_class(values, n):
            if cls is None:
                raise TooOscillatoryError("too many modes", [0.2, 0.4])
            return cls

        monkeypatch.setattr(aging, "shape_class", shape_class)
        return {CONSTANT: "Both", UNIMODAL_MIN: "BT", None: "Inconclusive"}[cls]

    @staticmethod
    def _ihrwa_outcome(corollary, surrogate, keys):
        """The class and evidence keys of the corollary and surrogate: the
        surrogate wins unless it is Inconclusive."""
        if corollary is not None and surrogate not in ("Inconclusive", corollary):
            keys = keys + ["ihrwa_conflict"]
        elif corollary in ("BT", "UBT"):
            keys = keys + ["ihrwa_arbitration"]
        if surrogate == "Inconclusive":
            return corollary or "Inconclusive", keys
        return surrogate, keys

    @pytest.mark.parametrize("status, corollary", [
        ("Increasing", "IHRWA"), ("Decreasing", "DHRWA"), ("NModal", None),
    ])
    def test_ihrwa_corollary_of_a_monotone_hazard(self, ctx, surrogate, status, corollary):
        self._patch(ctx)
        evidence = {}
        got = classify_ihrwa(ctx, HazardShape(status), evidence)
        assert (got, list(evidence)) == self._ihrwa_outcome(
            corollary, surrogate, ["ihrwa_corollary", "ihrwa_surrogate"])
        assert (evidence["ihrwa_corollary"], evidence["ihrwa_surrogate"]) == (corollary,
                                                                             surrogate)

    def test_ihrwa_of_a_constant_hazard_is_both(self, ctx):
        self._patch(ctx)
        evidence = {}
        assert classify_ihrwa(ctx, HazardShape("Constant"), evidence) == "Both"
        assert evidence == {}

    @pytest.mark.parametrize("status", ["BT", "UBT"])
    @pytest.mark.parametrize("v, above", _BAND)
    def test_ihrwa_endpoint_criterion(self, ctx, surrogate, status, v, above):
        self._patch(ctx, limits={("centered_delta", 1): v})
        evidence = {}
        got = classify_ihrwa(ctx, HazardShape(status, ((0.3, "min"),)), evidence)
        corollary = {None: None,
                     True: "IHRWA" if status == "UBT" else "BT",
                     False: "UBT" if status == "UBT" else "DHRWA"}[above]
        assert (got, list(evidence)) == self._ihrwa_outcome(
            corollary, surrogate, ["ihrwa_limit_1", "ihrwa_corollary", "ihrwa_surrogate"])
        assert evidence["ihrwa_limit_1"] == LimitValue(v, "analytic-hint").to_dict()
        assert (evidence["ihrwa_corollary"], evidence["ihrwa_surrogate"]) == (corollary,
                                                                             surrogate)

    @pytest.mark.parametrize("status, expected", [
        ("Increasing", "IFRA"), ("Decreasing", "DFRA"), ("Constant", "Both"),
    ])
    def test_ifra_of_a_monotone_hazard(self, ctx, status, expected):
        self._patch(ctx)
        evidence = {}
        assert classify_ifra(ctx, HazardShape(status), evidence) == expected
        assert evidence == {}

    @pytest.mark.parametrize("oracle_status, expected", [
        ("Increasing", "IFRA"), ("Decreasing", "DFRA"), ("Constant", "Both"),
        ("Mixed", "Neither"),
    ])
    def test_ifra_of_an_nmodal_hazard_is_the_star_oracles(self, ctx, oracle_status, expected):
        self._patch(ctx, oracle_status=oracle_status)
        evidence = {}
        assert classify_ifra(ctx, HazardShape("NModal"), evidence) == expected
        assert evidence == {}

    @pytest.mark.parametrize("status", ["BT", "UBT"])
    @pytest.mark.parametrize("v0, v1", [(NAN, 0.0), (0.0, NAN), (NAN, INF)])
    def test_ifra_of_an_indeterminate_limit_is_the_star_oracles(self, ctx, status, v0, v1):
        self._patch(ctx, limits={("delta", 0): v0, ("delta", 1): v1}, delta=0.25,
                    oracle_status="Decreasing")
        evidence = {}
        assert classify_ifra(ctx, HazardShape(status, ((0.3, "min"),)), evidence) == "DFRA"
        assert list(evidence) == ["ifra_limit_0", "ifra_limit_1", "ifra_value_at_pstar"]
        assert evidence["ifra_value_at_pstar"] == 0.25

    @pytest.mark.parametrize("status, v0, v1, a_star, expected", [
        # UBT: IFRA when neither limit is below -TOL, DFRA when A(p*) is below TOL
        ("UBT", -TOL, 0.0, TOL, "Neither"),
        ("UBT", math.nextafter(-TOL, 0.0), INF, math.nextafter(TOL, 0.0), "Both"),
        ("UBT", 0.0, 0.0, TOL, "IFRA"),
        ("UBT", -INF, 0.0, -1.0, "DFRA"),
        ("UBT", 0.0, math.nextafter(-TOL, -INF), 0.0, "DFRA"),
        # BT: DFRA when neither limit is above TOL, IFRA when A(p*) is above -TOL
        ("BT", TOL, 0.0, -TOL, "Neither"),
        ("BT", math.nextafter(TOL, 0.0), -INF, math.nextafter(-TOL, 0.0), "Both"),
        ("BT", 0.0, 0.0, -1.0, "DFRA"),
        ("BT", 1.0, 0.0, 0.0, "IFRA"),
        ("BT", 0.0, INF, math.nextafter(-TOL, -INF), "Neither"),
    ])
    def test_ifra_endpoint_criterion(self, ctx, status, v0, v1, a_star, expected):
        self._patch(ctx, limits={("delta", 0): v0, ("delta", 1): v1}, delta=a_star)
        evidence = {}
        assert classify_ifra(ctx, HazardShape(status, ((0.3, "min"),)), evidence) == expected
        assert list(evidence) == ["ifra_limit_0", "ifra_limit_1", "ifra_value_at_pstar"]
        assert evidence["ifra_limit_0"] == LimitValue(v0, "analytic-hint").to_dict()
        assert evidence["ifra_value_at_pstar"] == a_star

    def test_an_oscillatory_hazard_is_nmodal_with_its_modes(self, monkeypatch):
        def too_oscillatory(fn, n, values):
            raise TooOscillatoryError("too many modes", [0.2, 0.7])

        monkeypatch.setattr(aging, "find_shape", too_oscillatory)
        assert classify_hazard(PairContext(EXP, EXP, 64)) == HazardShape(
            "NModal", ((0.2, "?"), (0.7, "?")))

    @pytest.mark.parametrize("status, label", [
        ("Increasing", "IFR"), ("Decreasing", "DFR"), ("Constant", "Both"),
    ])
    def test_report_names_the_hazard_class(self, monkeypatch, status, label):
        monkeypatch.setattr(aging, "classify_hazard", lambda ctx: HazardShape(status))
        notes = aging_report(EXP, 64).notes
        assert notes[0] == f"hazard: class {label} agrees with convex=Equivalent"

    def test_report_keeps_a_bathtub_hazard_label(self, monkeypatch):
        monkeypatch.setattr(aging, "classify_hazard",
                            lambda ctx: HazardShape("BT", ((0.5, "min"),)))
        with pytest.raises(InternalConsistencyError, match=r"aging class hazard=BT contradicts"):
            aging_report(EXP, 64)
