"""Aging classification of a single distribution.

Every aging class used here is a transform-order comparison against the unit
exponential in disguise: IFR is the convex order, DMRL the dmrl order, IHRWA
the qmit order and IFRA the star order, all with Exp(1) as the reference.
The classifiers below apply the corresponding corollaries directly on the
hazard quantile function, reading the endpoint limits, delta values and grid
oracle runs of one ``PairContext(X, UnitExponential(), grid)``; ``aging_report``
hands that same context to the order engine to cross-check each class, so the
two routes can never silently drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deltas import finite_mean, lower_weighted_integral, mrl_quantile
from .errors import InternalConsistencyError, TooOscillatoryError
from .limits import LimitValue, limit_at, ratio_qd_tail
from .models import UnitExponential
from .orders import (
    BOTH_FAIL,
    EQUIVALENT,
    HOLDS,
    HOLDS_REVERSED,
    INCONCLUSIVE,
    TOL,
    PairContext,
    check_convex,
    check_dmrl,
    check_qmit,
    check_star,
)
from .shape import (
    CONSTANT,
    DECREASING,
    INCREASING,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    GridConfig,
    find_shape,
)

__all__ = [
    "HazardShape",
    "AgingReport",
    "hazard_quantile",
    "classify_hazard",
    "classify_mrl",
    "classify_ihrwa",
    "classify_ifra",
    "aging_report",
    "wa_surrogate",
]

_EXP = UnitExponential()


def hazard_quantile(X, p):
    """Hazard rate at the p-th quantile, r(F^-1(p)) = f(F^-1(p))/(1-p)."""
    return X.density_at_quantile(p) / (1.0 - p)


@dataclass(frozen=True)
class HazardShape:
    status: str  # Increasing | Decreasing | BT | UBT | NModal | Constant
    modes: tuple = ()  # (p, kind) pairs

    def to_dict(self):
        return {"status": self.status, "modes": [list(m) for m in self.modes]}


_HAZARD_NAMES = {
    CONSTANT: "Constant",
    INCREASING: "Increasing",
    DECREASING: "Decreasing",
    UNIMODAL_MIN: "BT",
    UNIMODAL_MAX: "UBT",
}


def classify_hazard(ctx: PairContext) -> HazardShape:
    """Shape of the hazard quantile function of ctx.X in reliability vocabulary.

    The hazard quantile is ratio_qd(X, Exp(1)), whose shape ctx.shape() also
    finds; it is segmented here on its own so that the convex cross-check in
    ``aging_report`` compares two evaluations."""
    X = ctx.X
    try:
        sh = find_shape(lambda p: hazard_quantile(X, p), ctx.cfg)
    except TooOscillatoryError as exc:
        return HazardShape("NModal", tuple((m, "?") for m in exc.modes))
    name = _HAZARD_NAMES.get(sh.classification, "NModal")
    return HazardShape(name, tuple((m.location, m.kind) for m in sh.modes))


def _hazard_limit0(ctx) -> LimitValue:
    X = ctx.X
    hint = LimitValue.from_extended(ratio_qd_tail(X, ctx.Y, 0))
    return limit_at(lambda p: hazard_quantile(X, p), 0, hint)


def _mrl_shape_fallback(ctx):
    X, grid = ctx.X, ctx.cfg
    prof = X.profile(grid.n, grid.p_min)
    sh = find_shape(lambda p: mrl_quantile(X, p), grid, prof.upper / (1.0 - prof.grid))
    return {
        CONSTANT: "Constant",
        INCREASING: "IMRL",
        DECREASING: "DMRL",
        UNIMODAL_MAX: "UBT",
        UNIMODAL_MIN: "BT",
    }.get(sh.classification, "Inconclusive")


def classify_mrl(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Mean-residual-life class of ctx.X: DMRL, IMRL, BT, UBT or Constant.

    For a BT/UBT hazard the endpoint criterion applies: the mrl is monotone
    exactly when lim_{p->0+} r(F^-1(p)) falls on the right side of 1/E[X];
    otherwise it inherits the opposite bathtub shape.
    """
    mu = finite_mean(ctx.X)
    if hazard.status == "Constant":
        return "Constant"
    if hazard.status == "Increasing":
        return "DMRL"
    if hazard.status == "Decreasing":
        return "IMRL"
    if hazard.status not in ("BT", "UBT"):
        return _mrl_shape_fallback(ctx)
    lim = _hazard_limit0(ctx)
    evidence["hazard_limit_0"] = lim.to_dict()
    evidence["mean_reciprocal"] = 1.0 / mu
    if not lim.is_determinate:
        return _mrl_shape_fallback(ctx)
    gap = lim.as_float() - 1.0 / mu
    if abs(gap) <= TOL:
        return _mrl_shape_fallback(ctx)
    if hazard.status == "BT":
        return "DMRL" if gap < 0.0 else "UBT"
    return "IMRL" if gap > 0.0 else "BT"


def wa_surrogate(X, p):
    """Quantile-scale surrogate for the hazard-rate weighted average.

    The ratio of the exponential's and X's lower weighted integrals; it is
    monotone/bathtub exactly when the weighted average is.
    """
    p = float(p)
    num = -math.log1p(-p) - p  # integral of q/(1-q) over (0, p)
    return num / lower_weighted_integral(X, p)


_SURROGATE_NAMES = {
    CONSTANT: "Both",
    INCREASING: "IHRWA",
    DECREASING: "DHRWA",
    UNIMODAL_MAX: "UBT",
    UNIMODAL_MIN: "BT",
}


def classify_ihrwa(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Hazard-rate-weighted-average class of ctx.X: IHRWA, DHRWA, BT, UBT or Both.

    The corollary criterion is the limit at 1- of
    r(F^-1(p))*(F^-1(p)-E[X]) + log(1-p) + 1; the numeric surrogate shape is
    always computed as well and wins on conflict (recorded in the evidence).
    """
    if hazard.status == "Constant":
        return "Both"
    corollary = None
    if hazard.status in ("BT", "UBT"):
        lim = ctx.centered_lim(1)
        evidence["ihrwa_limit_1"] = lim.to_dict()
        if lim.is_determinate:
            v = lim.as_float()
            if hazard.status == "UBT":
                corollary = "IHRWA" if v > TOL else ("UBT" if v < -TOL else None)
            else:
                corollary = "DHRWA" if v < -TOL else ("BT" if v > TOL else None)
    elif hazard.status == "Increasing":
        corollary = "IHRWA"  # IFR implies IHRWA
    elif hazard.status == "Decreasing":
        corollary = "DHRWA"
    X, grid = ctx.X, ctx.cfg
    try:
        prof = X.profile(grid.n, grid.p_min)
        num = -np.log1p(-prof.grid) - prof.grid  # integral of q/(1-q) over (0, p)
        sh = find_shape(lambda p: wa_surrogate(X, p), grid, num / prof.lower)
        surrogate = _SURROGATE_NAMES.get(sh.classification, "Inconclusive")
    except TooOscillatoryError:
        surrogate = "Inconclusive"
    evidence["ihrwa_corollary"] = corollary
    evidence["ihrwa_surrogate"] = surrogate
    if corollary is None:
        return surrogate
    if surrogate not in ("Inconclusive", corollary):
        evidence["ihrwa_conflict"] = (
            f"corollary says {corollary}, surrogate shape says {surrogate}; "
            "surrogate wins"
        )
        return surrogate
    if corollary in ("BT", "UBT"):
        # the endpoint criterion only rules out one monotone class here; the
        # bathtub-vs-upside-down call is genuinely settled by the surrogate,
        # so record that both routes were consulted
        evidence["ihrwa_arbitration"] = (
            "endpoint criterion non-monotone; shape confirmed by the numeric surrogate"
        )
        if surrogate != "Inconclusive":
            return surrogate
    return corollary


def classify_ifra(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Increasing/decreasing-failure-rate-in-average class of ctx.X via the sign of
    A(p) = F^-1(p)*r(F^-1(p)) + log(1-p) at its endpoints and inner extremum."""
    if hazard.status == "Constant":
        return "Both"
    if hazard.status == "Increasing":
        return "IFRA"
    if hazard.status == "Decreasing":
        return "DFRA"
    if hazard.status not in ("BT", "UBT") or not hazard.modes:
        return _ifra_oracle(ctx)
    lim0 = ctx.delta_lim(0)
    lim1 = ctx.delta_lim(1)
    pstar = hazard.modes[0][0]
    a_star = ctx.delta(pstar)
    evidence["ifra_limit_0"] = lim0.to_dict()
    evidence["ifra_limit_1"] = lim1.to_dict()
    evidence["ifra_value_at_pstar"] = a_star
    if not (lim0.is_determinate and lim1.is_determinate):
        return _ifra_oracle(ctx)
    v0, v1 = lim0.as_float(), lim1.as_float()
    if hazard.status == "UBT":
        ifra = v0 > -TOL and v1 > -TOL
        dfra = a_star < TOL
    else:
        dfra = v0 < TOL and v1 < TOL
        ifra = a_star > -TOL
    if ifra and dfra:
        return "Both"
    if ifra:
        return "IFRA"
    if dfra:
        return "DFRA"
    return "Neither"


def _ifra_oracle(ctx):
    gv = ctx.oracle("star")
    return {"Increasing": "IFRA", "Decreasing": "DFRA", "Constant": "Both"}.get(
        gv.status, "Neither"
    )


@dataclass
class AgingReport:
    hazard: HazardShape
    mrl_class: str
    ihrwa_class: str
    ifra_class: str
    evidence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "hazard": self.hazard.to_dict(),
            "mrl_class": self.mrl_class,
            "ihrwa_class": self.ihrwa_class,
            "ifra_class": self.ifra_class,
            "evidence": self.evidence,
            "notes": list(self.notes),
        }


# class label -> acceptable order-engine statuses versus Exp(1)
_CLASS_TO_STATUS = {
    "forward": (HOLDS, EQUIVALENT),
    "reversed": (HOLDS_REVERSED, EQUIVALENT),
    "neither": (BOTH_FAIL,),
    "both": (EQUIVALENT,),
}


def _expected_statuses(label, fwd, rev, both, neither):
    if label == both:
        return _CLASS_TO_STATUS["both"]
    if label == fwd:
        return _CLASS_TO_STATUS["forward"]
    if label == rev:
        return _CLASS_TO_STATUS["reversed"]
    if label in neither:
        return _CLASS_TO_STATUS["neither"]
    return None  # Inconclusive or shape-only label; nothing to enforce


def _cross_check(notes, name, label, verdict, fwd, rev, both="Both", neither=("BT", "UBT", "Neither")):
    expected = _expected_statuses(label, fwd, rev, both, neither)
    if expected is None or verdict.status == INCONCLUSIVE:
        notes.append(f"{name}: class {label}, order engine {verdict.status} (not enforced)")
        return
    if verdict.status not in expected:
        raise InternalConsistencyError(
            f"aging class {name}={label} contradicts the order engine "
            f"({verdict.order} vs Exp(1) is {verdict.status}); "
            f"certificate: {verdict.certificate.to_dict()}"
        )
    notes.append(f"{name}: class {label} agrees with {verdict.order}={verdict.status}")


def aging_report(X, grid: GridConfig = GridConfig()) -> AgingReport:
    """Full aging classification with order-engine cross-checks vs Exp(1)."""
    ctx = PairContext(X, _EXP, grid)
    hazard = classify_hazard(ctx)
    evidence = {}
    mrl = classify_mrl(ctx, hazard, evidence)
    ihrwa = classify_ihrwa(ctx, hazard, evidence)
    ifra = classify_ifra(ctx, hazard, evidence)
    report = AgingReport(hazard, mrl, ihrwa, ifra, evidence)

    notes = report.notes
    _cross_check(notes, "hazard", {"Increasing": "IFR", "Decreasing": "DFR",
                                   "Constant": "Both"}.get(hazard.status, hazard.status),
                 check_convex(X, _EXP, ctx=ctx), "IFR", "DFR",
                 neither=("BT", "UBT", "NModal"))
    _cross_check(notes, "mrl", mrl, check_dmrl(X, _EXP, ctx=ctx), "DMRL", "IMRL",
                 both="Constant")
    _cross_check(notes, "ihrwa", ihrwa, check_qmit(X, _EXP, ctx=ctx), "IHRWA", "DHRWA")
    _cross_check(notes, "ifra", ifra, check_star(X, _EXP, ctx=ctx), "IFRA", "DFRA",
                 neither=("Neither",))
    return report
