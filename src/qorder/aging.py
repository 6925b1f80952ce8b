"""Aging classification of a single distribution.

Every aging class used here is a transform-order comparison against the unit
exponential in disguise: IFR is the convex order, DMRL the dmrl order, IHRWA
the qmit order and IFRA the star order, all with Exp(1) as the reference.
The classifiers below apply the corresponding corollaries directly on the
hazard quantile function, reading the endpoint limits, delta values and grid
oracle runs of one ``PairContext(X, UnitExponential(), n)``; ``aging_report``
hands that same context to the order engine to cross-check each class, so the
two routes can never silently drift apart.  One table, ``_DIRECTION_CLASSES``,
gives the class of each notion for a monotone or constant direction, and the
endpoint criteria test their limits with the engine's own ``sign_test``, so a
borderline limit is the one the engine's verdicts call borderline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .deltas import finite_mean
from .errors import InternalConsistencyError, TooOscillatoryError
from .models import UnitExponential
from .oracle import curve, hazard_rate
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
    sign_test,
)
from .shape import (
    CONSTANT,
    DECREASING,
    INCREASING,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    find_shape,
    shape_class,
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
]

_EXP = UnitExponential()


def hazard_quantile(X, p):
    """Hazard rate at the p-th quantile, r(F^-1(p)) = f(F^-1(p))/(1-p) = 1/qd(p)/(1-p)."""
    return hazard_rate(X.quantile_density(p), p)


@dataclass(frozen=True)
class HazardShape:
    status: str  # Increasing | Decreasing | BT | UBT | NModal | Constant
    modes: tuple = ()  # (p, kind) pairs


# shape class -> its label as the shape of the hazard, of the mrl and of the
# hazard-rate weighted average; a class not listed (NModal) has none
_SHAPE_LABELS = {
    CONSTANT: ("Constant", "Constant", "Both"),
    INCREASING: ("Increasing", "IMRL", "IHRWA"),
    DECREASING: ("Decreasing", "DMRL", "DHRWA"),
    UNIMODAL_MAX: ("UBT", "UBT", "UBT"),
    UNIMODAL_MIN: ("BT", "BT", "BT"),
}


# direction of a monotone or constant hazard, or of the star oracle's run, ->
# the class it gives as (hazard, mrl, ihrwa, ifra); IFR implies DMRL, IHRWA and
# IFRA, and DFR the reverse of each
_DIRECTION_CLASSES = {
    INCREASING: ("IFR", "DMRL", "IHRWA", "IFRA"),
    DECREASING: ("DFR", "IMRL", "DHRWA", "DFRA"),
    CONSTANT: ("Both", "Constant", "Both", "Both"),
}


def _label(table, key, column, default):
    """table[key][column], or default when key has no row."""
    labels = table.get(key)
    return default if labels is None else labels[column]


def classify_hazard(ctx: PairContext) -> HazardShape:
    """Shape of the hazard quantile function of ctx.X in reliability vocabulary.

    The hazard quantile is ratio_qd(X, Exp(1)), whose shape ctx.shape() also
    finds; it is segmented here on its own, from the hazard curve of X's profile, so
    that the convex cross-check in ``aging_report`` compares two segmentations."""
    X = ctx.X
    try:
        sh = find_shape(lambda p: hazard_quantile(X, p), ctx.n, curve("hazard", X.profile(ctx.n)))
    except TooOscillatoryError as exc:
        return HazardShape("NModal", tuple((m, "?") for m in exc.modes))
    name = _label(_SHAPE_LABELS, sh.classification, 0, "NModal")
    return HazardShape(name, tuple((m.location, m.kind) for m in sh.modes))


def _curve_label(ctx, name, column):
    cls = shape_class(curve(name, ctx.X.profile(ctx.n)), ctx.n)
    return _label(_SHAPE_LABELS, cls, column, "Inconclusive")


def classify_mrl(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Mean-residual-life class of ctx.X: DMRL, IMRL, BT, UBT or Constant.

    For a BT/UBT hazard the endpoint criterion applies: the mrl is monotone
    exactly when lim_{p->0+} r(F^-1(p)) falls on the right side of
    1/(E[X] - a), the reciprocal of the mrl E[X] - a at the left endpoint a of
    the support (the mrl m obeys m' = r*m - 1); otherwise it inherits the
    opposite bathtub shape.
    """
    mu = finite_mean(ctx.X)
    if hazard.status in _DIRECTION_CLASSES:
        return _DIRECTION_CLASSES[hazard.status][1]
    if hazard.status not in ("BT", "UBT"):
        return _curve_label(ctx, "mrl", 1)
    lim = ctx.limit("ratio", 0)  # the hazard quantile is ratio_qd(X, Exp(1))
    evidence["hazard_limit_0"] = lim.to_dict()
    spread = mu - ctx.X.support_lo  # E[X] - a
    if not spread > 0.0:  # rounded away: the support starts far above its width
        return _curve_label(ctx, "mrl", 1)
    threshold = 1.0 / spread
    evidence["mean_reciprocal"] = threshold
    above = sign_test(lim.x - threshold, ">=")
    if above is None:  # indeterminate or borderline
        return _curve_label(ctx, "mrl", 1)
    if hazard.status == "BT":
        return "UBT" if above else "DMRL"
    return "IMRL" if above else "BT"


def classify_ihrwa(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Hazard-rate-weighted-average class of ctx.X: IHRWA, DHRWA, BT, UBT or Both.

    The numeric surrogate's shape decides whenever it is determinate, else the
    corollary criterion: the hazard's monotonicity, or for a BT/UBT hazard the
    sign of the limit at 1- of r(F^-1(p))*(F^-1(p)-E[X]) + log(1-p) + 1.  Both
    are recorded in the evidence, with a note when they disagree.
    """
    if hazard.status == CONSTANT:
        return _DIRECTION_CLASSES[CONSTANT][2]
    corollary = _label(_DIRECTION_CLASSES, hazard.status, 2, None)
    if hazard.status in ("BT", "UBT"):
        lim = ctx.limit("centered_delta", 1)
        evidence["ihrwa_limit_1"] = lim.to_dict()
        above = sign_test(lim.x, ">=")
        if above is not None:
            if hazard.status == "UBT":
                corollary = "IHRWA" if above else "UBT"
            else:
                corollary = "BT" if above else "DHRWA"
    try:
        surrogate = _curve_label(ctx, "wa_surrogate", 2)
    except TooOscillatoryError:
        surrogate = "Inconclusive"
    evidence["ihrwa_corollary"] = corollary
    evidence["ihrwa_surrogate"] = surrogate
    if corollary is not None and surrogate not in ("Inconclusive", corollary):
        evidence["ihrwa_conflict"] = (
            f"corollary says {corollary}, surrogate shape says {surrogate}; "
            "surrogate wins"
        )
    elif corollary in ("BT", "UBT"):
        # the endpoint criterion only rules out one monotone class here
        evidence["ihrwa_arbitration"] = (
            "endpoint criterion non-monotone; shape confirmed by the numeric surrogate"
        )
    return corollary if surrogate == "Inconclusive" and corollary else surrogate


def classify_ifra(ctx: PairContext, hazard: HazardShape, evidence: dict):
    """Increasing/decreasing-failure-rate-in-average class of ctx.X via the sign of
    A(p) = F^-1(p)*r(F^-1(p)) + log(1-p) at its endpoints and inner extremum."""
    if hazard.status in _DIRECTION_CLASSES:
        return _DIRECTION_CLASSES[hazard.status][3]
    if hazard.status not in ("BT", "UBT"):
        return _ifra_oracle(ctx)
    lim0 = ctx.limit("delta", 0)
    lim1 = ctx.limit("delta", 1)
    pstar = hazard.modes[0][0]
    a_star = ctx.delta(pstar)
    evidence["ifra_limit_0"] = lim0.to_dict()
    evidence["ifra_limit_1"] = lim1.to_dict()
    evidence["ifra_value_at_pstar"] = a_star
    if not (lim0.is_determinate and lim1.is_determinate):
        return _ifra_oracle(ctx)
    v0, v1 = lim0.x, lim1.x
    if hazard.status == "UBT":
        ifra = v0 > -TOL and v1 > -TOL
        dfra = a_star < TOL
    else:
        dfra = v0 < TOL and v1 < TOL
        ifra = a_star > -TOL
    direction = CONSTANT if ifra and dfra else INCREASING if ifra else DECREASING if dfra else None
    return _label(_DIRECTION_CLASSES, direction, 3, "Neither")


def _ifra_oracle(ctx):
    """The class of the star oracle's run, whose statuses name directions; a
    Mixed run (violations both ways) is Neither."""
    return _label(_DIRECTION_CLASSES, ctx.oracle("star").status, 3, "Neither")


@dataclass
class AgingReport:
    hazard: HazardShape
    mrl_class: str
    ihrwa_class: str
    ifra_class: str
    evidence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# class label -> the order-engine statuses versus Exp(1) it allows; a label
# not listed here (Inconclusive) is not enforced
_ALLOWED_STATUSES = {
    **dict.fromkeys(("IFR", "DMRL", "IHRWA", "IFRA"), (HOLDS, EQUIVALENT)),
    **dict.fromkeys(("DFR", "IMRL", "DHRWA", "DFRA"), (HOLDS_REVERSED, EQUIVALENT)),
    **dict.fromkeys(("Both", "Constant"), (EQUIVALENT,)),
    **dict.fromkeys(("BT", "UBT", "NModal", "Neither"), (BOTH_FAIL,)),
}


def _cross_check(notes, name, label, verdict):
    expected = _ALLOWED_STATUSES.get(label)
    if expected is None or verdict.status == INCONCLUSIVE:
        notes.append(f"{name}: class {label}, order engine {verdict.status} (not enforced)")
        return
    if verdict.status not in expected:
        raise InternalConsistencyError(
            f"aging class {name}={label} contradicts the order engine "
            f"({verdict.order} vs Exp(1) is {verdict.status}); "
            f"certificate: {asdict(verdict.certificate)}"
        )
    notes.append(f"{name}: class {label} agrees with {verdict.order}={verdict.status}")


def aging_report(X, n=4096) -> AgingReport:
    """Full aging classification with order-engine cross-checks vs Exp(1)."""
    ctx = PairContext(X, _EXP, n)
    hazard = classify_hazard(ctx)
    evidence = {}
    mrl = classify_mrl(ctx, hazard, evidence)
    ihrwa = classify_ihrwa(ctx, hazard, evidence)
    ifra = classify_ifra(ctx, hazard, evidence)
    report = AgingReport(hazard, mrl, ihrwa, ifra, evidence)

    notes = report.notes
    hazard_label = _label(_DIRECTION_CLASSES, hazard.status, 0, hazard.status)
    _cross_check(notes, "hazard", hazard_label, check_convex(ctx))
    _cross_check(notes, "mrl", mrl, check_dmrl(ctx))
    _cross_check(notes, "ihrwa", ihrwa, check_qmit(ctx))
    _cross_check(notes, "ifra", ifra, check_star(ctx))
    return report
