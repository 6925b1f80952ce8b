"""Certified verdicts for the transform orders.

Each check applies the sharpest available characterization for the observed
shape of the quantile-density ratio, records every evaluated condition in a
certificate, and falls back to the dense-grid oracle whenever the theorem path
is silent, borderline, or its endpoint limits are indeterminate.  Reversed
directions are always decided by swapping the roles of the two models and
re-deriving the hypotheses from the reciprocal ratio.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    NonFiniteMeanError,
    QorderError,
    TooOscillatoryError,
    ValidationError,
)
from .limits import LimitValue
from .oracle import GridVerdict, order_oracle
from .shape import (
    CONSTANT,
    DECREASING,
    INCREASING,
    N_MODAL,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    GridConfig,
    Mode,
    Segment,
    ShapeReport,
    find_shape,
    ratio_qd,
)
from . import deltas

__all__ = [
    "ORDERS",
    "HOLDS",
    "HOLDS_REVERSED",
    "BOTH_FAIL",
    "EQUIVALENT",
    "INCONCLUSIVE",
    "Condition",
    "Certificate",
    "OrderVerdict",
    "check_convex",
    "check_star",
    "check_qmit",
    "check_dmrl",
    "check_ps",
    "compare_all",
    "theorem_status",
    "predict_quantile_ratio_shape",
    "QuantileRatioPrediction",
]

ORDERS = ("convex", "qmit", "dmrl", "star", "ps", "nbue")

HOLDS = "Holds"
HOLDS_REVERSED = "HoldsReversed"
BOTH_FAIL = "BothDirectionsFail"
EQUIVALENT = "Equivalent"
INCONCLUSIVE = "Inconclusive"

TOL = 1e-9  # weak inequalities at thresholds; within-tolerance routes to the oracle


@dataclass(frozen=True)
class Condition:
    name: str
    value: object  # float or a symbolic string like "+inf"
    threshold: str
    satisfied: bool | None

    def to_dict(self):
        v = self.value
        if isinstance(v, float) and not math.isfinite(v):
            v = "+inf" if v > 0 else "-inf"
        return {
            "name": self.name,
            "value": v,
            "threshold": self.threshold,
            "satisfied": self.satisfied,
        }


@dataclass
class Certificate:
    theorem: str
    conditions: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "conditions": [c.to_dict() for c in self.conditions],
            "notes": list(self.notes),
        }


@dataclass
class OrderVerdict:
    order: str
    status: str
    method: str  # "theorem" | "numeric-fallback" | "implication"
    certificate: Certificate

    def to_dict(self):
        return {
            "order": self.order,
            "status": self.status,
            "method": self.method,
            "certificate": self.certificate.to_dict(),
        }


def _tri(x, sense):
    """Sign test with a dead zone: True/False, or None when within tolerance
    of the threshold (borderline) or indeterminate."""
    if isinstance(x, LimitValue):
        x = x.as_float()
    x = float(x)
    if math.isnan(x):
        return None
    if sense == ">=":
        if x > TOL:
            return True
        if x < -TOL:
            return False
        return None
    if x < -TOL:
        return True
    if x > TOL:
        return False
    return None


def _and(*vals):
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


_FLIP_CLS = {
    CONSTANT: CONSTANT,
    INCREASING: DECREASING,
    DECREASING: INCREASING,
    UNIMODAL_MAX: UNIMODAL_MIN,
    UNIMODAL_MIN: UNIMODAL_MAX,
    N_MODAL: N_MODAL,
}


def _flip_shape(sh: ShapeReport) -> ShapeReport:
    modes = [Mode(m.location, "min" if m.kind == "max" else "max") for m in sh.modes]
    segs = [
        Segment(s.lo, s.hi, "decreasing" if s.direction == "increasing" else "increasing")
        for s in sh.segments
    ]
    return ShapeReport(_FLIP_CLS[sh.classification], modes=modes, segments=segs, plateaus=sh.plateaus)


class PairContext:
    """Shared per-pair cache: ratio shape, limits, mode values, oracle runs."""

    def __init__(self, X, Y, cfg: GridConfig, _shape=None):
        for m, name in ((X, "X"), (Y, "Y")):
            if not getattr(m, "supports_theorem_paths", True):
                raise ValidationError(
                    f"{name} has no smooth quantile density; only empirical diagnostics apply"
                )
            if m.support_lo < -1e-12:
                raise ValidationError(
                    f"{name} has negative support (lo={m.support_lo:g}); "
                    "the transform-order results assume non-negative variables"
                )
        self.X, self.Y, self.cfg = X, Y, cfg
        self._shape = _shape
        self._cache = {}

    # -- basic quantities ---------------------------------------------------

    def ratio(self, p):
        return ratio_qd(self.X, self.Y, p)

    def shape(self) -> ShapeReport:
        if self._shape is None:
            try:
                # the ratio's grid values are ratio_qd read off the two profiles
                px, py = self._profiles()
                self._shape = find_shape(self.ratio, self.cfg, py.qd / px.qd)
            except QorderError as exc:  # deterministic: every later call would fail alike
                self._shape = copy.copy(exc)
        if isinstance(self._shape, QorderError):
            # raise a copy: the stored failure must not get a traceback, whose
            # frames refer back to this context (a cycle only the collector frees)
            raise copy.copy(self._shape)
        return self._shape

    def _profiles(self):
        g = self.cfg
        return self.X.profile(g.n, g.p_min), self.Y.profile(g.n, g.p_min)

    def swap(self) -> "PairContext":
        # one-way: a back-link would make a cycle that outlives the models
        return self._memo(("swap",), lambda: PairContext(self.Y, self.X, self.cfg,
                                                         _shape=_flip_shape(self.shape())))

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def delta(self, p):
        return deltas.delta(self.X, self.Y, p)

    def delta_lim(self, end) -> LimitValue:
        return self._memo(("dlim", end), lambda: deltas.delta_limit(self.X, self.Y, end))

    def centered_lim(self, end) -> LimitValue:
        return self._memo(("clim", end), lambda: deltas.centered_delta_limit(self.X, self.Y, end))

    def ps_lim0(self) -> LimitValue:
        return self._memo(("pslim",), lambda: deltas.delta_ps_limit(self.X, self.Y, 0))

    def proportional(self):
        """True when G^-1 = c * F^-1 on the probe grid (delta identically 0)."""

        def probe():
            fx = self.X.profile(64, self.cfg.p_min).q
            gy = self.Y.profile(64, self.cfg.p_min).q
            c = gy[32] / fx[32]  # at the probe's middle
            scale = np.max(np.abs(gy)) + abs(c) * np.max(np.abs(fx))
            return bool(np.max(np.abs(gy - c * fx)) <= 1e-9 * max(scale, 1e-300))

        return self._memo(("prop",), probe)

    def quantile_ratio_shape(self) -> ShapeReport:
        def positive(fx):
            if np.any(np.asarray(fx) <= 0.0):
                raise DomainError("quantile ratio needs strictly positive F^-1")
            return fx

        def qr(p):
            fx = positive(self.X.quantile(p))
            return self.Y.quantile(p) / fx

        def build():
            # the grid values are qr read off the two profiles; qr refines the modes
            px, py = self._profiles()
            fx = positive(px.q)
            return find_shape(qr, self.cfg, py.q / fx)

        return self._memo(("qshape",), build)

    def oracle(self, order) -> GridVerdict:
        g = self.cfg
        return self._memo(("oracle", order), lambda: order_oracle(self.X, self.Y, order, g.n, g.p_min))


# ---------------------------------------------------------------------------
# condition helpers


def _limit_cond(conds, name, lim: LimitValue, sense):
    sat = _tri(lim, sense) if lim.is_determinate else None
    value = lim.as_float()
    conds.append(Condition(name, value if not math.isnan(value) else "indeterminate",
                           f"{sense} 0", sat))
    return sat


def _value_cond(conds, name, value, sense):
    sat = _tri(value, sense)
    conds.append(Condition(name, float(value), f"{sense} 0", sat))
    return sat


# ---------------------------------------------------------------------------
# star-shaped order


def _star_fwd(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    cls = sh.classification
    if cls == CONSTANT:
        return _value_cond(conds, tag + "delta_constant", ctx.delta(0.5), ">=")
    if cls == INCREASING:
        return _limit_cond(conds, tag + "lim_delta_0", ctx.delta_lim(0), ">=")
    if cls == DECREASING:
        return _limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), ">=")
    if cls == UNIMODAL_MAX:
        a = _limit_cond(conds, tag + "lim_delta_0", ctx.delta_lim(0), ">=")
        b = _limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), ">=")
        return _and(a, b)
    if cls == UNIMODAL_MIN:
        return _star_rev(ctx.swap(), conds, tag + "swapped.")
    # n-modal
    if sh.segments[0].direction == "decreasing":
        return _star_rev(ctx.swap(), conds, tag + "swapped.")
    modes = sh.modes
    n = len(modes)
    checks = [_limit_cond(conds, tag + "lim_delta_0", ctx.delta_lim(0), ">=")]
    for i in range(1, n, 2):  # even-indexed modes p_2, p_4, ... (1-based)
        checks.append(
            _value_cond(conds, tag + f"delta_at_p{i + 1}", ctx.delta(modes[i].location), ">=")
        )
    if n % 2 == 1:
        checks.append(_limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), ">="))
    return _and(*checks)


def _star_rev(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    cls = sh.classification
    if cls == CONSTANT:
        return _value_cond(conds, tag + "delta_constant", ctx.delta(0.5), "<=")
    if cls == INCREASING:
        return _limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), "<=")
    if cls == DECREASING:
        return _limit_cond(conds, tag + "lim_delta_0", ctx.delta_lim(0), "<=")
    if cls == UNIMODAL_MAX:
        pstar = sh.modes[0].location
        return _value_cond(conds, tag + "delta_at_pstar", ctx.delta(pstar), "<=")
    if cls == UNIMODAL_MIN:
        return _star_fwd(ctx.swap(), conds, tag + "swapped.")
    if sh.segments[0].direction == "decreasing":
        return _star_fwd(ctx.swap(), conds, tag + "swapped.")
    modes = sh.modes
    n = len(modes)
    checks = []
    if n % 2 == 0:
        checks.append(_limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), "<="))
    for i in range(0, n, 2):  # p_1, p_3, ... (1-based odd)
        checks.append(
            _value_cond(conds, tag + f"delta_at_p{i + 1}", ctx.delta(modes[i].location), "<=")
        )
    return _and(*checks)


# ---------------------------------------------------------------------------
# qmit order


def _qmit_fwd(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    cls = sh.classification
    if cls in (CONSTANT, INCREASING):
        conds.append(Condition(tag + "ratio_monotone", cls, "increasing ratio implies qmit", True))
        return True
    if cls == DECREASING:
        conds.append(Condition(tag + "ratio_monotone", cls, "decreasing ratio excludes forward qmit", False))
        return False
    if sh.modes[0].kind != "max":
        return None  # theorem hypothesis (first mode a maximum) not met
    modes = sh.modes
    n = len(modes)
    checks = []
    for i in range(1, n, 2):  # delta_qmit at p_2, p_4, ...
        checks.append(
            _value_cond(
                conds,
                tag + f"delta_qmit_at_p{i + 1}",
                deltas.delta_qmit(ctx.X, ctx.Y, modes[i].location),
                ">=",
            )
        )
    if n % 2 == 1:
        checks.append(_limit_cond(conds, tag + "lim_centered_delta_1", ctx.centered_lim(1), ">="))
    return _and(*checks)


# ---------------------------------------------------------------------------
# dmrl order


def _dmrl_fwd(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    cls = sh.classification
    if cls in (CONSTANT, INCREASING):
        conds.append(Condition(tag + "ratio_monotone", cls, "increasing ratio implies dmrl", True))
        return True
    if cls == DECREASING:
        conds.append(Condition(tag + "ratio_monotone", cls, "decreasing ratio excludes forward dmrl", False))
        return False
    if sh.modes[-1].kind != "min":
        return None  # theorem hypothesis (last mode a minimum) not met
    modes = sh.modes
    n = len(modes)
    checks = []
    if n % 2 == 0:
        picks = range(0, n, 2)  # delta_dmrl at p_1, p_3, ...
    else:
        picks = range(1, n, 2)  # delta_dmrl at p_2, p_4, ...
        checks.append(_limit_cond(conds, tag + "lim_centered_delta_0", ctx.centered_lim(0), ">="))
    for i in picks:
        checks.append(
            _value_cond(
                conds,
                tag + f"delta_dmrl_at_p{i + 1}",
                deltas.delta_dmrl(ctx.X, ctx.Y, modes[i].location),
                ">=",
            )
        )
    return _and(*checks)


# ---------------------------------------------------------------------------
# ps order


def _ps_fwd(ctx: PairContext, conds, star_fwd, tag=""):
    if star_fwd is True:
        conds.append(Condition(tag + "implied_by_star", "star holds", "star implies ps", True))
        return True
    sh = ctx.shape()
    if sh.classification == UNIMODAL_MIN:
        return _ps_rev(ctx.swap(), conds, None, tag + "swapped.")
    if sh.classification != UNIMODAL_MAX:
        return None
    a = _limit_cond(conds, tag + "lim_delta_0", ctx.delta_lim(0), "<=")
    b = _limit_cond(conds, tag + "lim_delta_1", ctx.delta_lim(1), ">=")
    c = _limit_cond(conds, tag + "lim_delta_ps_0", ctx.ps_lim0(), ">=")
    res = _and(a, b, c)
    # the case conditions are sufficient; their failure alone does not refute ps
    return True if res is True else None


def _ps_rev(ctx: PairContext, conds, star_rev, tag=""):
    if star_rev is True:
        conds.append(Condition(tag + "implied_by_star", "star holds reversed", "star implies ps", True))
        return True
    sh = ctx.shape()
    if sh.classification == UNIMODAL_MIN:
        return _ps_fwd(ctx.swap(), conds, None, tag + "swapped.")
    if sh.classification != UNIMODAL_MAX:
        return None
    lim0 = _tri(ctx.delta_lim(0), ">=")
    lim1 = _tri(ctx.delta_lim(1), "<=")
    ps0 = _tri(ctx.ps_lim0(), "<=")
    # case a: delta starts non-negative, ends negative
    case_a = _and(lim0, lim1, ps0)
    conds.append(Condition(tag + "case_a(lim0>=0, lim1<0, ps0<=0)",
                           "satisfied" if case_a is True else "not satisfied",
                           "sufficient for reversed ps", case_a))
    if case_a is True:
        return True
    # case b: both delta limits negative, positive spike at the ratio mode
    neg0 = _tri(ctx.delta_lim(0), "<=")
    neg1 = _tri(ctx.delta_lim(1), "<=")
    spike = _tri(ctx.delta(sh.modes[0].location), ">=")
    pieces = [neg0, neg1, spike, ps0]
    if _and(*pieces) is True:
        qsh = ctx.quantile_ratio_shape()
        mins = [m for m in qsh.modes if m.kind == "min"]
        if mins:
            p1 = mins[0].location
            eps_gap = deltas.eps(ctx.X, p1) - deltas.eps(ctx.Y, p1)
            sat = _value_cond(conds, tag + "eps_X_minus_eps_Y_at_p1", eps_gap, ">=")
            if sat is True:
                conds.append(Condition(tag + "case_b", "satisfied", "sufficient for reversed ps", True))
                return True
    return None


# ---------------------------------------------------------------------------
# verdict assembly


def _swapped(fwd):
    """Reversed direction: the forward check with the roles of X and Y exchanged."""
    return lambda ctx, conds: fwd(ctx.swap(), conds, "swapped.")


# the theorem stage: (forward, reverse) direction checks per order
_DIRECTIONS = {
    "star": (_star_fwd, _star_rev),
    "qmit": (_qmit_fwd, _swapped(_qmit_fwd)),
    "dmrl": (_dmrl_fwd, _swapped(_dmrl_fwd)),
}


def _directions(ctx: PairContext, order, conds):
    """Theorem verdict (fwd, rev) of star, qmit or dmrl; True/False, or None
    when undecided.  A direction whose numerics fail is None on its own, so
    the other direction keeps its theorem verdict."""
    out = []
    for check in _DIRECTIONS[order]:
        try:
            out.append(check(ctx, conds))
        except QorderError:
            out.append(None)
    return tuple(out)


def theorem_status(ctx: PairContext, order) -> str:
    """Status of star, qmit or dmrl from the theorem stage alone: no oracle
    fallback and no proportional shortcut, so an undecided direction leaves
    the status Inconclusive."""
    return _combine(*_directions(ctx, order, []))


def _oracle_directions(gv: GridVerdict):
    if gv.status == "Increasing":
        return True, False
    if gv.status == "Decreasing":
        return False, True
    if gv.status == "Constant":
        return True, True
    return False, False  # Mixed: violations in both directions exceed tolerance


def _oracle_cond(order, gv: GridVerdict, prefix=""):
    return Condition(f"oracle_{order}", gv.status, f"{prefix}n={gv.n}, margin {gv.margin:.3g}", None)


def _combine(fwd, rev):
    if fwd is True and rev is True:
        return EQUIVALENT
    if fwd is True:
        return HOLDS
    if rev is True:
        return HOLDS_REVERSED
    if fwd is False and rev is False:
        return BOTH_FAIL
    return INCONCLUSIVE


def _finish(ctx, order, theorem, fwd, rev, conds):
    method = "theorem"
    if fwd is None or rev is None:
        gv = ctx.oracle(order)
        conds.append(_oracle_cond(order, gv, "grid monotonicity at "))
        of, orv = _oracle_directions(gv)
        # oracle margins are >= ORACLE_REL_TOL = TOL by construction: true only by last-bit rounding
        if gv.status != "Mixed" and gv.margin < TOL and gv.status != "Constant":
            of = orv = None  # margin too thin to trust
        if fwd is None:
            fwd, method = of, "numeric-fallback"
        if rev is None:
            rev, method = orv, "numeric-fallback"
    cert = Certificate(theorem, conds)
    return OrderVerdict(order, _combine(fwd, rev), method, cert)


def _equivalent_verdict(order, theorem):
    cert = Certificate(theorem, [Condition("delta_identically_zero", 0.0,
                                           "G^-1 = c F^-1 on the probe grid", True)])
    return OrderVerdict(order, EQUIVALENT, "theorem", cert)


def _ctx(X, Y, cfg):
    return PairContext(X, Y, cfg or GridConfig())


def check_convex(X, Y, cfg=None, ctx=None):
    ctx = ctx or _ctx(X, Y, cfg)
    if ctx.proportional():
        return _equivalent_verdict("convex", "constant quantile-density ratio")
    conds = []
    try:
        cls = ctx.shape().classification
    except TooOscillatoryError as exc:
        cert = Certificate("quantile-density ratio monotonicity",
                           [Condition("ratio_shape", "too oscillatory", str(exc), None)])
        return OrderVerdict("convex", INCONCLUSIVE, "theorem", cert)
    conds.append(Condition("ratio_shape", cls, "monotone ratio decides convex", None))
    fwd = cls in (CONSTANT, INCREASING)
    rev = cls in (CONSTANT, DECREASING)
    cert = Certificate("quantile-density ratio monotonicity (definition)", conds)
    return OrderVerdict("convex", _combine(fwd, rev), "theorem", cert)


# certificate theorem of each order the theorem stage decides
_THEOREMS = {
    "star": "delta sign characterization at modes and endpoints",
    "qmit": "delta_qmit non-negativity at even modes plus endpoint limit",
    "dmrl": "delta_dmrl non-negativity at designated modes plus endpoint limit",
}


def _check(order, X, Y, cfg, ctx):
    ctx = ctx or _ctx(X, Y, cfg)
    if order in ("qmit", "dmrl"):  # their conditions integrate against the means
        deltas.finite_mean(X), deltas.finite_mean(Y)
    if ctx.proportional():
        return _equivalent_verdict(order, "proportional quantiles")
    conds = []
    fwd, rev = _directions(ctx, order, conds)
    return _finish(ctx, order, _THEOREMS[order], fwd, rev, conds)


def check_star(X, Y, cfg=None, ctx=None):
    return _check("star", X, Y, cfg, ctx)


def check_qmit(X, Y, cfg=None, ctx=None):
    return _check("qmit", X, Y, cfg, ctx)


def check_dmrl(X, Y, cfg=None, ctx=None):
    return _check("dmrl", X, Y, cfg, ctx)


def check_ps(X, Y, cfg=None, ctx=None, star_verdict: OrderVerdict | None = None):
    ctx = ctx or _ctx(X, Y, cfg)
    ex, ey = deltas.finite_mean(X), deltas.finite_mean(Y)
    if ex <= 0.0 or ey <= 0.0:
        raise DomainError("ps order requires strictly positive means")
    if ctx.proportional():
        return _equivalent_verdict("ps", "proportional quantiles (EPS is scale invariant)")
    if star_verdict is None:
        star_verdict = check_star(X, Y, ctx=ctx)
    star_fwd = star_verdict.status in (HOLDS, EQUIVALENT)
    star_rev = star_verdict.status in (HOLDS_REVERSED, EQUIVALENT)
    conds = []
    try:
        fwd = _ps_fwd(ctx, conds, star_fwd)
        rev = _ps_rev(ctx, conds, star_rev)
    except TooOscillatoryError:
        fwd = rev = None
    verdict = _finish(ctx, "ps", "endpoint limits of delta and delta_ps (unimodal-ratio cases)",
                      fwd, rev, conds)
    if verdict.status in (HOLDS, EQUIVALENT) and star_fwd and fwd is True:
        verdict.method = "implication"  # conds[0] is implied_by_star
    return verdict


def _nbue_from(ctx: PairContext, verdicts: dict, zero_left_support: bool):
    sources = [verdicts[o] for o in ("star", "dmrl", "ps")]
    fwd = any(v.status in (HOLDS, EQUIVALENT) for v in sources)
    rev = any(v.status in (HOLDS_REVERSED, EQUIVALENT) for v in sources)
    conds = [
        Condition(f"{v.order}_status", v.status, "nbue follows from star, dmrl or ps", None)
        for v in sources
    ]
    if (fwd or rev) and not zero_left_support:  # the implications need lifetimes starting at 0
        deltas.finite_mean(ctx.X), deltas.finite_mean(ctx.Y)
        conds.append(Condition("left_support_endpoint", max(ctx.X.support_lo, ctx.Y.support_lo),
                               "= 0 for star, dmrl, ps => nbue", False))
        return _finish(ctx, "nbue", "dense-grid check of the definition", None, None, conds)
    # there is no direct nbue decision procedure; a direction no stronger
    # order propagates stays undecided, never False
    return OrderVerdict("nbue", _combine(fwd or None, rev or None), "implication",
                        Certificate("implication from stronger orders", conds))


_EDGES = (
    ("convex", "qmit", True),   # support-independent
    ("convex", "dmrl", True),
    ("qmit", "star", False),    # requires zero left support endpoints
    ("star", "ps", False),
    ("dmrl", "nbue", False),
    ("ps", "nbue", False),
)


def _check_implications(verdicts: dict, zero_left_support: bool):
    problems = []
    for a, b, always in _EDGES:
        va, vb = verdicts[a], verdicts[b]
        fwd_bad = va.status in (HOLDS, EQUIVALENT) and vb.status in (HOLDS_REVERSED, BOTH_FAIL)
        rev_bad = va.status in (HOLDS_REVERSED, EQUIVALENT) and vb.status in (HOLDS, BOTH_FAIL)
        if fwd_bad or rev_bad:
            msg = f"{a}={va.status} but {b}={vb.status}"
            if always or zero_left_support:
                problems.append(msg)
            else:
                vb.certificate.notes.append(
                    f"implication {a} => {b} not applicable: left support endpoints are positive ({msg})"
                )
    if problems:
        raise InternalConsistencyError("implication diagram violated: " + "; ".join(problems))


def compare_all(X, Y, cfg: GridConfig | None = None, method: str = "theorem"):
    """Run every order check on the pair and derive nbue by implication.

    method "theorem" runs the certified path (with its internal oracle
    fallbacks), "oracle" classifies every order straight from the grid
    definitions, "both" runs the two and raises on any disagreement between
    determinate statuses.
    """
    if method not in ("theorem", "oracle", "both"):
        raise ValidationError(f"unknown method {method!r}")
    ctx = _ctx(X, Y, cfg)
    results = {}
    if method in ("theorem", "both"):
        results["theorem"] = _compare_theorem(ctx)
    if method in ("oracle", "both"):
        results["oracle"] = _compare_oracle(ctx)  # reuses the fallbacks' grid verdicts
    if method == "both":
        _require_agreement(results["theorem"], results["oracle"])
    return results.get("theorem") or results["oracle"]


def _compare_theorem(ctx: PairContext):
    X, Y, cfg = ctx.X, ctx.Y, ctx.cfg
    verdicts = {}
    verdicts["convex"] = check_convex(X, Y, ctx=ctx)

    def mean_guarded(name, fn, *args, **kw):
        try:
            return fn(*args, **kw)
        except NonFiniteMeanError as exc:
            cert = Certificate("not run", [Condition("finite_mean", "missing", str(exc), False)])
            return OrderVerdict(name, INCONCLUSIVE, "theorem", cert)

    verdicts["qmit"] = mean_guarded("qmit", check_qmit, X, Y, ctx=ctx)
    verdicts["dmrl"] = mean_guarded("dmrl", check_dmrl, X, Y, ctx=ctx)
    verdicts["star"] = check_star(X, Y, ctx=ctx)
    verdicts["ps"] = mean_guarded("ps", check_ps, X, Y, ctx=ctx, star_verdict=verdicts["star"])
    zero_left = abs(X.support_lo) <= 1e-12 and abs(Y.support_lo) <= 1e-12
    verdicts["nbue"] = mean_guarded("nbue", _nbue_from, ctx, verdicts, zero_left)
    _check_implications(verdicts, zero_left)
    return [verdicts[o] for o in ORDERS]


def _compare_oracle(ctx: PairContext):
    out = []
    for order in ORDERS:
        gv = ctx.oracle(order)
        cert = Certificate("dense-grid check of the definition", [_oracle_cond(order, gv)])
        out.append(OrderVerdict(order, _combine(*_oracle_directions(gv)), "numeric-fallback", cert))
    return out


def _require_agreement(theorem_v, oracle_v):
    mismatches = []
    for tv, ov in zip(theorem_v, oracle_v):
        if INCONCLUSIVE in (tv.status, ov.status):
            continue
        if tv.status != ov.status:
            mismatches.append(f"{tv.order}: theorem={tv.status} oracle={ov.status}")
    if mismatches:
        raise InternalConsistencyError("theorem/oracle disagreement: " + "; ".join(mismatches))


# ---------------------------------------------------------------------------
# quantile-ratio shape prediction (unimodal-ratio case analysis)


@dataclass(frozen=True)
class QuantileRatioPrediction:
    case: str  # "1" | "2" | "3" | "4a" | "4b" | "indeterminate"
    directions: tuple  # predicted monotone segments of G^-1/F^-1, left to right

    def to_dict(self):
        return {"case": self.case, "directions": list(self.directions)}


def predict_quantile_ratio_shape(X, Y, cfg: GridConfig | None = None):
    """Predict the segmentation of G^-1/F^-1 from the endpoint limits of delta,
    assuming the quantile-density ratio is increasing-then-decreasing."""
    ctx = _ctx(X, Y, cfg)
    sh = ctx.shape()
    if sh.classification != UNIMODAL_MAX:
        raise HypothesisError(
            f"ratio shape is {sh.classification}; the case analysis needs a single maximum "
            "(use the n-modal mode-counting path instead)"
        )
    lim0, lim1 = ctx.delta_lim(0), ctx.delta_lim(1)
    if not (lim0.is_determinate and lim1.is_determinate):
        return QuantileRatioPrediction("indeterminate", ())
    a = lim0.as_float() >= 0.0
    b = lim1.as_float() >= 0.0
    if a and b:
        return QuantileRatioPrediction("1", ("increasing",))
    if a and not b:
        return QuantileRatioPrediction("2", ("increasing", "decreasing"))
    if not a and b:
        return QuantileRatioPrediction("3", ("decreasing", "increasing"))
    if ctx.delta(sh.modes[0].location) <= 0.0:
        return QuantileRatioPrediction("4a", ("decreasing",))
    return QuantileRatioPrediction("4b", ("decreasing", "increasing", "decreasing"))
