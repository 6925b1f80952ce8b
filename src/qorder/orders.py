"""Certified verdicts for the transform orders.

Each check applies the sharpest available characterization for the observed
shape of the quantile-density ratio, records every evaluated condition in a
certificate, and falls back to the dense-grid oracle whenever the theorem path
is silent, borderline, or its endpoint limits are indeterminate.  Star, qmit
and dmrl are decided by one rule read from a table with one row per order and
direction.  The reversed qmit and dmrl directions are the forward rows on the
swapped pair (Y, X), whose ratio is the reciprocal; star has a row of its own
for each direction and swaps the models only when the ratio's first mode is a
minimum.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    NonFiniteMeanError,
    QorderError,
    TooOscillatoryError,
    ValidationError,
)
from .limits import LimitValue
from .models import QuantileModel
from .oracle import GridVerdict, curve, order_oracle
from .shape import (
    CONSTANT,
    DECREASING,
    INCREASING,
    N_MODAL,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    Mode,
    ShapeReport,
    find_shape,
    find_shapes,
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
    "PairContext",
    "check_convex",
    "check_star",
    "check_qmit",
    "check_dmrl",
    "check_ps",
    "compare_all",
    "segment_ratios",
    "sign_test",
    "theorem_status",
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


@dataclass
class Certificate:
    theorem: str
    conditions: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class OrderVerdict:
    order: str
    status: str
    method: str  # "theorem" | "numeric-fallback" | "implication"
    certificate: Certificate


def sign_test(x, sense):
    """Whether x >= 0 (sense ">=") or x <= 0 (sense "<=") holds, with a dead
    zone: True/False, or None when x is within TOL of 0 (borderline) or NaN
    (indeterminate)."""
    x = float(x)  # NaN passes neither test
    if x > TOL:
        return sense == ">="
    if x < -TOL:
        return sense != ">="
    return None


def _and(*vals):
    if False in vals:
        return False
    if None in vals:
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
    return ShapeReport(_FLIP_CLS[sh.classification], modes)


def _end_run(sh: ShapeReport, end):
    """The direction of a non-constant ratio's monotone run at end 0 or 1: it
    rises into its first mode if that is a max, and falls out of its last mode
    if that is a max; without modes it runs as its class."""
    if not sh.modes:
        return "increasing" if sh.classification == INCREASING else "decreasing"
    rises = sh.modes[-1 if end else 0].kind == ("min" if end else "max")
    return "increasing" if rises else "decreasing"


class PairContext:
    """Shared per-pair cache on logit_grid(n): ratio shape, limits, mode values, oracle runs."""

    def __init__(self, X, Y, n=4096, _shape=None):
        if not isinstance(n, numbers.Integral):
            raise ValidationError(f"grid size must be an integer, got {n!r}")
        if n < 3:  # the ratio's shape needs two grid steps
            raise ValidationError(f"grid size must be at least 3, got {n}")
        for m, name in ((X, "X"), (Y, "Y")):
            if not isinstance(m, QuantileModel):
                raise ValidationError(
                    f"{name} has no smooth quantile density; only empirical diagnostics apply"
                )
            if m.support_lo < -1e-12:
                raise ValidationError(
                    f"{name} has negative support (lo={m.support_lo:g}); "
                    "the transform-order results assume non-negative variables"
                )
        self._set(X, Y, n, _shape)

    def _set(self, X, Y, n, shape):
        self.X, self.Y, self.n = X, Y, n
        self._shape = shape
        self._cache = {}

    # -- basic quantities ---------------------------------------------------

    def ratio(self, p):
        return deltas.ratio_qd(self.X, self.Y, p)

    def shape(self) -> ShapeReport:
        if self._shape is None:
            segment_ratios([self])
        if isinstance(self._shape, QorderError):
            # raise a copy: the stored failure must not get a traceback, whose
            # frames refer back to this context (a cycle only the collector frees)
            raise copy.copy(self._shape)
        return self._shape

    def _profiles(self):
        return self.X.profile(self.n), self.Y.profile(self.n)

    def swap(self) -> "PairContext":
        def build():
            # __init__'s checks are symmetric in X and Y, and this pair passed them
            ctx = object.__new__(PairContext)
            ctx._set(self.Y, self.X, self.n, _flip_shape(self.shape()))
            return ctx

        # one-way: a back-link would make a cycle that outlives the models
        return self._memo(("swap",), build)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def delta(self, p):
        return deltas.delta(self.X, self.Y, p)

    def limit(self, name, end) -> LimitValue:
        """deltas.endpoint_limit of the function ``name`` on this pair, kept."""
        return self._memo(("limit", name, end),
                          lambda: deltas.endpoint_limit(name, self.X, self.Y, end))

    def proportional(self):
        """True when G^-1 = c * F^-1 on the pair's grid (delta identically 0)."""

        def probe():
            fx, gy = (prof.q for prof in self._profiles())
            c = gy[self.n // 2] / fx[self.n // 2]  # at the grid's middle
            scale = np.max(np.abs(gy)) + abs(c) * np.max(np.abs(fx))
            return bool(np.max(np.abs(gy - c * fx)) <= 1e-9 * max(scale, 1e-300))

        return self._memo(("prop",), probe)

    def quantile_ratio_shape(self) -> ShapeReport:
        def positive(fx):
            # a scalar refinement call compares its float; the grid tests its array
            if fx <= 0.0 if type(fx) is float else np.any(np.asarray(fx) <= 0.0):
                raise DomainError("quantile ratio needs strictly positive F^-1")
            return fx

        def qr(p):
            fx = positive(self.X.quantile(p))
            return self.Y.quantile(p) / fx

        def build():
            # the grid values are the quantile_ratio curve; qr refines the modes
            px, py = self._profiles()
            positive(px.q)
            return find_shape(qr, self.n, curve("quantile_ratio", px, py))

        return self._memo(("qshape",), build)

    def oracle(self, order) -> GridVerdict:
        return self._memo(("oracle", order), lambda: order_oracle(self.X, self.Y, order, self.n))


def segment_ratios(contexts):
    """Give every context that has none yet its ratio shape, from one find_shapes
    scan of all their ratios.  The contexts share one grid size; the ratio's grid
    values are the ratio_qd curve of each context's two profiles, so contexts that
    share X read its quantile density once.  A context whose profiles or
    segmentation fail keeps that failure, which its shape() raises."""
    todo = [ctx for ctx in contexts if ctx._shape is None]
    if not todo:
        return
    n = todo[0].n
    if any(ctx.n != n for ctx in todo):
        raise ValidationError("segment_ratios needs contexts of one grid size")
    values, rows = [], []
    for ctx in todo:
        try:
            values.append(curve("ratio_qd", *ctx._profiles()))
        except QorderError as exc:  # deterministic: every later call would fail alike
            ctx._shape = copy.copy(exc)
        else:
            rows.append(ctx)
    shapes = find_shapes([ctx.ratio for ctx in rows], n, np.reshape(values, (len(rows), n)))
    for ctx, sh in zip(rows, shapes):
        # a stored failure gets no traceback, whose frames would refer back to the context
        ctx._shape = copy.copy(sh) if isinstance(sh, QorderError) else sh


# ---------------------------------------------------------------------------
# condition helpers


def _limit_cond(conds, lim: LimitValue, sense, name, *args):
    """Sign of the limit lim, recorded in conds as the condition named
    name % args.  conds is None when the caller keeps no certificate: then
    nothing is recorded and the name is never formatted."""
    sat = sign_test(lim.x, sense)
    if conds is not None:
        value = lim.x
        conds.append(Condition(name % args, value if not math.isnan(value) else "indeterminate",
                               f"{sense} 0", sat))
    return sat


def _value_cond(conds, value, sense, name, *args):
    """Sign of value, recorded in conds as _limit_cond records a limit."""
    sat = sign_test(value, sense)
    if conds is not None:
        conds.append(Condition(name % args, float(value), f"{sense} 0", sat))
    return sat


# ---------------------------------------------------------------------------
# theorem stage of star, qmit and dmrl


@dataclass(frozen=True)
class _Rule:
    """One direction of the star, qmit or dmrl theorem.

    ``steps`` are read in order, each appending its condition: (end,
    direction) reads the endpoint limit of the function ``limit`` of deltas
    ("delta" or "centered_delta") at that end when the ratio's run there
    goes in that direction (_end_run); "min" or "max" reads the function
    ``delta`` of deltas at every mode of that kind.  Each is tested with ``sense``.  ``hypothesis`` is the
    (index, kind) of the mode the theorem needs; when it is unmet, the
    direction is the other one on the swapped pair if ``swap``, else
    undecided.  With ``ratio_monotone`` a monotone ratio decides it outright."""

    delta: str
    limit: str
    sense: str
    hypothesis: tuple
    steps: tuple
    swap: bool
    ratio_monotone: bool


# the theorem stage: one row per (order, direction)
_RULES = {
    ("star", "fwd"): _Rule("delta", "delta", ">=", (0, "max"),
                           ((0, "increasing"), "min", (1, "decreasing")),
                           swap=True, ratio_monotone=False),
    ("star", "rev"): _Rule("delta", "delta", "<=", (0, "max"),
                           ((0, "decreasing"), (1, "increasing"), "max"),
                           swap=True, ratio_monotone=False),
    ("qmit", "fwd"): _Rule("delta_qmit", "centered_delta", ">=", (0, "max"),
                           ("min", (1, "decreasing")),
                           swap=False, ratio_monotone=True),
    ("dmrl", "fwd"): _Rule("delta_dmrl", "centered_delta", ">=", (-1, "min"),
                           ((0, "decreasing"), "max"),
                           swap=False, ratio_monotone=True),
}


def _apply(ctx: PairContext, order, direction, conds, tag=""):
    """Theorem verdict of one direction ("fwd" or "rev"): True/False, or None
    when undecided.  Each condition joins conds as soon as it is read; with
    conds None the same conditions are read and none is recorded."""
    if direction == "rev" and (order, "rev") not in _RULES:  # qmit and dmrl: fwd on (Y, X)
        return _apply(ctx.swap(), order, "fwd", conds, tag + "swapped.")
    rule = _RULES[order, direction]
    sh = ctx.shape()
    cls = sh.classification
    if rule.ratio_monotone and cls in (CONSTANT, INCREASING, DECREASING):
        holds = cls != DECREASING
        if conds is not None:
            text = (f"increasing ratio implies {order}" if holds
                    else f"decreasing ratio excludes forward {order}")
            conds.append(Condition(tag + "ratio_monotone", cls, text, holds))
        return holds
    if cls == CONSTANT:
        return _value_cond(conds, getattr(deltas, rule.delta)(ctx.X, ctx.Y, 0.5), rule.sense,
                           "%s%s_constant", tag, rule.delta)
    at, kind = rule.hypothesis
    if sh.modes and sh.modes[at].kind != kind:
        if not rule.swap:
            return None
        other = "rev" if direction == "fwd" else "fwd"
        return _apply(ctx.swap(), order, other, conds, tag + "swapped.")
    checks = []
    for step in rule.steps:
        if isinstance(step, str):  # delta at every mode of this kind
            delta = getattr(deltas, rule.delta)
            for k, m in enumerate(sh.modes, 1):
                if m.kind == step:
                    checks.append(_value_cond(conds, delta(ctx.X, ctx.Y, m.location), rule.sense,
                                              "%s%s_at_p%s", tag, rule.delta,
                                              "star" if len(sh.modes) == 1 else k))
            continue
        end, run = step
        if _end_run(sh, end) == run:
            checks.append(_limit_cond(conds, ctx.limit(rule.limit, end), rule.sense,
                                      "%slim_%s_%d", tag, rule.limit, end))
    return _and(*checks)


def _contained(decide, *args):
    """decide(*args), a theorem direction, or None when its numerics fail: a
    failed direction is undecided on its own, and the other keeps its verdict."""
    try:
        return decide(*args)
    except QorderError:
        return None


def _directions(ctx: PairContext, order, conds):
    """Theorem verdict (fwd, rev) of star, qmit or dmrl; True/False, or None
    when undecided.  conds collects the certificate's conditions, or is None
    when no certificate is kept."""
    return _contained(_apply, ctx, order, "fwd", conds), _contained(_apply, ctx, order, "rev", conds)


# ---------------------------------------------------------------------------
# ps order


def _ps_fwd(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    if sh.classification == UNIMODAL_MIN:
        return _ps_rev(ctx.swap(), conds, tag + "swapped.")
    if sh.classification != UNIMODAL_MAX:
        return None
    a = _limit_cond(conds, ctx.limit("delta", 0), "<=", "%slim_delta_0", tag)
    b = _limit_cond(conds, ctx.limit("delta", 1), ">=", "%slim_delta_1", tag)
    c = _limit_cond(conds, ctx.limit("delta_ps", 0), ">=", "%slim_delta_ps_0", tag)
    # the case conditions are sufficient; their failure alone does not refute ps
    return True if _and(a, b, c) is True else None


def _ps_rev(ctx: PairContext, conds, tag=""):
    sh = ctx.shape()
    if sh.classification == UNIMODAL_MIN:
        return _ps_fwd(ctx.swap(), conds, tag + "swapped.")
    if sh.classification != UNIMODAL_MAX:
        return None
    delta0 = ctx.limit("delta", 0).x
    lim0 = sign_test(delta0, ">=")
    lim1 = sign_test(ctx.limit("delta", 1).x, "<=")
    ps0 = sign_test(ctx.limit("delta_ps", 0).x, "<=")
    # case a: delta starts non-negative, ends negative
    case_a = _and(lim0, lim1, ps0)
    conds.append(Condition(tag + "case_a(lim0>=0, lim1<0, ps0<=0)",
                           "satisfied" if case_a is True else "not satisfied",
                           "sufficient for reversed ps", case_a))
    if case_a is True:
        return True
    # case b: both delta limits negative (lim1 tests delta's limit at 1 <= 0
    # already), positive spike at the ratio mode
    spike = sign_test(ctx.delta(sh.modes[0].location), ">=")
    if _and(sign_test(delta0, "<="), lim1, spike, ps0) is not True:
        return None
    mins = [m.location for m in ctx.quantile_ratio_shape().modes if m.kind == "min"]
    if not mins:
        return None
    eps_gap = deltas.eps(ctx.X, mins[0]) - deltas.eps(ctx.Y, mins[0])
    if _value_cond(conds, eps_gap, ">=", "%seps_X_minus_eps_Y_at_p1", tag) is not True:
        return None
    conds.append(Condition(tag + "case_b", "satisfied", "sufficient for reversed ps", True))
    return True


# ---------------------------------------------------------------------------
# verdict assembly


def theorem_status(ctx: PairContext, order) -> str:
    """Status of star, qmit or dmrl from the theorem stage alone: no oracle
    fallback and no proportional shortcut, so an undecided direction leaves
    the status Inconclusive."""
    if (order, "fwd") not in _RULES:
        raise ValidationError(f"theorem_status decides star, qmit or dmrl, got {order!r}")
    return _combine(*_directions(ctx, order, None))


def _oracle_directions(gv: GridVerdict):
    # Mixed gives neither: violations in both directions exceed tolerance
    return gv.status in (CONSTANT, INCREASING), gv.status in (CONSTANT, DECREASING)


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


def _finish(order, theorem, conds, fwd, rev, ctx=None, method="theorem"):
    """The verdict of order from its directions fwd and rev (True/False, or None
    when undecided), certified by theorem and the conditions conds.  Given the
    pair's context ctx, a direction left None is the grid oracle's, recorded
    in conds, and the method is "numeric-fallback"; without it, it stays None."""
    if ctx is not None and (fwd is None or rev is None):
        gv = ctx.oracle(order)
        conds.append(_oracle_cond(order, gv, "grid monotonicity at "))
        of, orv = _oracle_directions(gv)
        if fwd is None:
            fwd, method = of, "numeric-fallback"
        if rev is None:
            rev, method = orv, "numeric-fallback"
    return OrderVerdict(order, _combine(fwd, rev), method, Certificate(theorem, conds))


def _equivalent_verdict(order, theorem):
    return _finish(order, theorem, [Condition("delta_identically_zero", 0.0,
                                              "G^-1 = c F^-1 on the probe grid", True)],
                   True, True)


def check_convex(ctx: PairContext):
    if ctx.proportional():
        return _equivalent_verdict("convex", "constant quantile-density ratio")
    try:
        cls = ctx.shape().classification
    except TooOscillatoryError as exc:
        return _finish("convex", "quantile-density ratio monotonicity",
                       [Condition("ratio_shape", "too oscillatory", str(exc), None)], None, None)
    return _finish("convex", "quantile-density ratio monotonicity (definition)",
                   [Condition("ratio_shape", cls, "monotone ratio decides convex", None)],
                   cls in (CONSTANT, INCREASING), cls in (CONSTANT, DECREASING))


# certificate theorem of each order the theorem stage decides
_THEOREMS = {
    "star": "delta sign characterization at modes and endpoints",
    "qmit": "delta_qmit non-negativity at even modes plus endpoint limit",
    "dmrl": "delta_dmrl non-negativity at designated modes plus endpoint limit",
}


def _check(order, ctx: PairContext):
    if order in ("qmit", "dmrl"):  # their conditions integrate against the means
        deltas.finite_mean(ctx.X), deltas.finite_mean(ctx.Y)
    if ctx.proportional():
        return _equivalent_verdict(order, "proportional quantiles")
    conds = []
    fwd, rev = _directions(ctx, order, conds)
    return _finish(order, _THEOREMS[order], conds, fwd, rev, ctx)


def check_star(ctx: PairContext):
    return _check("star", ctx)


def check_qmit(ctx: PairContext):
    return _check("qmit", ctx)


def check_dmrl(ctx: PairContext):
    return _check("dmrl", ctx)


def check_ps(ctx: PairContext, star: OrderVerdict):
    ex, ey = deltas.finite_mean(ctx.X), deltas.finite_mean(ctx.Y)
    if ex <= 0.0 or ey <= 0.0:
        raise DomainError("ps order requires strictly positive means")
    if ctx.proportional():
        return _equivalent_verdict("ps", "proportional quantiles (EPS is scale invariant)")
    star_fwd = star.status in (HOLDS, EQUIVALENT)
    conds = []

    def direction(star_holds, label, case):
        if star_holds:  # star implies ps wherever the quantiles are positive
            conds.append(Condition("implied_by_star", label, "star implies ps", True))
            return True
        return _contained(case, ctx, conds)

    fwd = direction(star_fwd, "star holds", _ps_fwd)
    rev = direction(star.status in (HOLDS_REVERSED, EQUIVALENT), "star holds reversed", _ps_rev)
    verdict = _finish("ps", "endpoint limits of delta and delta_ps (unimodal-ratio cases)",
                      conds, fwd, rev, ctx)
    if star_fwd:  # fwd is True, so the status is Holds or Equivalent
        verdict.method = "implication"  # conds[0] is implied_by_star
    return verdict


def _nbue_from(ctx: PairContext, verdicts: dict, zero_left_support: bool):
    deltas.finite_mean(ctx.X), deltas.finite_mean(ctx.Y)  # nbue compares the means
    sources = [verdicts[o] for o in ("star", "dmrl", "ps")]
    fwd = any(v.status in (HOLDS, EQUIVALENT) for v in sources)
    rev = any(v.status in (HOLDS_REVERSED, EQUIVALENT) for v in sources)
    conds = [
        Condition(f"{v.order}_status", v.status, "nbue follows from star, dmrl or ps", None)
        for v in sources
    ]
    if (fwd or rev) and not zero_left_support:  # the implications need lifetimes starting at 0
        conds.append(Condition("left_support_endpoint", max(ctx.X.support_lo, ctx.Y.support_lo),
                               "= 0 for star, dmrl, ps => nbue", False))
        return _finish("nbue", "dense-grid check of the definition", conds, None, None, ctx)
    # there is no direct nbue decision procedure; a direction no stronger
    # order propagates stays undecided, never False
    return _finish("nbue", "implication from stronger orders", conds, fwd or None, rev or None,
                   method="implication")


# (a, b, whether a => b holds on any support; else it needs lifetimes from 0).
# star => ps needs only positive quantiles, as EPS(p) = int_p^1 Q(q)/Q(p) dq - (1 - p)
# does: Q_Y(q)/Q_Y(p) >= Q_X(q)/Q_X(p) for q >= p gives EPS_Y >= EPS_X
_EDGES = (
    ("convex", "qmit", True),
    ("convex", "dmrl", True),
    ("qmit", "star", False),
    ("star", "ps", True),
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


def compare_all(X, Y, n=4096, method: str = "theorem"):
    """Run every order check on the pair and derive nbue by implication.

    method "theorem" runs the certified path (with its internal oracle
    fallbacks), "oracle" classifies every order straight from the grid
    definitions, "both" runs the two and raises on any disagreement between
    determinate statuses.
    """
    if method not in ("theorem", "oracle", "both"):
        raise ValidationError(f"unknown method {method!r}")
    ctx = PairContext(X, Y, n)
    results = {}
    if method in ("theorem", "both"):
        results["theorem"] = _compare_theorem(ctx)
    if method in ("oracle", "both"):
        results["oracle"] = _compare_oracle(ctx)  # reuses the fallbacks' grid verdicts
    if method == "both":
        _require_agreement(results["theorem"], results["oracle"])
    return results.get("theorem") or results["oracle"]


def _compare_theorem(ctx: PairContext):
    verdicts = {"convex": check_convex(ctx)}

    def mean_guarded(name, fn, *args):
        try:
            return fn(*args)
        except NonFiniteMeanError as exc:
            return _finish(name, "not run", [Condition("finite_mean", "missing", str(exc), False)],
                           None, None)

    verdicts["qmit"] = mean_guarded("qmit", check_qmit, ctx)
    verdicts["dmrl"] = mean_guarded("dmrl", check_dmrl, ctx)
    verdicts["star"] = check_star(ctx)
    verdicts["ps"] = mean_guarded("ps", check_ps, ctx, verdicts["star"])
    zero_left = abs(ctx.X.support_lo) <= 1e-12 and abs(ctx.Y.support_lo) <= 1e-12
    verdicts["nbue"] = mean_guarded("nbue", _nbue_from, ctx, verdicts, zero_left)
    _check_implications(verdicts, zero_left)
    return [verdicts[o] for o in ORDERS]


def _compare_oracle(ctx: PairContext):
    out = []
    for order in ORDERS:
        gv = ctx.oracle(order)
        out.append(_finish(order, "dense-grid check of the definition", [_oracle_cond(order, gv)],
                           *_oracle_directions(gv), method="numeric-fallback"))
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
