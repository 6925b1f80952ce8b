"""One-sided endpoint limits on (0,1).

A limit is either supplied analytically (closed-form tails of the built-in
families, composed by extended-real arithmetic) or classified numerically by
evaluating at geometrically shrinking distances from the endpoint and
extrapolating.  Indeterminate is a value, not an error: callers fall back to
their numeric-oracle path when they see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "LimitValue",
    "limit_at",
    "ratio_qd_tail",
    "delta_tail_hint",
    "centered_delta_tail_hint",
    "delta_ps_tail_hint",
]

FINITE = "finite"
PLUS_INF = "+inf"
MINUS_INF = "-inf"
INDETERMINATE = "indeterminate"

_CAUCHY_REL = 1e-9
_DIVERGE_MAG = 1e12


@dataclass(frozen=True)
class LimitValue:
    kind: str
    value: float | None = None
    method: str = "extrapolation"  # "analytic-hint" | "extrapolation"
    diagnostics: list = field(default_factory=list)

    @staticmethod
    def finite(value, method="extrapolation", diagnostics=()):
        return LimitValue(FINITE, float(value), method, list(diagnostics))

    @staticmethod
    def infinite(sign, method="extrapolation", diagnostics=()):
        return LimitValue(PLUS_INF if sign > 0 else MINUS_INF, None, method, list(diagnostics))

    @staticmethod
    def indeterminate(diagnostics=()):
        return LimitValue(INDETERMINATE, None, "extrapolation", list(diagnostics))

    @staticmethod
    def from_extended(x):
        """Build from an extended real (float, may be +-inf); None stays None."""
        if x is None:
            return None
        if math.isinf(x):
            return LimitValue.infinite(1 if x > 0 else -1, "analytic-hint")
        return LimitValue.finite(x, "analytic-hint")

    @property
    def is_determinate(self):
        return self.kind != INDETERMINATE

    def as_float(self):
        """Extended-real view: finite value, +-inf, or NaN when indeterminate."""
        if self.kind == FINITE:
            return self.value
        if self.kind == PLUS_INF:
            return math.inf
        if self.kind == MINUS_INF:
            return -math.inf
        return math.nan

    def to_dict(self):
        return {"kind": self.kind, "value": self.value, "method": self.method}


def _close(a, b):
    return abs(a - b) <= _CAUCHY_REL * max(1.0, abs(a), abs(b))


def limit_at(fn, endpoint, hint: LimitValue | None = None):
    """Classify the one-sided limit of fn at p -> 0+ or p -> 1-.

    ``endpoint`` is 0 or 1.  When an analytic hint is supplied it wins and is
    tagged as such; otherwise the function is sampled at distances 2^-k,
    k = 8..40, and the sequence is classified: monotone divergence past 1e12
    maps to an infinity, a Cauchy tail of (extrapolated) values maps to a
    finite limit, anything else is Indeterminate.
    """
    if hint is not None:
        return LimitValue(hint.kind, hint.value, "analytic-hint", list(hint.diagnostics))

    samples = []
    for k in range(8, 41):
        eps = 2.0**-k
        x = eps if endpoint == 0 else 1.0 - eps
        try:
            v = float(fn(x))
        except (ArithmeticError, ValueError):
            continue
        if math.isnan(v):
            continue
        samples.append((eps, v))
    diag = samples[-10:]
    if len(samples) < 6:
        return LimitValue.indeterminate(diag)
    vals = [v for _, v in samples]

    tail = vals[-5:]
    if all(abs(v) > _DIVERGE_MAG for v in tail):
        signs = {math.copysign(1.0, v) for v in tail}
        mags = [abs(v) for v in tail]
        if len(signs) == 1 and all(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
            return LimitValue.infinite(1 if tail[-1] > 0 else -1, diagnostics=diag)

    finite_vals = [v for v in vals if math.isfinite(v)]
    if len(finite_vals) >= 4 and all(
        _close(a, b) for a, b in zip(finite_vals[-4:], finite_vals[-3:])
    ):
        return LimitValue.finite(finite_vals[-1], diagnostics=diag)

    # geometric (Richardson-style) extrapolation: v_k ~ L + C*lambda^k
    extrapolants = []
    for i in range(len(finite_vals) - 2):
        d1 = finite_vals[i + 1] - finite_vals[i]
        d2 = finite_vals[i + 2] - finite_vals[i + 1]
        if d1 == 0.0:
            continue
        lam = d2 / d1
        if abs(lam) < 0.97:
            extrapolants.append(finite_vals[i + 2] + d2 * lam / (1.0 - lam))
    if len(extrapolants) >= 3 and all(
        _close(a, b) for a, b in zip(extrapolants[-3:], extrapolants[-2:])
    ):
        return LimitValue.finite(extrapolants[-1], diagnostics=diag)
    return LimitValue.indeterminate(diag)


# ---------------------------------------------------------------------------
# extended-real arithmetic for composing analytic tail hints
# None propagates and means "indeterminate at this level; go numeric"


def _ext_mul(a, b):
    if a is None or b is None:
        return None
    if (math.isinf(a) and b == 0.0) or (math.isinf(b) and a == 0.0):
        return None  # 0 * inf
    return a * b


def _ext_sub(a, b):
    if a is None or b is None:
        return None
    if math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0):
        return None  # inf - inf
    return a - b


def ratio_qd_tail(X, Y, endpoint):
    """Analytic limit of qd_Y/qd_X at the endpoint, or None when unknown."""
    qdx = X.tail_qdensity(endpoint)
    qdy = Y.tail_qdensity(endpoint)
    if qdx is None or qdy is None:
        return None
    if math.isinf(qdx):
        return None if math.isinf(qdy) else 0.0
    if qdx == 0.0:
        return None if qdy == 0.0 else math.inf
    return qdy / qdx


def delta_tail_hint(X, Y, endpoint):
    """Closed-form limit of delta(p) = F^-1(p)*ratio(p) - G^-1(p), or None."""
    c = ratio_qd_tail(X, Y, endpoint)
    if c is None:
        return None
    qx = X.tail_quantile(endpoint)
    qy = Y.tail_quantile(endpoint)
    return LimitValue.from_extended(_ext_sub(_ext_mul(qx, c), qy))


def centered_delta_tail_hint(X, Y, endpoint):
    """Closed-form limit of ratio(p)*(F^-1(p)-E[X]) - (G^-1(p)-E[Y]), or None."""
    c = ratio_qd_tail(X, Y, endpoint)
    if c is None:
        return None
    qx = X.tail_quantile(endpoint)
    qy = Y.tail_quantile(endpoint)
    val = _ext_sub(_ext_mul(c, _ext_sub(qx, X.mean)), _ext_sub(qy, Y.mean))
    return LimitValue.from_extended(val)


def delta_ps_tail_hint(X, Y, endpoint):
    """Closed-form limit of F^-1(p)/E[X] - G^-1(p)/E[Y], or None."""
    qx = X.tail_quantile(endpoint)
    qy = Y.tail_quantile(endpoint)
    return LimitValue.from_extended(_ext_sub(_ext_mul(qx, 1.0 / X.mean), _ext_mul(qy, 1.0 / Y.mean)))
