"""One-sided endpoint limits on (0,1), by extrapolation.

A limit is an extended real: a float, +-inf, or NaN when it is
indeterminate.  :func:`limit_at` classifies it numerically, by evaluating a
function at geometrically shrinking distances from the endpoint and
extrapolating; it knows nothing about models.  The closed-form tails that
decide a limit before any sampling live beside their functions in
:mod:`qorder.deltas`.  Indeterminate is a value, not an error: callers fall
back to their numeric-oracle path when they see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LimitValue", "limit_at"]

_CAUCHY_REL = 1e-9
_DIVERGE_MAG = 1e12


@dataclass(frozen=True)
class LimitValue:
    x: float  # the limit: a float, +-inf, or NaN when indeterminate
    method: str = "extrapolation"  # "analytic-hint" | "extrapolation"
    diagnostics: list = field(default_factory=list)

    @property
    def kind(self):
        """One of finite, +inf, -inf and indeterminate."""
        if math.isnan(self.x):
            return "indeterminate"
        if math.isinf(self.x):
            return "+inf" if self.x > 0 else "-inf"
        return "finite"

    @property
    def value(self):
        """The finite limit, or None."""
        return self.x if math.isfinite(self.x) else None

    @property
    def is_determinate(self):
        return not math.isnan(self.x)

    def to_dict(self):
        return {"kind": self.kind, "value": self.value, "method": self.method}


def _close(a, b):
    return abs(a - b) <= _CAUCHY_REL * max(1.0, abs(a), abs(b))


def _diverges(tail):
    """+1 or -1 when tail (farthest first) diverges monotonically past 1e12 in
    one sign, else 0."""
    if all(abs(v) > _DIVERGE_MAG for v in tail):
        mags = [abs(v) for v in tail]
        if len({math.copysign(1.0, v) for v in tail}) == 1 and all(
            m2 >= m1 for m1, m2 in zip(mags, mags[1:])
        ):
            return 1 if tail[-1] > 0 else -1
    return 0


def _cauchy(vals):
    return all(_close(a, b) for a, b in zip(vals, vals[1:]))


def _extrapolant(a, b, c):
    """The geometric (Richardson-style) extrapolation of v_k ~ L + C*lambda^k
    from three consecutive values, or None when they do not contract."""
    d1 = b - a
    d2 = c - b
    if d1 == 0.0:
        return None
    lam = d2 / d1
    return c + d2 * lam / (1.0 - lam) if abs(lam) < 0.97 else None


def limit_at(fn, endpoint):
    """Classify the one-sided limit of fn at p -> 0+ or p -> 1-.

    ``endpoint`` is 0 or 1.  The function is sampled at distances 2^-k for
    k = 8..40, and the sequence is classified: monotone divergence past 1e12
    maps to an infinity, a Cauchy tail of (extrapolated) values maps to a
    finite limit, anything else is Indeterminate.

    The classification reads only the samples nearest the endpoint: the last
    10 (its diagnostics), the last 5 (divergence), the last 4 finite ones (the
    Cauchy test) and the last 3 extrapolants.  So the points are taken from
    k = 40 inward, and sampling stops once all of these are known.  A point
    that raises ArithmeticError or ValueError, or gives NaN, is skipped; an
    error at a point that the result does not need is not raised, since that
    point is never evaluated.
    """
    nearest, finite = [], []  # samples (eps, value) and finite values, nearest first
    diverges = cauchy = False
    extrapolants = 0
    for k in range(40, 7, -1):
        eps = 2.0**-k
        x = eps if endpoint == 0 else 1.0 - eps
        try:
            v = float(fn(x))
        except (ArithmeticError, ValueError):
            continue
        if math.isnan(v):
            continue
        nearest.append((eps, v))
        if math.isfinite(v):
            finite.append(v)
            if len(finite) >= 3:
                extrapolants += _extrapolant(v, finite[-2], finite[-3]) is not None
            if len(finite) == 4:
                cauchy = _cauchy(finite[::-1])
        if len(nearest) == 10:
            diverges = _diverges([v for _, v in nearest[4::-1]])
        if len(nearest) >= 10 and (diverges or cauchy or extrapolants >= 3):
            break
    return _classify(nearest[::-1])


def _classify(samples):
    """The limit that samples (farthest from the endpoint first) give."""
    diag = samples[-10:]
    if len(samples) < 6:
        return LimitValue(math.nan, diagnostics=diag)
    vals = [v for _, v in samples]
    sign = _diverges(vals[-5:])
    if sign:
        return LimitValue(math.copysign(math.inf, sign), diagnostics=diag)
    finite_vals = [v for v in vals if math.isfinite(v)]
    if len(finite_vals) >= 4 and _cauchy(finite_vals[-4:]):
        return LimitValue(finite_vals[-1], diagnostics=diag)
    extrapolants = [e for e in map(_extrapolant, finite_vals, finite_vals[1:], finite_vals[2:])
                    if e is not None]
    if len(extrapolants) >= 3 and _cauchy(extrapolants[-3:]):
        return LimitValue(extrapolants[-1], diagnostics=diag)
    return LimitValue(math.nan, diagnostics=diag)

