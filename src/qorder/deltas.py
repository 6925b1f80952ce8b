"""Decision functions on the probability scale, and their endpoint limits.

These are the quantities whose signs at modes and endpoint limits decide each
transform order: the quantile-density ratio ratio_qd, delta, delta_ps,
delta_qmit, delta_dmrl, the centered variant used by the qmit/dmrl endpoint
conditions, and the expected proportional shortfall.  Each function with
endpoint conditions has its closed-form tail beside it, read off the models'
tail information, and :func:`endpoint_limit` is the one place that chooses
between that tail and :func:`qorder.limits.limit_at`'s extrapolation.  The
weighted integrals come from the model's ``lower_weighted_integral`` /
``upper_weighted_integral``, closed forms for the built-in families.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonFiniteMeanError, QuadratureError
from .limits import LimitValue, limit_at

__all__ = [
    "ratio_qd",
    "ratio_qd_tail",
    "delta",
    "delta_ps",
    "delta_qmit",
    "delta_dmrl",
    "centered_delta",
    "eps",
    "endpoint_limit",
    "finite_mean",
]


def finite_mean(X) -> float:
    try:
        m = X.mean
    except QuadratureError as exc:
        raise NonFiniteMeanError(f"mean of {X.label()} does not converge") from exc
    if not math.isfinite(m):
        raise NonFiniteMeanError(f"mean of {X.label()} is not finite")
    return m


def ratio_qd(X, Y, p):
    """Quantile-density ratio f(F^-1(p))/g(G^-1(p)) = qd_Y(p)/qd_X(p)."""
    return Y.quantile_density(p) / X.quantile_density(p)


def delta(X, Y, p):
    """F^-1(p) * (f(F^-1(p))/g(G^-1(p))) - G^-1(p)."""
    return X.quantile(p) * ratio_qd(X, Y, p) - Y.quantile(p)


def delta_ps(X, Y, p):
    """F^-1(p)/E[X] - G^-1(p)/E[Y]."""
    ex, ey = finite_mean(X), finite_mean(Y)
    if ex == 0.0 or ey == 0.0:
        raise DomainError("delta_ps requires nonzero means")
    return X.quantile(p) / ex - Y.quantile(p) / ey


def delta_qmit(X, Y, p):
    """ratio(p) * int_0^p q*qd_X - int_0^p q*qd_Y; >= 0 everywhere iff X <=qmit Y."""
    return ratio_qd(X, Y, p) * X.lower_weighted_integral(p) - Y.lower_weighted_integral(p)


def delta_dmrl(X, Y, p):
    """int_p^1 (1-q)*qd_Y - ratio(p) * int_p^1 (1-q)*qd_X; >= 0 everywhere iff X <=dmrl Y."""
    return Y.upper_weighted_integral(p) - ratio_qd(X, Y, p) * X.upper_weighted_integral(p)


def centered_delta(X, Y, p):
    """ratio(p)*(F^-1(p)-E[X]) - (G^-1(p)-E[Y]).

    Its limit at 1- is the qmit endpoint condition; at 0+ the dmrl one.
    """
    return ratio_qd(X, Y, p) * (X.quantile(p) - finite_mean(X)) - (
        Y.quantile(p) - finite_mean(Y)
    )


def eps(X, p):
    """Expected proportional shortfall at quantile level p."""
    finite_mean(X)
    q = X.quantile(p)
    if q < 0.0:
        raise DomainError("EPS is defined for non-negative quantile values only")
    if q == 0.0:
        return math.inf
    return X.upper_weighted_integral(p) / q


# Closed-form tails: the limit of each function below at an end (0 or 1), or NaN
# when unknown.  A tail reads the tail quantiles only when the ratio's limit is
# known, since a DSL model's tail_quantile extrapolates.


def ratio_qd_tail(X, Y, end):
    """Limit of ratio_qd at the end, or NaN when unknown.

    When both models state a leading term c*t^beta, the terms decide: 0 if
    beta_Y > beta_X, inf if beta_Y < beta_X, c_Y/c_X if they are equal.
    Otherwise the point values of the quantile densities do, which leave
    inf/inf and 0/0 undecided."""
    tx, ty = X.tail_term(end), Y.tail_term(end)
    if tx is not None and ty is not None:
        (cx, bx), (cy, by) = tx, ty
        if by != bx:
            return 0.0 if by > bx else math.inf
        return cy / cx
    qdx = X.tail_qdensity(end)
    qdy = Y.tail_qdensity(end)
    if qdx is None or qdy is None:
        return math.nan
    if qdx == 0.0:  # float division by zero raises rather than giving inf or NaN
        return math.nan if qdy == 0.0 else math.inf
    return qdy / qdx


def _delta_tail(X, Y, end):
    c = ratio_qd_tail(X, Y, end)
    if math.isnan(c):
        return c
    return X.tail_quantile(end) * c - Y.tail_quantile(end)


def _centered_delta_tail(X, Y, end):
    c = ratio_qd_tail(X, Y, end)
    if math.isnan(c):
        return c
    qx, qy = X.tail_quantile(end), Y.tail_quantile(end)
    return c * (qx - X.mean) - (qy - Y.mean)


def _delta_ps_tail(X, Y, end):
    qx, qy = X.tail_quantile(end), Y.tail_quantile(end)
    return qx * (1.0 / X.mean) - qy * (1.0 / Y.mean)


# name -> (the function, its closed-form tail)
_LIMITS = {
    "ratio": (ratio_qd, ratio_qd_tail),
    "delta": (delta, _delta_tail),
    "centered_delta": (centered_delta, _centered_delta_tail),
    "delta_ps": (delta_ps, _delta_ps_tail),
}


def endpoint_limit(name, X, Y, end) -> LimitValue:
    """Limit at p -> 0+ (end 0) or 1- (end 1) of the function ``name``:
    "ratio", "delta", "centered_delta" or "delta_ps".  Its closed-form tail
    decides where known, as an "analytic-hint" value; where the tail is NaN,
    limit_at extrapolates."""
    fn, tail = _LIMITS[name]
    x = tail(X, Y, end)
    if math.isnan(x):
        return limit_at(lambda p: fn(X, Y, p), end)
    return LimitValue(float(x), "analytic-hint")
