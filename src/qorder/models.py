"""Quantile-model abstraction and built-in parametric families.

Every distribution is represented on the probability scale: a model knows its
quantile function F^-1(p), its quantile density dF^-1/dp (the sparsity
function, i.e. 1/f(F^-1(p))) and its mean.  Operations never accept p = 0 or
p = 1; endpoint behaviour is the business of the closed-form tails in
:mod:`qorder.deltas`, which consume the tail information exposed through
``tail_quantile`` / ``tail_term`` / ``tail_qdensity``, and of the
extrapolation in :mod:`qorder.limits` where that information runs out.

Models are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import abc
import copy
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import oracle
from .errors import DomainError, NonFiniteMeanError, QuadratureError, ValidationError

__all__ = [
    "GridProfile",
    "QuantileModel",
    "TukeyGeneralized",
    "Govindarajulu",
    "UnitExponential",
    "check_p",
    "lower_integrand",
    "upper_integrand",
]


def check_p(p):
    """Validate p in the open interval (0,1).

    Scalars pass through as floats (hot path for refinement loops); anything
    else comes back as an ndarray view.
    """
    if type(p) is float or type(p) is int:
        if not 0.0 < p < 1.0:
            raise DomainError(f"probability argument must lie strictly inside (0,1), got {p!r}")
        return float(p)
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        return arr
    if not (0.0 < arr.min() and arr.max() < 1.0):  # a NaN fails both
        raise DomainError(f"probability argument must lie strictly inside (0,1), got {p!r}")
    return arr


def lower_integrand(X):
    """q -> q*qd_X(q), integrated over (0, p) by the qmit order."""
    qd = X.quantile_density
    return lambda q: q * qd(q)


def upper_integrand(X):
    """q -> (1-q)*qd_X(q), integrated over (p, 1) by dmrl, ps and nbue."""
    qd = X.quantile_density
    return lambda q: (1.0 - q) * qd(q)


_WEIGHTED_TOL = 1e-8  # relative tolerance of the default weighted integrals


def _require_finite(model, family):
    """Reject a non-finite parameter, which every later check (a comparison) would let pass."""
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValidationError(f"{family} requires a finite {name}, got {value!r}")


def _beta_series(x, k, a):
    """int_0^x u^(k-1) (1-u)^(a-1) du for small x, from the Taylor series of (1-u)^(a-1).

    The closed forms cancel in their leading terms there; the series does not."""
    total, term, j = 0.0, 1.0, 0
    while True:
        part = term / (j + k)
        total += part
        if abs(part) <= 1e-17 * abs(total):
            return x**k * total
        j += 1
        term *= x * (j - a) / j


def _series_applies(x, a):
    """Whether x is small enough, also against a, for _beta_series to converge fast
    without cancelling; above it the closed forms lose at most about 1e-14 relative."""
    return x * max(1.0, abs(a)) < 0.1


def _log_complement(x, c):
    """log(1 - x), given x and c = 1 - x, at least one of them exact: x at or below 1/2,
    c above it, as for p and 1 - p (Sterbenz)."""
    return math.log1p(-x) if x <= 0.5 else math.log(c)


def _match(p, value):
    # p is what check_p returned, a float or an ndarray: scalar in -> float out,
    # array in -> array out
    if type(p) is float or p.ndim == 0:
        return float(value)
    return value


class QuantileModel(abc.ABC):
    """A distribution given by its quantile function on (0,1)."""

    @abc.abstractmethod
    def quantile(self, p):
        """F^-1(p); strictly increasing on (0,1)."""

    @abc.abstractmethod
    def quantile_density(self, p):
        """dF^-1/dp, strictly positive on (0,1)."""

    @property
    def support_lo(self) -> float:
        return self.tail_quantile(0)

    @abc.abstractmethod
    def tail_quantile(self, end: int) -> float:
        """Limit of the quantile function at the endpoint (0 or 1)."""

    def tail_term(self, end: int):
        """Leading term (c, beta) of the quantile density at the endpoint, if known.

        qd ~ c*t^beta as t -> 0, with t = p at end 0 and t = 1 - p at end 1, so
        two models' terms give the limit of their quantile densities' ratio
        even where both densities are infinite.  None when the model does not
        state its term; its point value (``tail_qdensity``) is then all that
        is known of its tail.
        """
        return None

    def tail_qdensity(self, end: int):
        """Limit of the quantile density at the endpoint, if known.

        Returns a float (possibly 0.0 or math.inf) or None when the model
        cannot classify its own tail; callers then fall back to numerical
        extrapolation.  The default reads it off ``tail_term``: 0 if beta > 0,
        inf if beta < 0, c if beta = 0.
        """
        term = self.tail_term(end)
        if term is None:
            return None
        c, beta = term
        if beta > 0.0:
            return 0.0
        return math.inf if beta < 0.0 else c

    @cached_property
    def mean(self) -> float:
        """E[X] = integral of the quantile function over (0,1).  A failed integral is
        kept too, like profile's grids, and each read raises a copy of it: the kept
        one gets no traceback, whose frames would refer back to this model."""
        failed = self.__dict__.get("_mean_failure")
        if failed is None:
            try:
                return oracle.quadrature(lambda q: self.quantile(q), 0.0, 1.0, rel_tol=1e-10)
            except QuadratureError as exc:
                failed = self.__dict__["_mean_failure"] = copy.copy(exc)
        raise copy.copy(failed)

    def lower_weighted_integral(self, p) -> float:
        """int_0^p q*qd(q) dq, the qmit order's integral; the default integrates numerically."""
        return oracle.quadrature(lower_integrand(self), 0.0, float(p), rel_tol=_WEIGHTED_TOL)

    def upper_weighted_integral(self, p) -> float:
        """int_p^1 (1-q)*qd(q) dq, the dmrl and ps orders' integral; the default integrates
        numerically."""
        return oracle.quadrature(upper_integrand(self), float(p), 1.0, rel_tol=_WEIGHTED_TOL)

    def profile(self, n) -> "GridProfile":
        """This model's memo of values on logit_grid(n)."""
        memo = self.__dict__.setdefault("_profiles", {})  # like mean, kept per instance
        if n not in memo:
            memo[n] = GridProfile(self, n)
        return memo[n]

    # spec-string used by the CLI; subclasses override
    def label(self) -> str:
        return type(self).__name__


def _read_only(value, dtype=None):
    """value as an array, marked read-only."""
    arr = np.asarray(value, dtype)
    arr.flags.writeable = False
    return arr


class GridProfile:
    """Q, qd, lower = int_0^p q*qd and upper = int_p^1 (1-q)*qd on logit_grid(n), each
    computed on first use; it holds the model weakly, so the model's memo forms no cycle.

    lower and upper share one pass over the grid's panel nodes: whichever is read first
    evaluates the model's qd once per node, oracle.PANEL_SLICE = 512 panels (3,584 nodes,
    28 KB) at a time, and keeps the other's panel integrals until it is read.  No
    node-sized array is made: reading both of a built-in model at n = 4096 peaks at 0.58
    of one 229 KB node array.  Every value is read-only, like the grid: one copy serves
    every reader."""

    def __init__(self, model, n):
        self._model, self.n = weakref.ref(model), n
        self.grid = oracle.logit_grid(n)
        self._shared = {}  # the panel integrals of the node pass that the other side left

    def model(self):
        X = self._model()
        if X is None:
            raise ValidationError("the profile's model no longer exists; keep a reference to it")
        return X

    q = cached_property(lambda self: _read_only(self.model().quantile(self.grid), float))
    qd = cached_property(lambda self: _read_only(self.model().quantile_density(self.grid), float))
    lower = cached_property(lambda self: _read_only(oracle.lower_cumulative(
        self.model().quantile_density, self.n, self._shared)))
    upper = cached_property(lambda self: _read_only(oracle.upper_cumulative(
        self.model().quantile_density, self.n, self._shared)))


@dataclass(frozen=True)
class TukeyGeneralized(QuantileModel):
    """Tukey generalized lambda family: F^-1(p) = lam + eta*(p^a - (1-p)^a)."""

    lam: float
    eta: float
    alpha: float

    def __post_init__(self):
        _require_finite(self, "Tukey family")
        if self.eta == 0.0:
            raise ValidationError("Tukey family requires eta != 0")
        if self.eta * self.alpha <= 0.0:
            raise ValidationError(
                "Tukey quantile function must be increasing: eta*alpha > 0 required"
            )

    # The array formulas of both families run in place, the same operations on the same
    # operands as the one-expression forms: an evaluation on the panel nodes holds at most
    # two node-sized arrays, and a scalar p (a float rebinds on each step) takes the same lines.
    def quantile(self, p):
        p = check_p(p)
        a = self.alpha
        out = p**a
        c = 1.0 - p
        c **= a
        out -= c
        out *= self.eta
        out += self.lam
        return _match(p, out)

    def quantile_density(self, p):
        p = check_p(p)
        a = self.alpha
        out = p ** (a - 1.0)
        c = 1.0 - p
        c **= a - 1.0
        out += c
        out *= self.eta * a
        return _match(p, out)

    def tail_quantile(self, end):
        if self.alpha > 0:
            return self.lam - self.eta if end == 0 else self.lam + self.eta
        return -math.inf if end == 0 else math.inf

    def tail_term(self, end):
        # qd(p) = qd(1-p), so both ends have the same term
        a = self.alpha
        if a > 1.0:
            return self.eta * a, 0.0
        if a == 1.0:
            return 2.0 * self.eta, 0.0
        return self.eta * a, a - 1.0

    @cached_property
    def mean(self):
        # int p^a dp = int (1-p)^a dp = 1/(a+1), so the eta term cancels
        if self.alpha <= -1.0:
            raise NonFiniteMeanError("Tukey mean diverges for alpha <= -1")
        return self.lam

    def lower_weighted_integral(self, p):
        p = check_p(float(p))
        return self._weighted(p, 1.0 - p)

    def upper_weighted_integral(self, p):
        p = check_p(float(p))
        return self._weighted(1.0 - p, p)  # qd(q) = qd(1-q), so U(p) = L(1-p)

    def _weighted(self, x, c):
        """L(x) = eta/(a+1)*[a*x^(a+1) + 1 - (1-x)^a*(1+a*x)], given c = 1 - x as well.

        Written eta*a*[x^(a+1)/(a+1) + B(x; 2, a)], a sum of two positive terms; the
        second, int_0^x q(1-q)^(a-1) dq, cancels to O(x^2) in closed form."""
        a = self.alpha
        if a <= -1.0:
            raise NonFiniteMeanError("Tukey weighted integrals diverge for alpha <= -1")
        if _series_applies(x, a):
            beta = _beta_series(x, 2, a)
        else:
            beta = -math.expm1(a * _log_complement(x, c) + math.log1p(a * x)) / (a * (a + 1.0))
        return self.eta * a * (x ** (a + 1.0) / (a + 1.0) + beta)

    def label(self):
        return f"tukey:{self.lam:g},{self.eta:g},{self.alpha:g}"


@dataclass(frozen=True)
class Govindarajulu(QuantileModel):
    """Govindarajulu family: F^-1(p) = theta + sigma*((b+1)p^b - b p^(b+1))."""

    theta: float
    sigma: float
    beta: float

    def __post_init__(self):
        _require_finite(self, "Govindarajulu")
        if self.theta < 0.0:
            raise ValidationError("Govindarajulu requires theta >= 0")
        if self.sigma <= 0.0:
            raise ValidationError("Govindarajulu requires sigma > 0")
        if self.beta <= 0.0:
            raise ValidationError("Govindarajulu requires beta > 0")

    def quantile(self, p):
        p = check_p(p)
        b = self.beta
        out = p**b
        out *= b + 1.0
        t = p ** (b + 1.0)
        t *= b
        out -= t
        out *= self.sigma
        out += self.theta
        return _match(p, out)

    def quantile_density(self, p):
        p = check_p(p)
        b = self.beta
        out = p ** (b - 1.0)
        out *= self.sigma * b * (b + 1.0)
        out *= 1.0 - p
        return _match(p, out)

    def tail_quantile(self, end):
        return self.theta if end == 0 else self.theta + self.sigma

    def tail_qdensity(self, end):
        """Point values only: no tail_term yet.  Its exact terms, (sigma*b*(b+1), b - 1)
        at 0 and (sigma*b*(b+1), 1) at 1, decide star for govindarajulu:0.0205512,
        1.68569,3.44011 vs govindarajulu:0.423898,1.78862,3.04193 as a theorem/oracle
        disagreement, on a pair whose recorded star verdict (HoldsReversed) rests on an
        oracle margin of 1e-9; the terms wait for that record and the oracle's rule
        for such margins to be settled."""
        b = self.beta
        if end == 1:
            return 0.0
        if b > 1.0:
            return 0.0
        if b == 1.0:
            return 2.0 * self.sigma
        return math.inf

    @cached_property
    def mean(self):
        return self.theta + 2.0 * self.sigma / (self.beta + 2.0)

    def lower_weighted_integral(self, p):
        p = check_p(float(p))
        b = self.beta
        return self.sigma * b * p ** (b + 1.0) * (1.0 - (b + 1.0) * p / (b + 2.0))

    def upper_weighted_integral(self, p):
        """sigma/(b+2)*[2 - (1-t)^b*(2 + 2bt + b(b+1)t^2)] in t = 1 - p, which is
        sigma*b*(b+1)*B(t; 3, b) and cancels to O(t^3) in closed form."""
        p = check_p(float(p))
        b, t = self.beta, 1.0 - p
        if _series_applies(t, b):
            return self.sigma * b * (b + 1.0) * _beta_series(t, 3, b)
        g = b * _log_complement(t, p) + math.log1p(b * t + 0.5 * b * (b + 1.0) * t * t)
        return -2.0 * self.sigma * math.expm1(g) / (b + 2.0)

    def label(self):
        return f"govindarajulu:{self.theta:g},{self.sigma:g},{self.beta:g}"


@dataclass(frozen=True)
class UnitExponential(QuantileModel):
    """Unit-rate exponential: F^-1(p) = -log(1-p)."""

    def quantile(self, p):
        p = check_p(p)
        return _match(p, -np.log1p(-p))

    def quantile_density(self, p):
        p = check_p(p)
        return _match(p, 1.0 / (1.0 - p))

    def tail_quantile(self, end):
        return 0.0 if end == 0 else math.inf

    def tail_term(self, end):
        return (1.0, 0.0) if end == 0 else (1.0, -1.0)  # qd = 1/(1-p)

    @cached_property
    def mean(self):
        return 1.0

    def lower_weighted_integral(self, p):
        """-log(1-p) - p, which is B(p; 2, 0) and cancels to O(p^2) in closed form."""
        p = check_p(float(p))
        if _series_applies(p, 0.0):
            return _beta_series(p, 2, 0.0)
        return -math.log1p(-p) - p

    def upper_weighted_integral(self, p):
        return 1.0 - check_p(float(p))

    def label(self):
        return "exp1"
