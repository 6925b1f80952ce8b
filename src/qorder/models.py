"""Quantile-model abstraction and built-in parametric families.

Every distribution is represented on the probability scale: a model knows its
quantile function F^-1(p), its quantile density dF^-1/dp (the sparsity
function, i.e. 1/f(F^-1(p))) and its mean.  Operations never accept p = 0 or
p = 1; endpoint behaviour is the business of the limit evaluator in
:mod:`qorder.limits`, which consumes the tail information exposed through
``tail_quantile`` / ``tail_qdensity``.

Models are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import abc
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import oracle
from .errors import DomainError, ModelIntegrityError, NonFiniteMeanError, ValidationError

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
    return _lower(X.quantile_density)


def upper_integrand(X):
    """q -> (1-q)*qd_X(q), integrated over (p, 1) by dmrl, ps and nbue."""
    return _upper(X.quantile_density)


def _lower(qd):
    return lambda q: q * qd(q)


def _upper(qd):
    return lambda q: (1.0 - q) * qd(q)


def _require_finite(model, family):
    """Reject a non-finite parameter, which every later check (a comparison) would let pass."""
    for name, value in vars(model).items():
        if not math.isfinite(value):
            raise ValidationError(f"{family} requires a finite {name}, got {value!r}")


def _match(p, value):
    # scalar in -> float out, array in -> array out; an array skips np.isscalar,
    # which takes a tenth of a model's evaluation on a quadrature's 42 nodes
    if type(p) is float:
        return float(value)
    if isinstance(p, np.ndarray):
        return float(value) if p.ndim == 0 else value
    return float(value) if np.isscalar(p) else value


class QuantileModel(abc.ABC):
    """A distribution given by its quantile function on (0,1)."""

    @abc.abstractmethod
    def quantile(self, p):
        """F^-1(p); strictly increasing on (0,1)."""

    @abc.abstractmethod
    def quantile_density(self, p):
        """dF^-1/dp, strictly positive on (0,1)."""

    def density_at_quantile(self, p):
        """f(F^-1(p)) = 1 / quantile_density(p)."""
        qd = self.quantile_density(p)
        if np.any(np.asarray(qd) <= 0.0):
            raise ModelIntegrityError("quantile density must be positive")
        return 1.0 / qd

    @property
    def support_lo(self) -> float:
        return self.tail_quantile(0)

    @property
    def support_hi(self) -> float:
        return self.tail_quantile(1)

    def tail_quantile(self, end: int) -> float:
        """Limit of the quantile function at the endpoint (0 or 1).

        The default extrapolates crudely from nearby evaluations; parametric
        subclasses override with exact values.
        """
        eps = 1e-12
        return float(self.quantile(eps if end == 0 else 1.0 - eps))

    def tail_qdensity(self, end: int):
        """Limit of the quantile density at the endpoint, if known.

        Returns a float (possibly 0.0 or math.inf) or None when the model
        cannot classify its own tail; callers then fall back to numerical
        extrapolation.
        """
        return None

    @cached_property
    def mean(self) -> float:
        """E[X] = integral of the quantile function over (0,1)."""
        return oracle.quadrature(lambda q: self.quantile(q), 0.0, 1.0, rel_tol=1e-10)

    def profile(self, n, p_min) -> "GridProfile":
        """This model's memo of values on logit_grid(n, p_min)."""
        memo = self.__dict__.setdefault("_profiles", {})  # like mean, kept per instance
        if (n, p_min) not in memo:
            memo[n, p_min] = GridProfile(self, n, p_min)
        return memo[n, p_min]

    # spec-string used by the CLI; subclasses override
    def label(self) -> str:
        return type(self).__name__


class GridProfile:
    """Q, qd, lower = int_0^p q*qd and upper = int_p^1 (1-q)*qd on logit_grid(n, p_min), each
    computed on first use; it holds the model weakly, so the model's memo forms no cycle.

    lower and upper share node_qd, the model's qd on the grid's panel nodes, evaluated once."""

    def __init__(self, model, n, p_min):
        self._model, self.n, self.p_min = weakref.ref(model), n, p_min
        self.grid, self.nodes = oracle.logit_grid(n, p_min), oracle.panel_nodes(n, p_min)

    def model(self):
        X = self._model()
        if X is None:
            raise ValidationError("the profile's model no longer exists; keep a reference to it")
        return X

    q = cached_property(lambda self: np.asarray(self.model().quantile(self.grid), float))
    qd = cached_property(lambda self: np.asarray(self.model().quantile_density(self.grid), float))
    node_qd = cached_property(lambda self: self.model().quantile_density(self.nodes))
    lower = cached_property(lambda self: oracle.lower_cumulative(_lower(self._qd()), self.n, self.p_min))
    upper = cached_property(lambda self: oracle.upper_cumulative(_upper(self._qd()), self.n, self.p_min))

    def _qd(self):
        """The model's quantile density, read from node_qd on the panel nodes."""
        X, nodes = self.model(), self.nodes
        return lambda p: self.node_qd if p is nodes else X.quantile_density(p)


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

    def quantile(self, p):
        p = check_p(p)
        a = self.alpha
        return _match(p, self.lam + self.eta * (p**a - (1.0 - p) ** a))

    def quantile_density(self, p):
        p = check_p(p)
        a = self.alpha
        return _match(p, self.eta * a * (p ** (a - 1.0) + (1.0 - p) ** (a - 1.0)))

    def tail_quantile(self, end):
        if self.alpha > 0:
            return self.lam - self.eta if end == 0 else self.lam + self.eta
        return -math.inf if end == 0 else math.inf

    def tail_qdensity(self, end):
        a = self.alpha
        if a > 1.0:
            return self.eta * a
        if a == 1.0:
            return 2.0 * self.eta
        return math.inf

    @cached_property
    def mean(self):
        # int p^a dp = int (1-p)^a dp = 1/(a+1), so the eta term cancels
        if self.alpha <= -1.0:
            raise NonFiniteMeanError("Tukey mean diverges for alpha <= -1")
        return self.lam

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
        return _match(p, self.theta + self.sigma * ((b + 1.0) * p**b - b * p ** (b + 1.0)))

    def quantile_density(self, p):
        p = check_p(p)
        b = self.beta
        return _match(p, self.sigma * b * (b + 1.0) * p ** (b - 1.0) * (1.0 - p))

    def tail_quantile(self, end):
        return self.theta if end == 0 else self.theta + self.sigma

    def tail_qdensity(self, end):
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

    def tail_qdensity(self, end):
        return 1.0 if end == 0 else math.inf

    @cached_property
    def mean(self):
        return 1.0

    def label(self):
        return "exp1"
