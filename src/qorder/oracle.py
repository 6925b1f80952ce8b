"""Ground-truth numerics: quadrature and dense-grid monotonicity checks.

Everything in here works straight from the order definitions, independently of
the theorem machinery in :mod:`qorder.orders`, so it can arbitrate whenever the
certified path is in doubt.  Its authority is bounded by grid resolution; every
verdict records the grid size used.
"""

from __future__ import annotations

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, QuadratureError

__all__ = [
    "GridVerdict",
    "quadrature",
    "logit_grid",
    "grid_monotone",
    "grid_sign",
    "lower_cumulative",
    "upper_cumulative",
    "order_oracle",
]

ORACLE_REL_TOL = 1e-9  # looser than quadrature tolerance by design

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def quadrature(fn, a, b, rel_tol=1e-8):
    """Adaptive quadrature of ``fn`` over (a, b); endpoint singularities allowed.

    Raises QuadratureError when the requested relative tolerance cannot be
    achieved, which is also how divergent integrals surface.
    """
    if not a < b:
        raise DomainError(f"quadrature needs a < b, got ({a}, {b})")

    def safe(q):
        # the adaptive rule can round an evaluation point onto a singular
        # endpoint; nudge one ulp into the interval instead of crashing
        try:
            return fn(q)
        except (ZeroDivisionError, ValueError, FloatingPointError, DomainError):
            mid = 0.5 * (a + b)
            q2 = np.nextafter(q, mid)
            try:
                return fn(q2)
            except (ZeroDivisionError, ValueError, FloatingPointError, DomainError):
                return math.nan

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, abserr = quad(safe, a, b, epsabs=1e-13, epsrel=rel_tol, limit=300)
        except IntegrationWarning as exc:
            raise QuadratureError(
                f"quadrature on ({a}, {b}) did not converge (possibly divergent): {exc}"
            ) from exc
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature on ({a}, {b}) produced a non-finite value")
    if abserr > rel_tol * max(abs(value), 1.0) * 10.0:
        raise QuadratureError(
            f"quadrature on ({a}, {b}) error estimate {abserr:g} exceeds tolerance"
        )
    return value


def logit_grid(n, p_min=1e-6):
    """n points in (0,1), uniform on the logit scale (dense near 0 and 1).

    Built once per (n, p_min) and shared by every caller, so the array is
    read-only."""
    return _logit_grid(n, p_min)


# id of each live shared grid -> its (half-widths, nodes); an entry goes with its
# grid, so an id is never read for another array
_NODES = {}


@functools.lru_cache(maxsize=32)
def _logit_grid(n, p_min):
    lo = math.log(p_min / (1.0 - p_min))
    t = np.linspace(lo, -lo, n)
    grid = 1.0 / (1.0 + np.exp(-t))
    grid.flags.writeable = False
    geometry = _build_panel_nodes(grid)
    for arr in geometry:
        arr.flags.writeable = False
    _NODES[id(grid)] = geometry
    weakref.finalize(grid, _NODES.pop, id(grid), None)
    return grid


def _build_panel_nodes(grid):
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    return half, (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()


def _panel_nodes(grid):
    """Half-widths and the flat Gauss-Legendre 15 nodes of the panels [grid[i], grid[i+1]].

    Built once with each shared logit_grid array and read-only like it; any
    other grid gets fresh arrays."""
    return _NODES.get(id(grid)) or _build_panel_nodes(grid)


def _panel_integrals(fn, grid):
    """Gauss-Legendre 15 on every panel [grid[i], grid[i+1]]."""
    half, nodes = _panel_nodes(grid)
    vals = np.asarray(fn(nodes), dtype=float).reshape(half.size, _GL_NODES.size)
    return half * (vals @ _GL_WEIGHTS)


def lower_cumulative(fn, grid):
    """I_k = integral of fn over (0, grid[k]) for an increasing grid."""
    head = quadrature(fn, 0.0, float(grid[0]), rel_tol=1e-10)
    out = np.empty_like(grid)
    out[0] = head
    out[1:] = head + np.cumsum(_panel_integrals(fn, grid))
    return out


def upper_cumulative(fn, grid):
    """U_k = integral of fn over (grid[k], 1) for an increasing grid."""
    tail = quadrature(fn, float(grid[-1]), 1.0, rel_tol=1e-10)
    out = np.empty_like(grid)
    out[-1] = tail
    out[:-1] = tail + np.cumsum(_panel_integrals(fn, grid)[::-1])[::-1]
    return out


@dataclass(frozen=True)
class GridVerdict:
    """Outcome of a dense-grid check.

    status is one of "Increasing", "Decreasing", "Constant", "Mixed".  For the
    pointwise-sign checks (ps, nbue) "Increasing" means the defining inequality
    holds in the forward direction everywhere, "Decreasing" in the reversed
    one, "Constant" means indistinguishable from equality.
    """

    status: str
    margin: float
    worst_violation: tuple | None
    n: int

    def to_dict(self):
        return {
            "status": self.status,
            "margin": self.margin,
            "worst_violation": list(self.worst_violation) if self.worst_violation else None,
            "grid_n": self.n,
        }


def _classify_signs(grid, deltas, scales):
    thr = ORACLE_REL_TOL * scales
    pos = deltas > thr
    neg = deltas < -thr
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    accepted = np.abs(deltas[pos | neg]) / scales[pos | neg] if (n_pos + n_neg) else np.array([])
    margin = float(accepted.min()) if accepted.size else 0.0
    if n_pos and n_neg:
        status = "Mixed"
        minority = neg if n_pos >= n_neg else pos
    elif n_pos:
        status, minority = "Increasing", None
    elif n_neg:
        status, minority = "Decreasing", None
    else:
        status, minority = "Constant", None
    worst = None
    if minority is not None:
        idx = int(np.argmax(np.abs(deltas) * minority))
        worst = (float(grid[idx]), float(grid[min(idx + 1, len(grid) - 1)]), float(abs(deltas[idx])))
    return status, margin, worst


def _monotone_verdict(grid, vals):
    """Adjacent-pair monotonicity of the values vals taken on grid."""
    deltas = np.diff(vals)
    scales = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), 1e-300)
    return GridVerdict(*_classify_signs(grid[:-1], deltas, scales), len(grid))


def grid_monotone(fn, n=4096, p_min=1e-6):
    """Adjacent-pair monotonicity of a vectorized fn on a logit-uniform grid."""
    grid = logit_grid(n, p_min)
    vals = np.asarray(fn(grid), dtype=float)
    if np.any(~np.isfinite(vals)):
        raise DomainError("function not finite on the working grid")
    return _monotone_verdict(grid, vals)


def grid_sign(grid, values, scales):
    """Pointwise sign check: all-positive maps to "Increasing" (forward holds)."""
    values = np.asarray(values, dtype=float)
    scales = np.maximum(np.asarray(scales, dtype=float), 1e-300)
    status, margin, worst = _classify_signs(grid, values, scales)
    return GridVerdict(status, margin, worst, len(grid))


def order_oracle(X, Y, order, n=4096, p_min=1e-6):
    """Grid-check the defining ratio/inequality of a transform order.

    Monotone-ratio orders (convex, star, qmit, dmrl) return the monotonicity
    verdict of the defining ratio; ps and nbue return a pointwise sign
    verdict (see GridVerdict).
    """
    px, py = X.profile(n, p_min), Y.profile(n, p_min)
    grid = px.grid
    if order == "convex":
        vals = py.qd / px.qd
        if np.any(~np.isfinite(vals)):
            raise DomainError("function not finite on the working grid")
        return _monotone_verdict(grid, vals)
    if order == "star":
        fx, gy = px.q, py.q
        if np.any(fx <= 0.0):
            raise DomainError("star oracle requires strictly positive quantiles of X")
        return _monotone_verdict(grid, gy / fx)
    if order == "qmit":
        lx, ly = px.lower, py.lower
        return _monotone_verdict(grid, ly / lx)
    if order not in ("dmrl", "ps", "nbue"):
        raise ValueError(f"unknown order {order!r}")
    ux, uy = px.upper, py.upper
    if order == "dmrl":
        return _monotone_verdict(grid, uy / ux)
    if order == "ps":
        fx, gy = px.q, py.q
        if np.any(fx <= 0.0) or np.any(gy <= 0.0):
            raise DomainError("ps oracle requires strictly positive quantiles")
        eps_x, eps_y = ux / fx, uy / gy
        return grid_sign(grid, eps_y - eps_x, np.maximum(eps_x, eps_y))
    ratio = uy / ux
    const = Y.mean / X.mean
    return grid_sign(grid, ratio - const, np.maximum(ratio, const))
