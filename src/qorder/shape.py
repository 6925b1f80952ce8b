"""Monotonicity segmentation of functions on (0,1).

`find_shape` splits a function into monotone pieces by locating derivative
sign changes on a logit-uniform grid and refining each one by bisection;
`shape_class` gives the same classification from the grid scan alone.  The
quantile-density ratio of two models, whose shape drives every theorem in the
order engine, lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TooOscillatoryError, ValidationError
from .oracle import P_MIN, logit_grid

__all__ = [
    "P_MIN",
    "MAX_MODES",
    "Mode",
    "Segment",
    "ShapeReport",
    "ratio_qd",
    "find_shape",
    "shape_class",
    "tukey_unimodal_region",
    "CONSTANT",
    "INCREASING",
    "DECREASING",
    "UNIMODAL_MAX",
    "UNIMODAL_MIN",
    "N_MODAL",
]

CONSTANT = "Constant"
INCREASING = "Increasing"
DECREASING = "Decreasing"
UNIMODAL_MAX = "UnimodalMax"
UNIMODAL_MIN = "UnimodalMin"
N_MODAL = "NModal"

# a grid-panel difference below this (relative to the function scale) carries
# no sign information: it is indistinguishable from evaluation noise
_FLAT_REL = 1e-13


# past MAX_MODES sign changes a function is too oscillatory; P_MIN, the grid's edge, is oracle's
MAX_MODES = 16


@dataclass(frozen=True)
class Mode:
    location: float
    kind: str  # "max" | "min"


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    direction: str  # "increasing" | "decreasing"


@dataclass(frozen=True)
class ShapeReport:
    classification: str
    modes: list[Mode] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    plateaus: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def to_dict(self):
        return {
            "classification": self.classification,
            "n_modes": self.n_modes,
            "modes": [{"p": m.location, "kind": m.kind} for m in self.modes],
            "segments": [
                {"lo": s.lo, "hi": s.hi, "direction": s.direction} for s in self.segments
            ],
        }


def ratio_qd(X, Y, p):
    """Quantile-density ratio f(F^-1(p))/g(G^-1(p)) = qd_Y(p)/qd_X(p)."""
    return Y.quantile_density(p) / X.quantile_density(p)


def _refine_mode(fn, lo, hi, kind):
    """Locate the extremum of fn inside (lo, hi) to high accuracy."""
    sgn = 1.0 if kind == "max" else -1.0
    while hi - lo > 1e-10:
        m = 0.5 * (lo + hi)
        d = 0.25 * (hi - lo)
        s = sgn * (float(fn(m + d)) - float(fn(m - d)))
        if s > 0.0:
            lo = m
        elif s < 0.0:
            hi = m
        else:
            break
    m = 0.5 * (lo + hi)
    # parabola polish: removes the noise-floor bias of pure sign bisection
    for d in (1e-5, 1e-7):
        d = min(d, 0.5 * m, 0.5 * (1.0 - m))
        if d <= 0.0:
            break
        fa, fb, fc = float(fn(m - d)), float(fn(m)), float(fn(m + d))
        den = fa - 2.0 * fb + fc
        if den == 0.0 or not math.isfinite(den):
            break
        step = 0.5 * d * (fa - fc) / den
        if abs(step) <= d:
            m = m + step
    return min(max(m, lo - 1e-9), hi + 1e-9)


def _scan(values, n):
    """The grid scan of find_shape and shape_class: the grid, every panel's sign
    (0 if flat), the significant panels' signs, the flips between consecutive
    ones, and each flip's bracket (lo, hi) from the start of the last panel of
    one sign to the end of the first panel of the other."""
    grid = logit_grid(n, P_MIN)
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ValidationError(
            f"find_shape got {vals.size} values for the {grid.size}-point grid "
            f"logit_grid({n}, {P_MIN:g})"
        )
    if np.any(~np.isfinite(vals)):
        raise DomainError("function not finite on the working grid")
    diffs = np.diff(vals)
    # local scales: a global max would let an endpoint blow-up swamp real
    # structure elsewhere on the grid
    local = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), 1e-300)
    flat_tol = _FLAT_REL * local
    signs = np.zeros(len(diffs), dtype=int)
    signs[diffs > flat_tol] = 1
    signs[diffs < -flat_tol] = -1

    sig_idx = np.flatnonzero(signs)
    sig = signs[sig_idx]
    flips = np.flatnonzero(sig[1:] != sig[:-1])
    lo, hi = grid[sig_idx[flips]], grid[sig_idx[flips + 1] + 1]
    if flips.size > MAX_MODES:
        raise TooOscillatoryError(
            f"{flips.size} derivative sign changes exceed max_modes={MAX_MODES}",
            modes=(0.5 * (lo + hi)).tolist(),
        )
    return grid, signs, sig, flips, lo, hi


def _classify(sig, flips):
    if sig.size == 0:
        return CONSTANT
    if flips.size == 0:
        return INCREASING if sig[0] > 0 else DECREASING
    if flips.size == 1:
        return UNIMODAL_MAX if sig[flips[0]] > 0 else UNIMODAL_MIN
    return N_MODAL


def shape_class(values, n=4096):
    """The classification find_shape(fn, n, values) gives, read off the
    values on logit_grid(n, P_MIN) without refining any mode."""
    _, _, sig, flips, _, _ = _scan(values, n)
    return _classify(sig, flips)


def find_shape(fn, n=4096, values=None):
    """Segment fn on (0,1) into monotone pieces and type its modes.  fn must be
    vectorized unless ``values`` already holds its values on logit_grid(n,
    P_MIN); fn is then called on scalars only, to refine the modes."""
    if values is None:
        values = fn(logit_grid(n, P_MIN))
    grid, signs, sig, flips, lo, hi = _scan(values, n)

    # plateaus: runs of 3 or more flat panels, as (grid[start], grid[end of run])
    edges = np.diff(np.concatenate(([0], (signs == 0).view(np.int8), [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    long_runs = ends - starts >= 3
    plateaus = list(zip(grid[starts[long_runs]].tolist(), grid[ends[long_runs]].tolist()))

    cls = _classify(sig, flips)
    if cls == CONSTANT:
        return ShapeReport(CONSTANT, plateaus=plateaus)
    kinds = ["max" if s > 0 else "min" for s in sig[flips].tolist()]
    modes = [Mode(_refine_mode(fn, a, b, kind), kind)
             for a, b, kind in zip(lo.tolist(), hi.tolist(), kinds)]

    directions = ("increasing", "decreasing") if sig[0] > 0 else ("decreasing", "increasing")
    bounds = [0.0] + [m.location for m in modes] + [1.0]
    segments = [Segment(a, b, directions[i % 2])
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return ShapeReport(cls, modes=modes, segments=segments, plateaus=plateaus)


def tukey_unimodal_region(alpha1: float, alpha2: float) -> bool:
    """Sufficient condition for the Tukey quantile-density ratio to be
    increasing-then-decreasing, for alpha1, alpha2 outside {1, 2}."""
    for a in (alpha1, alpha2):
        if a in (1.0, 2.0):
            raise DomainError("alpha in {1, 2} is a special case handled separately")
    if alpha1 == alpha2:
        raise DomainError("alpha1 == alpha2 makes the ratio constant; not covered here")
    return (
        (alpha2 - alpha1) * (alpha2 + alpha1 - 3.0) <= 0.0
        and (alpha2 - 2.0) * (alpha2 - 1.0) < 0.0
        and (alpha1 - 2.0) * (alpha1 - 1.0) > 0.0
    )
