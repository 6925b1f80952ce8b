"""Monotonicity segmentation of functions on (0,1).

`find_shape` splits a function into monotone pieces by locating derivative
sign changes on a logit-uniform grid and refining each one to the root of the
function's central-difference slope, by Brent's bracketed root-find;
`shape_class` gives the same classification from the grid scan alone.
A `ShapeReport` is that classification and the refined modes, in order: the
monotone pieces run between 0, the modes and 1, rising into each max and
falling into each min.
`find_shapes` segments a stack of functions in one scan of all their grid
values, and gives each row what `find_shape` gives it alone; the sweep
segments its cells 16 at a time this way.  The functions are plain
callables and grid values: this module knows nothing about models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QorderError, TooOscillatoryError, ValidationError
from .oracle import logit_grid

__all__ = [
    "MAX_MODES",
    "Mode",
    "ShapeReport",
    "find_shape",
    "find_shapes",
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


# a mode is refined to this relative to min(m, 1-m): some ten times the rounding noise of
# its slope there, and its value then misses the extremum by about 1e-20 relative
_MODE_XTOL = 1e-10

# past MAX_MODES sign changes a function is too oscillatory
MAX_MODES = 16


@dataclass(frozen=True)
class Mode:
    location: float
    kind: str  # "max" | "min"


@dataclass(frozen=True)
class ShapeReport:
    classification: str
    modes: list[Mode] = field(default_factory=list)


def _refine_mode(fn, lo, hi, kind):
    """Locate the extremum of fn inside the scan's bracket (lo, hi): the root of
    the central-difference slope g(m) = ±(fn(m+h) - fn(m-h)), positive left of
    the extremum, by Brent's bracketed root-find (Algorithms for Minimization
    without Derivatives, 1973, ch. 4), whose bisection step is its fallback.

    h is the power of two in (2^-17, 2^-16] * min(m, 1-m): a step relative to
    the mode's scale, so a tail mode is resolved like a central one, with a
    truncation bias (h^2/6 f'''/f'') of a few 1e-11 of that scale.  The
    bracket's midpoint is tried first; at a symmetric ratio's central mode the
    slope there is usually exactly 0, which ends the refinement.  The
    root-find stops once the bracket is within _MODE_XTOL of min(m, 1-m)."""
    sgn = 1.0 if kind == "max" else -1.0

    def slope(m):
        h = math.ldexp(1.0, math.frexp(min(m, 1.0 - m))[1] - 17)
        return sgn * (float(fn(m + h)) - float(fn(m - h)))

    m = 0.5 * (lo + hi)
    gm = slope(m)
    if gm > 0.0:
        a, ga, b = m, gm, hi
    elif gm < 0.0:
        a, ga, b = m, gm, lo
    else:  # flat, or not finite: nothing to move towards
        return m
    gb = slope(b)
    if not gm * gb < 0.0:  # the slope at the end does not confirm the scan: the mode is there
        return b
    c, gc = a, ga  # b is the best point and [b, c] holds the root; a is the previous b
    d = e = b - a
    while True:
        if abs(gc) < abs(gb):
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol = max(_MODE_XTOL * min(b, 1.0 - b), 2.0**-50 * b)  # a step of tol moves b
        half = 0.5 * (c - b)
        if abs(half) <= tol or gb == 0.0:
            break
        if abs(e) >= tol and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = ga / gc, gb / gc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, ga = b, gb
        b += d if abs(d) > tol else math.copysign(tol, half)
        gb = slope(b)
        if not math.isfinite(gb):
            break
        if (gb > 0.0) == (gc > 0.0):
            c, gc = a, ga
            d = e = b - a
    return min(max(b, lo - 1e-9), hi + 1e-9)


def _panel_signs(vals):
    """The panel signs (0 if flat) of every row of vals, in one int8 array:
    panel i of row r is at r*n + i + 1, and a sentinel 2 at each r*n ends the
    runs at a row's edges and keeps every flip inside one row.

    The work runs on the flattened rows, whose contiguous slices numpy walks
    without buffer copies; the pair that straddles two rows is computed and
    then overwritten by the sentinel."""
    rows, n = vals.shape
    flat = vals.ravel()
    # local scales: a global max would let an endpoint blow-up swamp real
    # structure elsewhere on the grid
    work = np.abs(flat)
    tol = np.maximum(work[:-1], work[1:])
    np.maximum(tol, 1e-300, out=tol)
    tol *= _FLAT_REL
    diffs = np.subtract(flat[1:], flat[:-1], out=work[:-1])
    rising = diffs > tol
    falling = diffs < np.negative(tol, out=tol)
    signs = np.empty(rows * n + 1, dtype=np.int8)
    np.subtract(rising.view(np.int8), falling.view(np.int8), out=signs[1:-1])
    signs[::n] = 2
    return signs


def _scan(values, n):
    """The one grid scan behind find_shapes, find_shape and shape_class.

    ``values`` holds one row per function on logit_grid(n).  On the
    flattened rows the scan finds every panel's sign (0 if flat) and the runs of
    equal signs, and walks the runs: a flip is a significant run whose sign is
    the opposite of the significant run before it in its row, bracketed (lo, hi)
    from the start of the last panel of one sign to the end of the first panel
    of the other.  The walk costs a few operations per run, so past the panel
    signs a row costs in proportion to its runs, not to n.  It returns one
    entry per row: the QorderError find_shape raises for that row, or the
    tuple (the sign of its first significant panel, 0 if none; the flips'
    kinds; their lo; their hi)."""
    grid = logit_grid(n)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValidationError(f"find_shapes needs one row per function, got shape {vals.shape}")
    size = vals.shape[1]
    if size != grid.size:
        raise ValidationError(
            f"find_shape got {size} values for the {grid.size}-point grid "
            f"logit_grid({n})"
        )
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():  # a non-finite row is scanned as zeros and reported as an error
        vals = np.where(finite[:, None], vals, 0.0)
    finite = finite.tolist()
    signs = _panel_signs(vals)
    # last[k]: a run of equal signs ends at k; the first run, the sentinel at 0, is skipped
    # (with no rows it is the only sentinel, so it is cleared last)
    last = np.empty(signs.size, dtype=bool)
    np.not_equal(signs[1:], signs[:-1], out=last[:-1])
    last[-1], last[0] = True, False
    ends = last.nonzero()[0]
    at = grid.item

    out = []
    start = 1  # where the current run starts
    # the row's first and latest significant sign, and where that latest run ended
    first = prev = prev_end = 0
    kinds, lo, hi = [], [], []
    for end, sign in zip(ends.tolist(), signs[ends].tolist()):
        if sign == 2:  # the sentinel that ends row len(out)
            if not finite[len(out)]:
                out.append(DomainError("function not finite on the working grid"))
            elif len(kinds) > MAX_MODES:
                out.append(TooOscillatoryError(
                    f"{len(kinds)} derivative sign changes exceed max_modes={MAX_MODES}",
                    modes=[0.5 * (x + y) for x, y in zip(lo, hi)],
                ))
            else:
                out.append((first, kinds, lo, hi))
            first = prev = 0
            kinds, lo, hi = [], [], []
        elif sign:
            if sign == -prev:
                kinds.append("max" if prev > 0 else "min")
                lo.append(at(prev_end % n - 1))
                hi.append(at(start % n))
            elif not prev:
                first = sign
            prev, prev_end = sign, end
        start = end + 1
    return out


def _classify(first, kinds):
    if first == 0:
        return CONSTANT
    if not kinds:
        return INCREASING if first > 0 else DECREASING
    if len(kinds) == 1:
        return UNIMODAL_MAX if kinds[0] == "max" else UNIMODAL_MIN
    return N_MODAL


def _raise_or(result):
    if isinstance(result, QorderError):
        raise result
    return result


def shape_class(values, n=4096):
    """The classification find_shape(fn, n, values) gives, read off the
    values on logit_grid(n) without refining any mode."""
    first, kinds, *_ = _raise_or(_scan(np.reshape(values, (1, -1)), n)[0])
    return _classify(first, kinds)


def _report(fn, scanned):
    """The ShapeReport of one row that _scan segmented; fn refines its modes."""
    first, kinds, lo, hi = scanned
    modes = [Mode(_refine_mode(fn, a, b, kind), kind) for a, b, kind in zip(lo, hi, kinds)]
    return ShapeReport(_classify(first, kinds), modes)


def find_shapes(fns, n, values):
    """Segment a stack of functions in one grid scan: row i of ``values`` holds
    fns[i] on logit_grid(n), and fns[i] is called on scalars only, to
    refine that row's modes.  Returns, for each row, the ShapeReport
    find_shape(fns[i], n, values[i]) gives, or the QorderError it raises."""
    scans = _scan(values, n)
    if len(fns) != len(scans):
        raise ValidationError(f"find_shapes got {len(fns)} functions for {len(scans)} rows")
    out = []
    for fn, scanned in zip(fns, scans):
        if not isinstance(scanned, QorderError):
            try:
                scanned = _report(fn, scanned)
            except QorderError as exc:
                scanned = exc.with_traceback(None)  # its frames would keep fn alive
        out.append(scanned)
    return out


def find_shape(fn, n=4096, values=None):
    """Segment fn on (0,1) into monotone pieces and type its modes.  fn must be
    vectorized unless ``values`` already holds its values on logit_grid(n);
    fn is then called on scalars only, to refine the modes."""
    if values is None:
        values = fn(logit_grid(n))
    return _report(fn, _raise_or(_scan(np.reshape(values, (1, -1)), n)[0]))


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
