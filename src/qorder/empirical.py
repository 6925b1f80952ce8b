"""Sample ingestion and Q-Q diagnostics.

Empirical inputs are diagnostics only: a sample has no smooth quantile
density, so the theorem machinery refuses them and the value here is the
transform curve G_m^-1(F_n) and a rough convexity read of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "SampleSet",
    "load_samples",
    "empirical_quantile",
    "qq_transform",
    "convexity_scan",
]


@dataclass(frozen=True)
class SampleSet:
    """Sorted sample of at least two finite observations."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ValidationError(f"need at least 2 observations, got {len(vals)}")
        if any(not math.isfinite(v) for v in vals):
            raise ValidationError("samples must be finite")
        if any(a > b for a, b in zip(vals, vals[1:])):
            vals = tuple(sorted(vals))
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)


def load_samples(path) -> SampleSet:
    """Read one numeric value per record (comma- or newline-separated).

    A single non-numeric first record is treated as a header; any later
    non-numeric record is an error reported with its record number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    records = [tok.strip() for line in text.splitlines() for tok in line.split(",")]
    records = [r for r in records if r != ""]
    if not records:
        raise ValidationError(f"{path}: empty file")
    values = []
    for i, rec in enumerate(records, start=1):
        try:
            values.append(float(rec))
        except ValueError:
            if i == 1:
                continue  # header line
            raise ValidationError(f"{path}: non-numeric value {rec!r} at record {i}") from None
    if len(values) < 2:
        raise ValidationError(f"{path}: fewer than 2 numeric values")
    return SampleSet(tuple(values))


def empirical_quantile(S: SampleSet, p):
    """Left-continuous generalized inverse: the ceil(n*p)-th order statistic."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly inside (0,1), got {p}")
    k = math.ceil(S.n * p)
    return S.values[k - 1]


def qq_transform(SX: SampleSet, SY: SampleSet):
    """Points (x_(i), G_m^-1(i/(n+1))) of the empirical transform curve."""
    n = SX.n
    return [
        (SX.values[i - 1], empirical_quantile(SY, i / (n + 1.0)))
        for i in range(1, n + 1)
    ]


def convexity_scan(points):
    """Classify the curvature pattern of a piecewise-linear curve.

    Looks at the signs of the second differences of y with respect to x and
    suppresses sign runs shorter than ceil(n/20) (noise from ties and step
    artifacts).  Returns a dict with the pattern — one of "linear", "convex",
    "concave", "convex-then-concave", "concave-then-convex", "mixed" — the
    surviving sign runs, and any warnings.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValidationError(f"need at least 4 points, got {len(pts)}")
    warnings = []
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if np.any(np.diff(xs) < 0.0):
        raise ValidationError("x values must be non-decreasing")
    # jitter exact duplicate x so slopes stay defined
    dup = np.diff(xs) == 0.0
    if np.any(dup):
        warnings.append("duplicate x values jittered; curvature near ties is unreliable")
        span = xs[-1] - xs[0] or 1.0
        for i in np.nonzero(dup)[0]:
            xs[i + 1 :] += span * 1e-9

    slopes = np.diff(ys) / np.diff(xs)
    second = np.diff(slopes)
    scale = max(float(np.max(np.abs(slopes))), 1e-300)
    signs = np.zeros(len(second), dtype=int)
    signs[second > 1e-12 * scale] = 1
    signs[second < -1e-12 * scale] = -1

    min_run = math.ceil(len(pts) / 20)
    runs = []
    for s in signs:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([int(s), 1])
    kept = [(s, c) for s, c in runs if s != 0 and c >= min_run]

    seq = []
    for s, _ in kept:
        if not seq or seq[-1] != s:
            seq.append(s)
    if not seq:
        pattern = "linear"
    elif seq == [1]:
        pattern = "convex"
    elif seq == [-1]:
        pattern = "concave"
    elif seq == [1, -1]:
        pattern = "convex-then-concave"
    elif seq == [-1, 1]:
        pattern = "concave-then-convex"
    else:
        pattern = "mixed"
    return {
        "pattern": pattern,
        "runs": [(s, c) for s, c in kept],
        "min_run": min_run,
        "warnings": warnings,
    }
