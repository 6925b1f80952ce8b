import math

import mpmath as mp
import numpy as np
import pytest

from qorder import shape
from qorder.cli import parse_spec
from qorder.deltas import ratio_qd
from qorder.errors import DomainError, QorderError, TooOscillatoryError, ValidationError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import logit_grid
from qorder.shape import (
    _FLAT_REL,
    CONSTANT,
    DECREASING,
    INCREASING,
    N_MODAL,
    UNIMODAL_MAX,
    UNIMODAL_MIN,
    Mode,
    Segment,
    ShapeReport,
    _refine_mode,
    find_shape,
    find_shapes,
    shape_class,
    tukey_unimodal_region,
)


class TestRatioQd:
    def test_identity_pair(self):
        t = TukeyGeneralized(4, 1, 2.5)
        for p in (0.1, 0.5, 0.9):
            assert ratio_qd(t, t, p) == 1.0

    def test_tukey_pair_value(self):
        X = TukeyGeneralized(4, 1, 2.5)
        Y = TukeyGeneralized(1.5, 1, 1.5)
        # eta*alpha*(p^(a-1)+(1-p)^(a-1)) ratio at the median
        assert ratio_qd(X, Y, 0.5) == pytest.approx(2.1213203435596424 / 1.7677669529663687,
                                                    rel=1e-12)

    def test_equals_hazard_against_exponential(self):
        g = Govindarajulu(0, 2, 2)
        e = UnitExponential()
        assert ratio_qd(g, e, 1 / 3) == pytest.approx(0.5625, rel=1e-12)

    def test_reciprocal_identity(self):
        X = TukeyGeneralized(4, 1, 2.5)
        Y = Govindarajulu(0, 2, 2)
        for p in np.linspace(0.05, 0.95, 19):
            prod = ratio_qd(X, Y, float(p)) * ratio_qd(Y, X, float(p))
            assert prod == pytest.approx(1.0, rel=1e-12)


class TestFindShape:
    def test_constant(self):
        rep = find_shape(lambda p: 3.0 + 0.0 * np.asarray(p))
        assert rep.classification == CONSTANT
        assert len(rep.modes) == 0

    def test_monotone(self):
        assert find_shape(lambda p: np.asarray(p) ** 2).classification == INCREASING
        assert find_shape(lambda p: 1.0 / np.asarray(p)).classification == DECREASING

    def test_symmetric_unimodal_max_location(self):
        rep = find_shape(lambda p: np.asarray(p) ** 0.5 + (1 - np.asarray(p)) ** 0.5)
        assert rep.classification == UNIMODAL_MAX
        assert rep.modes[0].location == pytest.approx(0.5, abs=1e-8)

    def test_govindarajulu_hazard_min(self):
        g = Govindarajulu(0, 2, 2)
        e = UnitExponential()
        rep = find_shape(lambda p: ratio_qd(g, e, p))
        assert rep.classification == UNIMODAL_MIN
        assert rep.modes[0].location == pytest.approx(1 / 3, abs=1e-6)

    def test_tukey_pair_unimodal_max(self):
        X = TukeyGeneralized(4, 1, 2.5)
        Y = TukeyGeneralized(1.5, 1, 1.5)
        rep = find_shape(lambda p: ratio_qd(X, Y, p))
        assert rep.classification == UNIMODAL_MAX

    def test_two_modes(self):
        rep = find_shape(lambda p: np.sin(2 * math.pi * np.asarray(p)))
        assert rep.classification == N_MODAL
        assert [m.kind for m in rep.modes] == ["max", "min"]
        assert rep.modes[0].location == pytest.approx(0.25, abs=1e-7)
        assert rep.modes[1].location == pytest.approx(0.75, abs=1e-7)

    def test_segments_consistent_with_modes(self):
        rep = find_shape(lambda p: np.sin(2 * math.pi * np.asarray(p)))
        assert len(rep.segments) == len(rep.modes) + 1
        dirs = [s.direction for s in rep.segments]
        assert dirs == ["increasing", "decreasing", "increasing"]
        locs = [m.location for m in rep.modes]
        assert locs == sorted(locs)

    def test_too_oscillatory(self):
        with pytest.raises(TooOscillatoryError):
            find_shape(lambda p: np.sin(40 * math.pi * np.asarray(p)))

    def test_scale_invariant_mode_locations(self):
        fn = lambda p: np.asarray(p) ** 0.3 + (1 - np.asarray(p)) ** 0.7
        a = find_shape(fn)
        b = find_shape(lambda p: 17.0 * fn(p))
        assert a.classification == b.classification
        for ma, mb in zip(a.modes, b.modes):
            assert ma.location == pytest.approx(mb.location, abs=1e-9)

    def test_grid_config_respected(self):
        rep = find_shape(lambda p: np.asarray(p), 256)
        assert rep.classification == INCREASING


    def test_values_from_a_larger_grid_rejected(self):
        fn = lambda p: (np.asarray(p) - 0.3) ** 2
        with pytest.raises(ValidationError, match=r"4096 values .* 512-point grid"):
            find_shape(fn, 512, values=fn(logit_grid(4096)))
        with pytest.raises(ValidationError, match=r"4096 values .* 512-point grid"):
            shape_class(fn(logit_grid(4096)), 512)

    def test_values_from_a_smaller_grid_rejected(self):
        # unchecked, these read as a mode near P_MIN instead of at 0.3
        fn = lambda p: (np.asarray(p) - 0.3) ** 2
        with pytest.raises(ValidationError, match=r"512 values .* 4096-point grid"):
            find_shape(fn, 4096, values=fn(logit_grid(512)))
        with pytest.raises(ValidationError, match=r"512 values .* 4096-point grid"):
            shape_class(fn(logit_grid(512)), 4096)

    def test_wrong_length_error_names_the_grid_call(self):
        with pytest.raises(ValidationError) as info:
            shape_class(np.zeros(512), 4096)
        assert str(info.value) == "find_shape got 512 values for the 4096-point grid logit_grid(4096)"

    def test_non_finite_values_rejected(self):
        values = np.linspace(1.0, 2.0, 512)
        values[100] = math.nan
        for classify in (lambda: find_shape(None, 512, values),
                         lambda: shape_class(values, 512)):
            with pytest.raises(DomainError, match="not finite on the working grid"):
                classify()


def _find_shape_loops(fn, n, values):
    """Reference: find_shape as it walked the panel signs in Python loops."""
    grid = logit_grid(n)
    vals = np.asarray(values, dtype=float)
    diffs = np.diff(vals)
    local = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), 1e-300)
    flat_tol = _FLAT_REL * local
    signs = np.zeros(len(diffs), dtype=int)
    signs[diffs > flat_tol] = 1
    signs[diffs < -flat_tol] = -1

    sig_idx = np.nonzero(signs)[0]
    if sig_idx.size == 0:
        return ShapeReport(CONSTANT)

    brackets = []
    prev = sig_idx[0]
    for i in sig_idx[1:]:
        if signs[i] != signs[prev]:
            kind = "max" if signs[prev] > 0 else "min"
            brackets.append((float(grid[prev]), float(grid[i + 1]), kind))
        prev = i
    if len(brackets) > shape.MAX_MODES:
        raise TooOscillatoryError(
            f"{len(brackets)} derivative sign changes exceed max_modes={shape.MAX_MODES}",
            modes=[0.5 * (b[0] + b[1]) for b in brackets],
        )

    modes = [Mode(_refine_mode(fn, lo, hi, kind), kind) for lo, hi, kind in brackets]

    first_dir = "increasing" if signs[sig_idx[0]] > 0 else "decreasing"
    bounds = [0.0] + [m.location for m in modes] + [1.0]
    directions = [first_dir]
    for _ in modes:
        directions.append("decreasing" if directions[-1] == "increasing" else "increasing")
    segments = [Segment(bounds[i], bounds[i + 1], directions[i]) for i in range(len(directions))]

    if not modes:
        cls = INCREASING if first_dir == "increasing" else DECREASING
    elif len(modes) == 1:
        cls = UNIMODAL_MAX if modes[0].kind == "max" else UNIMODAL_MIN
    else:
        cls = N_MODAL
    return ShapeReport(cls, modes=modes, segments=segments)


def _runs(*runs):
    """Panel signs from (sign, length) runs."""
    return np.concatenate([np.full(length, sign, dtype=int) for sign, length in runs])


def _random_signs(rng):
    """Runs of random sign and length; flat runs are 1 to 4 panels long."""
    out = []
    for _ in range(rng.integers(1, 24)):
        sign = int(rng.integers(-1, 2))
        out.append((sign, int(rng.integers(1, 5 if sign == 0 else 30))))
    return _runs(*out)


class TestSegmentationAgainstLoops:
    """find_shape's array segmentation gives the loop reference's report bit for bit."""

    @staticmethod
    def _both(monkeypatch, signs, max_modes=16):
        # exact binary steps: a 0 sign is a zero difference, +-1 far above the flat tolerance
        vals = 8.0 + np.concatenate(([0.0], np.cumsum(signs))) * 2.0**-10
        monkeypatch.setattr(shape, "MAX_MODES", max_modes)
        grid = logit_grid(vals.size)
        fn = lambda p: np.interp(p, grid, vals)  # scalar-callable, for the mode refinement
        out = []
        for find in (find_shape, _find_shape_loops):
            try:
                out.append(find(fn, vals.size, vals))
            except TooOscillatoryError as exc:
                out.append((str(exc), exc.modes))
        try:
            cls = shape_class(vals, vals.size)
        except TooOscillatoryError as exc:
            cls = (str(exc), exc.modes)
        ref = out[1]
        assert cls == (ref.classification if isinstance(ref, ShapeReport) else ref)
        return out

    def test_seeded_random_patterns(self, monkeypatch):
        rng = np.random.default_rng(20260118)
        raised = 0
        for _ in range(300):
            signs = _random_signs(rng)
            new, ref = self._both(monkeypatch, signs, max_modes=int(rng.integers(0, 20)))
            assert new == ref, signs.tolist()
            raised += isinstance(ref, tuple)
        assert 0 < raised < 300  # both outcomes were exercised

    @pytest.mark.parametrize("runs", [
        [(0, 5), (1, 10), (-1, 10)],            # flat run at the start
        [(1, 10), (0, 3), (-1, 4), (0, 2), (-1, 6)],  # flat runs in the middle
        [(-1, 10), (1, 7), (0, 4)],             # flat run at the end
        [(0, 3), (1, 1), (0, 3), (-1, 1), (0, 3)],  # flat at both ends and between
        [(0, 40)],                              # all flat
        [(0, 20), (1, 1), (0, 20)],             # a single significant panel
        [(-1, 1)],
    ])
    def test_flat_runs(self, monkeypatch, runs):
        new, ref = self._both(monkeypatch, _runs(*runs))
        assert isinstance(ref, ShapeReport)
        assert new == ref

    def test_too_many_flips(self, monkeypatch):
        signs = _runs(*[(s, 2) for s in [1, -1] * 12], (0, 3), (1, 1))
        new, ref = self._both(monkeypatch, signs, max_modes=16)
        assert ref[0] == "24 derivative sign changes exceed max_modes=16"
        assert new == ref


def _sign_row(n, *runs):
    """Values on logit_grid(n) whose panel signs follow (sign, length)
    runs, the last run cut or stretched to fill the n - 1 panels."""
    signs = _runs(*runs)[: n - 1]
    signs = np.concatenate((signs, np.full(n - 1 - signs.size, signs[-1], dtype=int)))
    return 8.0 + np.concatenate(([0.0], np.cumsum(signs))) * 2.0**-10


def _ratio_rows(n, rng):
    """Quantile-density ratio rows of seeded Tukey, Govindarajulu and DSL pairs."""
    models = []
    for _ in range(6):
        a = rng.uniform(0.1, 4.9, size=2)
        models.append((TukeyGeneralized(a[0] + 1, 1.0, a[0]), TukeyGeneralized(a[1] + 1, 1.0, a[1])))
    for _ in range(4):
        s, b = rng.uniform(0.3, 3.0, size=2).tolist()
        models.append((Govindarajulu(0.0, s, b), UnitExponential()))
    for _ in range(3):
        s, k = rng.uniform(0.5, 2.0, size=2).tolist()
        models.append((parse_spec(f"dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);"
                                  f"s={s!r};k={k!r}"), UnitExponential()))
    models.append((parse_spec("dsl:-s*log(1-p);s=2"), TukeyGeneralized(4, 1, 2.5)))  # oscillatory
    grid = logit_grid(n)
    return [(lambda p, X=X, Y=Y: ratio_qd(X, Y, p), ratio_qd(X, Y, grid)) for X, Y in models]


def _edge_rows(n):
    grid = logit_grid(n)
    interp = lambda vals: (lambda p: np.interp(p, grid, vals))
    rows = [np.full(n, 3.0), _sign_row(n, (1, 5), (-1, 5))]
    for bad in (math.inf, -math.inf, math.nan):
        row = _sign_row(n, (1, 7), (-1, 9))
        row[n // 2] = bad
        rows.append(row)
    rows.append(_sign_row(n, *[(s, 3) for s in [1, -1] * 12]))  # 23 flips
    for flat in (2, 3):
        rows += [_sign_row(n, (0, flat), (1, 6), (-1, 6)),
                 _sign_row(n, (1, 6), (0, flat), (-1, 6), (0, flat), (-1, 6)),
                 _sign_row(n, (-1, 6), (1, 6), (0, flat))]
    # the only significant panel is the last one
    rows.append(8.0 + np.concatenate((np.zeros(n - 1), [2.0**-10])))
    # ends rising where the next row starts falling: no flip across rows
    rows += [_sign_row(n, (-1, 4), (1, 4)), _sign_row(n, (-1, 2), (1, 4))[::-1]]
    return [(interp(vals), vals) for vals in rows]


def _outcome(call):
    try:
        return call()
    except QorderError as exc:
        return exc


def _same(got, ref):
    if isinstance(ref, ShapeReport):
        return got == ref
    return (type(got) is type(ref) and str(got) == str(ref)
            and getattr(got, "modes", None) == getattr(ref, "modes", None))


class TestBatchedSegmentation:
    """find_shapes on a stack gives, row by row, what find_shape gives alone."""

    @pytest.mark.parametrize("n", [3, 512, 4096])
    def test_equals_find_shape_row_by_row(self, n):
        rng = np.random.default_rng(20261019 + n)
        rows = _ratio_rows(n, rng) + _edge_rows(n)
        for _ in range(3):
            order = rng.permutation(len(rows))
            fns = [rows[i][0] for i in order]
            values = np.array([rows[i][1] for i in order])
            got = find_shapes(fns, n, values)
            assert len(got) == len(fns)
            for fn, vals, g in zip(fns, values, got):
                ref = _outcome(lambda: find_shape(fn, n, vals))
                assert _same(g, ref), (n, g, ref)

    def test_the_stack_exercises_every_outcome(self):
        rows = _ratio_rows(512, np.random.default_rng(1)) + _edge_rows(512)
        got = find_shapes([r[0] for r in rows], 512, np.array([r[1] for r in rows]))
        kinds = {g.classification if isinstance(g, ShapeReport) else type(g).__name__ for g in got}
        assert {CONSTANT, INCREASING, UNIMODAL_MAX, UNIMODAL_MIN, N_MODAL, "DomainError",
                "TooOscillatoryError"} <= kinds
        # a segmented row with a run of 3 flat panels
        assert any(isinstance(g, ShapeReport) and g.classification != CONSTANT
                   and np.any(flat[:-2] & flat[1:-1] & flat[2:])
                   for g, flat in zip(got, (np.diff(r[1]) == 0.0 for r in rows)))

    @pytest.mark.parametrize("n", [3, 512])
    def test_one_row_and_no_rows(self, n):
        fn, vals = _edge_rows(n)[1]
        assert find_shapes([fn], n, vals[None]) == [find_shape(fn, n, vals)]
        assert find_shapes([], n, np.empty((0, n))) == []

    def test_rows_must_match_the_functions_and_the_grid(self):
        fn, vals = _edge_rows(512)[1]
        with pytest.raises(ValidationError, match="2 functions for 1 rows"):
            find_shapes([fn, fn], 512, vals[None])
        with pytest.raises(ValidationError, match="512 values .* 4096-point grid"):
            find_shapes([fn], 4096, vals[None])
        with pytest.raises(ValidationError, match="one row per function"):
            find_shapes([fn], 512, vals)

    def test_a_refinement_failure_stays_in_its_row(self):
        fn, vals = _edge_rows(512)[1]

        def failing(p):
            raise DomainError("cannot refine here")

        got = find_shapes([fn, failing, fn], 512, np.array([vals, vals, vals]))
        assert got[0] == got[2] == find_shape(fn, 512, vals)
        assert isinstance(got[1], DomainError) and str(got[1]) == "cannot refine here"
        assert got[1].__traceback__ is None


def _mp_tukey_qd(alpha):
    a = mp.mpf(alpha)
    return lambda p: a * (p ** (a - 1) + (1 - p) ** (a - 1))


def _mp_govindarajulu_qd(sigma, beta):
    s, b = mp.mpf(sigma), mp.mpf(beta)
    return lambda p: s * b * (b + 1) * p ** (b - 1) * (1 - p)


def _mp_weibull_qd(scale, k):
    s, k = mp.mpf(scale), mp.mpf(k)
    return lambda p: s / k * (-mp.log(1 - p)) ** (1 / k - 1) / (1 - p)


_WEIBULL = "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1;k=2"

# (X, Y, grid size, the mpmath quantile densities of X and Y, the modes' kinds)
_MODE_CASES = {
    # the old sign bisection put the outer modes 1.57e-5 off
    "tukey-4.85-vs-0.40": ("tukey:2,1,4.85", "tukey:2,1,0.4", 512,
                           _mp_tukey_qd(4.85), _mp_tukey_qd(0.4), ["min", "max", "min"]),
    # outer modes at 9.35e-6 and 1 - 9.35e-6
    "tukey-1.05-vs-1.20": ("tukey:2,1,1.05", "tukey:2,1,1.2", 512,
                           _mp_tukey_qd(1.05), _mp_tukey_qd(1.2), ["min", "max", "min"]),
    "tukey-worked-pair": ("tukey:4,1,2.5", "tukey:1.5,1,1.5", 4096,
                          _mp_tukey_qd(2.5), _mp_tukey_qd(1.5), ["max"]),
    "govindarajulu-hazard": ("govindarajulu:0,0.53,1.17", "exp1", 4096,
                             _mp_govindarajulu_qd(0.53, 1.17), lambda p: 1 / (1 - p), ["min"]),
    "dsl-weibull": (_WEIBULL, "tukey:2,1,2.5", 4096,
                    _mp_weibull_qd(1, 2), _mp_tukey_qd(2.5), ["max"]),
}


def _mp_extremum(ratio, m):
    """The extremum of the mpmath function ratio next to the float m: the root of
    its derivative, bracketed within 1e-5 of min(m, 1 - m) around m."""
    with mp.workdps(40):
        slope = lambda p: mp.diff(ratio, p)
        width = 1e-5 * min(m, 1.0 - m)
        lo, hi = mp.mpf(m) - width, mp.mpf(m) + width
        assert slope(lo) * slope(hi) < 0
        at = mp.findroot(slope, (lo, hi), solver="anderson", tol=mp.mpf(10) ** -60)
        return at, ratio(at)


class TestRefineModeAgainstMpmath:
    """Each refined mode of a ratio lies where a 40-digit mpmath root of the
    ratio's derivative puts its extremum, and reads its extremal value."""

    @pytest.mark.parametrize("case", sorted(_MODE_CASES))
    def test_mode_locations_and_values(self, case):
        xs, ys, n, qd_x, qd_y, kinds = _MODE_CASES[case]
        X, Y = parse_spec(xs), parse_spec(ys)
        rep = find_shape(lambda p: ratio_qd(X, Y, p), n)
        assert [m.kind for m in rep.modes] == kinds
        ratio = lambda p: qd_y(p) / qd_x(p)
        for mode in rep.modes:
            at, value = _mp_extremum(ratio, mode.location)
            with mp.workdps(40):
                off = abs(mp.mpf(mode.location) - at)
                missed = abs(ratio(mp.mpf(mode.location)) - value) / abs(value)
            assert off <= 1e-8 * min(at, 1 - at), (mode, at)
            assert missed <= 1e-12, (mode, missed)

    def test_symmetric_ratio_mode_at_one_half(self):
        X, Y = TukeyGeneralized(2, 1, 4.85), TukeyGeneralized(2, 1, 0.4)
        calls = []
        fn = lambda p: calls.append(p) or ratio_qd(X, Y, p)
        lo, hi = 0.49, 0.51
        assert _refine_mode(fn, lo, hi, "max") == 0.5
        assert len(calls) == 2  # the slope at the midpoint is exactly 0: nothing to refine

    def test_evaluations_per_off_centre_mode(self):
        X, Y = TukeyGeneralized(2, 1, 4.85), TukeyGeneralized(2, 1, 0.4)
        grid = logit_grid(512)
        i = int(np.searchsorted(grid, 0.1057))
        calls = []
        _refine_mode(lambda p: calls.append(p) or ratio_qd(X, Y, p), grid[i - 1], grid[i + 1], "min")
        assert len(calls) <= 24  # the sign bisection it replaced took 52

    def test_interp_kink(self):
        # the piecewise-linear rows of the loop-reference tests: the extremum is
        # the grid point between the last rising and the first falling panel
        n = 41
        vals = 8.0 + np.concatenate(([0.0], np.cumsum(_runs((1, 13), (-1, 27))))) * 2.0**-10
        grid = logit_grid(n)
        fn = lambda p: np.interp(p, grid, vals)
        kink = grid[13]
        got = _refine_mode(fn, grid[12], grid[14], "max")
        # within the slope's step h <= 2^-16 * min(m, 1 - m)
        assert abs(got - kink) <= 2.0**-16 * min(kink, 1.0 - kink)
        assert find_shape(fn, n, vals).modes == [Mode(got, "max")]

    @pytest.mark.parametrize("fn, kind, want", [
        (lambda p: 1.0, "max", 0.5),  # flat: the midpoint
        (lambda p: math.nan, "min", 0.5),  # not finite: the midpoint
        (lambda p: p, "max", 0.75),  # rising throughout: the slope never turns, the end
        (lambda p: p, "min", 0.25),
    ])
    def test_a_slope_that_confirms_no_extremum(self, fn, kind, want):
        assert _refine_mode(fn, 0.25, 0.75, kind) == want


class TestTukeyRegion:
    def test_worked_cells(self):
        assert tukey_unimodal_region(2.5, 1.5) is True
        assert tukey_unimodal_region(0.5, 1.5) is True

    def test_outside_region(self):
        assert tukey_unimodal_region(2.5, 0.5) is False

    def test_special_alpha_rejected(self):
        with pytest.raises(DomainError):
            tukey_unimodal_region(1.0, 1.5)
        with pytest.raises(DomainError):
            tukey_unimodal_region(2.5, 2.0)

    def test_equal_alphas_rejected(self):
        with pytest.raises(DomainError):
            tukey_unimodal_region(1.5, 1.5)

    def test_region_cells_have_unimodal_ratio(self):
        # spot checks; the full 0.05-step grid runs in the acceptance sweep
        rng = np.random.default_rng(7)
        found = 0
        while found < 12:
            a1, a2 = rng.uniform(0.1, 4.9, size=2)
            try:
                ok = tukey_unimodal_region(a1, a2)
            except DomainError:
                continue
            if not ok:
                continue
            found += 1
            X = TukeyGeneralized(a1 + 1, 1.0, a1)
            Y = TukeyGeneralized(a2 + 1, 1.0, a2)
            rep = find_shape(lambda p: ratio_qd(X, Y, p))
            assert rep.classification == UNIMODAL_MAX, (a1, a2)


def _scan_ref(values, n):
    """Reference: shape._scan as it found flips with whole-grid index arrays
    (flatnonzero of the significant panels, their signs, the products of neighbouring
    signs, the gaps between them and searchsorted row bounds)."""
    grid = logit_grid(n)
    vals = np.asarray(values, dtype=float)
    rows, size = vals.shape
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        vals = np.where(finite[:, None], vals, 0.0)
    finite = finite.tolist()
    signs = shape._panel_signs(vals)
    marks = np.flatnonzero(signs != 0)
    sig = signs[marks]
    flips = np.flatnonzero(sig[1:] * sig[:-1] == -1)
    lo = grid[(marks[flips] - 1) % n].tolist()
    hi = grid[marks[flips + 1] % n].tolist()
    kinds = ["max" if s > 0 else "min" for s in sig[flips].tolist()]
    bounds = np.searchsorted(marks, np.arange(0, rows * n + 1, n))
    firsts = sig[bounds[:-1] + 1].tolist()
    flip_at = np.searchsorted(flips, bounds).tolist()
    out = []
    for r in range(rows):
        a, b = flip_at[r], flip_at[r + 1]
        if not finite[r]:
            out.append(DomainError("function not finite on the working grid"))
        elif b - a > shape.MAX_MODES:
            out.append(TooOscillatoryError(
                f"{b - a} derivative sign changes exceed max_modes={shape.MAX_MODES}",
                modes=[0.5 * (x + y) for x, y in zip(lo[a:b], hi[a:b])],
            ))
        else:
            out.append((0 if firsts[r] == 2 else firsts[r], kinds[a:b], lo[a:b], hi[a:b]))
    return out


def _scan_bits(entries):
    """Scan entries with every float as its repr and every error as (type, text, modes)."""
    out = []
    for e in entries:
        if isinstance(e, QorderError):
            out.append((type(e), str(e), [repr(m) for m in getattr(e, "modes", None) or []]))
        else:
            first, kinds, lo, hi = e
            out.append((first, kinds, [repr(x) for x in lo], [repr(x) for x in hi]))
    return out


def _flips_row(n, flips):
    """A row with ``flips`` flips, a flat panel before the last one."""
    runs = [(s, 2) for s in ([1, -1] * flips)[:flips]]
    return _sign_row(n, *runs, (0, 1), (-runs[-1][0], 2))


def _framed_row(n, head, tail, fill):
    """Values on logit_grid(n) whose panel signs are the (sign, length) runs
    ``head``, then ``fill`` up to the runs ``tail``, which end the row; cut to n - 1 panels."""
    head, tail = _runs(*head), _runs(*tail)
    middle = np.full(max(n - 1 - head.size - tail.size, 0), fill, dtype=int)
    signs = np.concatenate((head, middle, tail))[: n - 1]
    return 8.0 + np.concatenate(([0.0], np.cumsum(signs))) * 2.0**-10


def _scan_edge_rows(n, rng):
    """Rows for the scan: flat runs of 1-4 panels at each edge and inside, constant rows,
    MAX_MODES and MAX_MODES + 1 flips, non-finite rows and seeded random sign runs."""
    rows = [np.full(n, 3.0), np.full(n, -0.0), _sign_row(n, (1, 1)), _sign_row(n, (-1, 1))]
    for flat in (1, 2, 3, 4):
        rows += [_framed_row(n, [(0, flat), (1, 6)], [(-1, 6)], -1),
                 _framed_row(n, [(-1, 6)], [(1, 6), (0, flat)], 1),
                 _framed_row(n, [(0, flat), (1, 2)], [(-1, 2), (0, flat)], -1),
                 _framed_row(n, [(1, 6), (0, flat), (-1, 6), (0, flat), (1, 6)],
                             [(0, flat), (1, 2), (0, flat)], 1),
                 _framed_row(n, [(1, 6), (0, flat), (1, 6)], [(0, flat), (1, 1)], 1),
                 _framed_row(n, [(0, flat), (-1, 1)], [(0, flat)], 0)]
    rows += [_flips_row(n, shape.MAX_MODES), _flips_row(n, shape.MAX_MODES + 1)]
    for bad in (math.inf, -math.inf, math.nan):
        row = _sign_row(n, (1, 5), (-1, 5))
        row[rng.integers(n)] = bad
        rows.append(row)
    for _ in range(12):
        rows.append(_sign_row(n, *[(int(s), int(k)) for s, k in
                                   zip(rng.integers(-1, 2, 30), rng.integers(1, 6, 30))]))
    return rows


class TestScanReference:
    """The run walk of _scan gives the reference's entries, bit for bit, batch by batch."""

    @pytest.mark.parametrize("n", [3, 4, 64, 512, 4096])
    def test_edge_rows_alone_and_in_mixed_batches(self, n):
        rng = np.random.default_rng(2020 + n)
        rows = _scan_edge_rows(n, rng) + [vals for _, vals in _ratio_rows(n, rng)]
        for row in rows:
            assert _scan_bits(shape._scan(row[None], n)) == _scan_bits(_scan_ref(row[None], n))
        for _ in range(4):
            batch = np.array([rows[i] for i in rng.permutation(len(rows))[:rng.integers(1, 20)]])
            assert _scan_bits(shape._scan(batch, n)) == _scan_bits(_scan_ref(batch, n))
        assert shape._scan(np.empty((0, n)), n) == _scan_ref(np.empty((0, n)), n) == []

    def test_the_oscillation_limit_keeps_its_text_and_modes(self):
        n = 512
        at, past = _flips_row(n, shape.MAX_MODES), _flips_row(n, shape.MAX_MODES + 1)
        ok, err = shape._scan(np.array([at, past]), n)
        assert len(ok[1]) == shape.MAX_MODES
        assert isinstance(err, TooOscillatoryError)
        assert str(err) == f"{shape.MAX_MODES + 1} derivative sign changes exceed max_modes=16"
        assert err.modes == _scan_ref(past[None], n)[0].modes

    def test_seeded_random_rows(self):
        rng = np.random.default_rng(20261020)
        for _ in range(60):
            n = int(rng.choice([3, 4, 64, 512]))
            batch = np.array([_sign_row(n, *[(int(s), int(k)) for s, k in
                                             zip(rng.integers(-1, 2, 40), rng.integers(1, 8, 40))])
                              for _ in range(rng.integers(1, 6))])
            batch[rng.random(batch.shape) < 0.002] = np.nan
            assert _scan_bits(shape._scan(batch, n)) == _scan_bits(_scan_ref(batch, n))
