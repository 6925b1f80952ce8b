"""GridProfile's cumulative integrals: one pass over the panel nodes, a slice at a time.

The reference below is the two-evaluation path: each integral builds its own
panel nodes and evaluates the model on all of them at once.  The sliced pass
must give the same bits, and the same error where it fails.
"""

import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from qorder import oracle
from qorder.aging import aging_report
from qorder.cli import parse_spec
from qorder.dsl import DslModel
from qorder.errors import ValidationError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.orders import PairContext, compare_all

WEIBULL = "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s={s};k={k}"
LOGLOGISTIC = "dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s={s};b={b}"
SPECS = [
    "tukey:4,1,2.5", "tukey:1.5,1,1.5", "tukey:2,1,0.5", "tukey:1,1,1", "tukey:3,2,4",
    "govindarajulu:0,2,2", "govindarajulu:0,0.53,1.17", "govindarajulu:1,1,0.5",
    "govindarajulu:0,1,1", "exp1",
    WEIBULL.format(s=2.42016, k=1.99702), WEIBULL.format(s=1, k=0.7),
    LOGLOGISTIC.format(s=2.08376, b=3.36564), LOGLOGISTIC.format(s=0.586315, b=2.59233),
    "dsl:-s*log(1-p);s=2", "dsl:-s*log(1-p);s=1.84233", "dsl:p+p^3",
]
GRIDS = [3, 4, 64, 512, 513, 1025, 4096]  # slice edges on, before and after n - 1 = 512 k


def _reference_panels(fn, grid):
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    pts = mid[:, None] + half[:, None] * oracle._GL_NODES[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * (vals @ oracle._GL_WEIGHTS)


def _reference_lower(X, grid):
    fn = lambda q: q * X.quantile_density(q)  # noqa: E731
    head = oracle.quadrature(fn, 0.0, float(grid[0]), rel_tol=1e-10)
    out = np.empty_like(grid)
    out[0] = head
    out[1:] = head + np.cumsum(_reference_panels(fn, grid))
    return out


def _reference_upper(X, grid):
    fn = lambda q: (1.0 - q) * X.quantile_density(q)  # noqa: E731
    tail = oracle.quadrature(fn, float(grid[-1]), 1.0, rel_tol=1e-10)
    out = np.empty_like(grid)
    out[-1] = tail
    out[:-1] = tail + np.cumsum(_reference_panels(fn, grid)[::-1])[::-1]
    return out


def _outcome(fn, *args):
    """("ok", bytes) of a float array, or ("error", type, message)."""
    try:
        value = fn(*args)
    except Exception as exc:  # the comparison is the point: any error must match
        return ("error", type(exc), str(exc))
    return ("ok", np.asarray(value, dtype=float).tobytes())


class TestBitEqualToTheTwoEvaluationPath:
    @pytest.mark.parametrize("n", GRIDS)
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("first", ["lower", "upper"])
    def test_lower_and_upper(self, spec, n, first):
        X = parse_spec(spec)
        prof = X.profile(n)
        second = "upper" if first == "lower" else "lower"
        got = {name: _outcome(getattr, prof, name) for name in (first, second)}
        ref = parse_spec(spec)
        assert got["lower"] == _outcome(_reference_lower, ref, prof.grid)
        assert got["upper"] == _outcome(_reference_upper, ref, prof.grid)
        # a call with a dict of its own runs its own pass
        assert got["lower"] == _outcome(oracle.lower_cumulative, ref.quantile_density, n, {})
        assert got["upper"] == _outcome(oracle.upper_cumulative, ref.quantile_density, n, {})

    def test_a_failing_integral_raises_as_the_reference_does(self):
        # (1-q)*qd and q*qd of a Tukey model with alpha <= -1 diverge at the endpoints
        X, ref = TukeyGeneralized(0.0, -1.0, -1.5), TukeyGeneralized(0.0, -1.0, -1.5)
        prof = X.profile(512)
        for name, reference in (("upper", _reference_upper), ("lower", _reference_lower)):
            got = _outcome(getattr, prof, name)
            assert got[0] == "error"
            assert got == _outcome(reference, ref, prof.grid)

    @pytest.mark.parametrize("spec", [LOGLOGISTIC.format(s=0.930371, b=2.74927),
                                      "dsl:-s*log(1-p);s=2"])
    @pytest.mark.parametrize("first", ["lower", "upper"])
    def test_a_failing_tail_raises_as_the_reference_does(self, spec, first):
        # the head converges and the tail does not: upper raises whether or not lower
        # has run the pass
        X, ref = parse_spec(spec), parse_spec(spec)
        prof = X.profile(512)
        second = "upper" if first == "lower" else "lower"
        got = {name: _outcome(getattr, prof, name) for name in (first, second)}
        assert got["lower"][0] == "ok" and got["upper"][0] == "error"
        assert got["lower"] == _outcome(_reference_lower, ref, prof.grid)
        assert got["upper"] == _outcome(_reference_upper, ref, prof.grid)


def _node_spy(monkeypatch, n=4096):
    """Record, per model, (first node, node count, writeable) of each quantile_density
    call on a view of panel_nodes(n)."""
    nodes = oracle.panel_nodes(n)
    start = nodes.__array_interface__["data"][0]
    views = defaultdict(list)
    for cls in (TukeyGeneralized, Govindarajulu, UnitExponential, DslModel):
        real = cls.quantile_density

        def spy(self, p, real=real):
            if isinstance(p, np.ndarray) and np.shares_memory(p, nodes):
                first = (p.__array_interface__["data"][0] - start) // nodes.itemsize
                views[id(self)].append((first, p.size, p.flags.writeable))
            return real(self, p)

        monkeypatch.setattr(cls, "quantile_density", spy)
    return views


def _one_pass(n):
    """The views of one pass: consecutive read-only slices of PANEL_SLICE panels' nodes."""
    size, step = oracle.panel_nodes(n).size, oracle.PANEL_SLICE * oracle._GL_NODES.size
    return [(first, min(step, size - first), False) for first in range(0, size, step)]


class TestOneNodePass:
    @pytest.mark.parametrize("x, y", [
        ("tukey:4,1,2.5", "tukey:1.5,1,1.5"),
        ("govindarajulu:0,2,2", "exp1"),
        (WEIBULL.format(s=2.42016, k=1.99702), "dsl:p+p^3"),
    ])
    def test_both_evaluates_each_model_once_on_each_node(self, monkeypatch, x, y):
        views = _node_spy(monkeypatch)
        X, Y = parse_spec(x), parse_spec(y)  # fresh: no profile memo from other tests
        compare_all(X, Y, method="both")
        assert "lower" in vars(X.profile(4096)) and "upper" in vars(X.profile(4096))
        assert views == {id(X): _one_pass(4096), id(Y): _one_pass(4096)}

    def test_aging_evaluates_the_model_once_on_each_node(self, monkeypatch):
        views = _node_spy(monkeypatch)
        X = Govindarajulu(0, 2, 2)
        aging_report(X)
        assert views[id(X)] == _one_pass(4096)
        assert all(seen == _one_pass(4096) for seen in views.values())  # Exp(1)'s too

    @pytest.mark.parametrize("n", GRIDS)
    @pytest.mark.parametrize("first", ["lower", "upper"])
    def test_the_first_read_runs_the_pass_for_both(self, monkeypatch, n, first):
        views = _node_spy(monkeypatch, n)
        X = TukeyGeneralized(4, 1, 2.5)
        prof = X.profile(n)
        getattr(prof, first)
        assert views == {id(X): _one_pass(n)}
        getattr(prof, "upper" if first == "lower" else "lower")
        assert views == {id(X): _one_pass(n)}
        assert prof._shared == {}  # no panel integrals are kept once both are read


class TestPeakMemory:
    """lower and upper hold no node-sized array: at n = 4096 the pass peaks at the two
    panel arrays and one slice's evaluation, a little over half a node array (229 KB);
    the whole-array path peaked at 2.6."""

    @pytest.mark.parametrize("spec", ["tukey:4,1,2.5", "govindarajulu:0.5,1,0.5", "exp1",
                                      WEIBULL.format(s=2.42016, k=1.99702)])
    def test_lower_and_upper_peak_well_under_one_node_array(self, spec):
        nodes = oracle.panel_nodes(4096)
        warm = parse_spec(spec)
        warm.profile(4096).upper  # anything built once, on first use, is left out
        X = parse_spec(spec)
        prof = X.profile(4096)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            prof.lower, prof.upper
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.75 * nodes.nbytes


class TestDeadModel:
    def test_reading_a_profile_of_a_gone_model_raises(self):
        prof = TukeyGeneralized(4, 1, 2.5).profile(512)  # nothing else holds the model
        for name in ("q", "qd", "lower", "upper"):
            with pytest.raises(ValidationError, match="^the profile's model no longer exists"):
                getattr(prof, name)

    def test_values_read_before_the_model_went_stay(self):
        X = TukeyGeneralized(4, 1, 2.5)
        prof = X.profile(512)
        q = prof.q
        del X
        assert prof.q is q


class TestReadOnlyValues:
    """A profile's values are shared by every reader: a write would change every later verdict."""

    @pytest.mark.parametrize("spec", ["tukey:4,1,2.5", "govindarajulu:0,2,2", "exp1",
                                      WEIBULL.format(s=2.42016, k=1.99702)])
    def test_a_write_raises(self, spec):
        X = parse_spec(spec)
        prof = X.profile(512)
        for name in ("q", "qd", "lower", "upper"):
            value = getattr(prof, name)
            with pytest.raises(ValueError, match="read-only"):
                value[:2] *= 0.5

    def test_the_worked_pair_keeps_its_star_verdict(self):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        with pytest.raises(ValueError):
            X.profile(4096).q[:2048] *= 0.5
        star = {v.order: v.status for v in compare_all(X, Y, method="oracle")}["star"]
        assert star == "Holds"


class TestGridSizeBelowThree:
    @pytest.mark.parametrize("n", [4096.0, 100.5, "512", None])
    def test_a_grid_size_that_is_no_integer_is_rejected(self, n):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        message = f"^grid size must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValidationError, match=message):
            PairContext(X, Y, n)
        for method in ("theorem", "oracle", "both"):
            with pytest.raises(ValidationError, match=message):
                compare_all(X, Y, n, method=method)
        with pytest.raises(ValidationError, match=message):
            aging_report(Govindarajulu(0, 2, 2), n)

    def test_numpy_integers_are_accepted(self):
        assert PairContext(TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5),
                           np.int64(64)).n == 64

    @pytest.mark.parametrize("n", [2, 1, 0, -5])
    def test_pair_context_rejects_it(self, n):
        X, Y = TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5)
        with pytest.raises(ValidationError, match=f"^grid size must be at least 3, got {n}$"):
            PairContext(X, Y, n)
        for method in ("theorem", "oracle", "both"):
            with pytest.raises(ValidationError, match="grid size must be at least 3"):
                compare_all(X, Y, n, method=method)

    def test_aging_report_rejects_it(self):
        with pytest.raises(ValidationError, match="^grid size must be at least 3, got 2$"):
            aging_report(Govindarajulu(0, 2, 2), 2)

    def test_three_is_accepted(self):
        assert len(compare_all(TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5), 3,
                               method="theorem")) == 6

