import numpy as np
import pytest

from qorder.empirical import (
    SampleSet,
    convexity_scan,
    empirical_quantile,
    load_samples,
    qq_transform,
)
from qorder.errors import DomainError, ValidationError


class TestSampleSet:
    def test_sorts_input(self):
        s = SampleSet((3.0, 1.0, 2.0))
        assert s.values == (1.0, 2.0, 3.0)
        assert s.n == 3

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValidationError):
            SampleSet((1.0,))
        with pytest.raises(ValidationError):
            SampleSet((1.0, float("nan")))
        with pytest.raises(ValidationError):
            SampleSet((1.0, float("inf")))


class TestLoadSamples(object):
    def test_newline_and_comma_mix(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.5, 2.5\n0.5\n")
        assert load_samples(f).values == (0.5, 1.5, 2.5)

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("lifetime\n4\n2\n9\n")
        assert load_samples(f).values == (2.0, 4.0, 9.0)

    def test_late_non_numeric_reports_record(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1\n2\noops\n4\n")
        with pytest.raises(ValidationError, match="record 3"):
            load_samples(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\n\n")
        with pytest.raises(ValidationError, match="empty"):
            load_samples(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("lifetime\n7\n")
        with pytest.raises(ValidationError, match="fewer than 2"):
            load_samples(f)


class TestEmpiricalQuantile:
    def test_generalized_inverse_positions(self):
        s = SampleSet((1.0, 2.0, 3.0))
        # ceil(3*0.5) = 2 -> second order statistic
        assert empirical_quantile(s, 0.5) == 2.0
        assert empirical_quantile(s, 0.34) == 2.0
        assert empirical_quantile(s, 1 / 3) == 1.0
        assert empirical_quantile(s, 0.99) == 3.0

    def test_domain(self):
        s = SampleSet((1.0, 2.0))
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                empirical_quantile(s, p)


class TestQqTransform:
    def test_identity_is_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            vals = tuple(rng.exponential(size=rng.integers(5, 60)))
            s = SampleSet(vals)
            pts = qq_transform(s, s)
            assert len(pts) == s.n
            for x, y in pts:
                assert y == x

    def test_affine_equivariance_exact(self):
        rng = np.random.default_rng(7)
        vals = tuple(rng.gamma(2.0, size=40))
        sx = SampleSet(vals)
        a, b = 2.5, 1.25
        sy = SampleSet(tuple(a * v + b for v in vals))
        for (x, y), (x2, y2) in zip(qq_transform(sx, sx), qq_transform(sx, sy)):
            assert x2 == x
            assert y2 == a * y + b

    def test_x_coordinates_are_order_statistics(self):
        sx = SampleSet((5.0, 1.0, 3.0))
        sy = SampleSet((10.0, 20.0, 30.0))
        assert [x for x, _ in qq_transform(sx, sy)] == [1.0, 3.0, 5.0]


class TestConvexityScan:
    def test_linear(self):
        pts = [(x, 2 * x + 1) for x in np.linspace(0, 1, 30)]
        assert convexity_scan(pts)["pattern"] == "linear"

    def test_convex_parabola(self):
        pts = [(x, x * x) for x in np.linspace(0, 2, 20)]
        assert convexity_scan(pts)["pattern"] == "convex"

    def test_concave(self):
        pts = [(x, np.sqrt(x)) for x in np.linspace(0.1, 2, 25)]
        assert convexity_scan(pts)["pattern"] == "concave"

    def test_convex_then_concave(self):
        xs = np.linspace(0.05, 0.95, 60)
        pts = [(x, 1.0 / (1.0 + np.exp(-12 * (x - 0.5)))) for x in xs]
        assert convexity_scan(pts)["pattern"] == "concave-then-convex" or \
            convexity_scan(pts)["pattern"] == "convex-then-concave"

    def test_duplicate_x_jitter_warns(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (1.0, 1.5), (2.0, 4.0), (3.0, 9.0)]
        out = convexity_scan(pts)
        assert any("jitter" in w for w in out["warnings"])

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            convexity_scan([(0, 0), (1, 1), (2, 2)])

    def test_min_run_suppresses_noise(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 2, 100)
        ys = xs**2 + 1e-12 * rng.standard_normal(100)
        out = convexity_scan(list(zip(xs, ys)))
        assert out["pattern"] == "convex"
