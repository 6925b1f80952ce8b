import json
import math
import warnings

import numpy as np
import pytest

from qorder.aging import hazard_quantile
from qorder.cli import dumps, main, parse_spec
from qorder.empirical import SampleSet
from qorder.errors import ParseError
from qorder.models import Govindarajulu, TukeyGeneralized, UnitExponential
from qorder.oracle import logit_grid, lower_cumulative, upper_cumulative
from qorder.shape import ratio_qd


def _curve_columns(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines]).T


def _assert_close_to_pointwise(got, ref):
    # array and per-point evaluation may round differently in the last bits
    assert got.shape == ref.shape
    for g, r in zip(got, ref):
        scale = np.max(np.abs(r[np.isfinite(r)]))
        np.testing.assert_allclose(g, r, rtol=0.0, atol=1e-12 * scale)


class TestParseSpec:
    def test_builtins(self):
        assert isinstance(parse_spec("exp1"), UnitExponential)
        t = parse_spec("tukey:4,1,2.5")
        assert isinstance(t, TukeyGeneralized)
        assert (t.lam, t.eta, t.alpha) == (4.0, 1.0, 2.5)
        g = parse_spec("govindarajulu:0,2,2")
        assert isinstance(g, Govindarajulu)

    def test_dsl_with_bindings(self):
        m = parse_spec("dsl:-s*log(1-p);s=2")
        assert m.quantile(0.5) == pytest.approx(2 * 0.6931471805599453)

    def test_csv(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1\n2\n3\n")
        assert isinstance(parse_spec(f"csv:{f}"), SampleSet)

    def test_errors(self):
        for bad in ("weibull:1,2", "tukey:1,2", "tukey:a,b,c", "nonsense", "dsl:p;oops"):
            with pytest.raises(ParseError):
                parse_spec(bad)


class TestDumps:
    def test_special_floats_and_order(self):
        s = dumps({"b": float("inf"), "a": float("nan"), "x": [1, 2.5]})
        # insertion order preserved, specials as strings
        assert s.index('"b"') < s.index('"a"') < s.index('"x"')
        assert '"+inf"' in s and '"nan"' in s
        assert json.loads(s) == {"b": "+inf", "a": "nan", "x": [1, 2.5]}


class TestCompareCommand:
    ARGS = ["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5"]

    def test_worked_pair_exit_and_payload(self, capsys):
        assert main(self.ARGS) == 0
        rep = json.loads(capsys.readouterr().out)
        statuses = {v["order"]: v["status"] for v in rep["verdicts"]}
        assert statuses["star"] == "Holds"
        assert statuses["convex"] == "BothDirectionsFail"
        assert statuses["nbue"] == "Holds"

    def test_output_deterministic(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        assert capsys.readouterr().out == first

    def test_equivalent_pair(self, capsys):
        assert main(["compare", "--x", "exp1", "--y", "exp1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert {v["status"] for v in rep["verdicts"]} == {"Equivalent"}

    def test_inconclusive_exits_two(self, capsys):
        # no implying order holds for this pair, so nbue stays Inconclusive
        code = main(["compare", "--x", "govindarajulu:0,2,2", "--y", "exp1",
                     "--method", "theorem"])
        out = json.loads(capsys.readouterr().out)
        statuses = {v["order"]: v["status"] for v in out["verdicts"]}
        assert statuses["nbue"] == "Inconclusive"
        assert code == 2

    def test_negative_support_exits_one(self, capsys):
        assert main(["compare", "--x", "tukey:1,2,3", "--y", "exp1"]) == 1
        assert "support" in capsys.readouterr().err

    def test_no_numpy_warning_leaks(self, capsys):
        # the ratio's grid values divide by zero; the report is the error line alone
        argv = ["compare", "--x", "dsl:-s*log(1-p);s=0.675112",
                "--y", "govindarajulu:0.779561,2.77642,1.11827"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 1
        assert capsys.readouterr().err.startswith("qorder: error: ")

    def test_sample_input_refused(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        f.write_text("1\n2\n3\n")
        assert main(["compare", "--x", f"csv:{f}", "--y", "exp1"]) == 1
        assert "empirical" in capsys.readouterr().err

    def test_curves_csv(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        main(self.ARGS + ["--curves", str(curves)])
        capsys.readouterr()
        header = curves.read_text().splitlines()[0].split(",")
        assert header == ["p", "ratio_qd", "delta", "delta_ps",
                          "quantile_ratio", "eps_x", "eps_y"]

    def test_curves_match_pointwise_reference(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        main(self.ARGS + ["--method", "theorem", "--curves", str(curves)])
        capsys.readouterr()
        X, Y = parse_spec(self.ARGS[2]), parse_spec(self.ARGS[4])
        grid = logit_grid(1024, 1e-4)
        ux = upper_cumulative(lambda q: (1.0 - q) * X.quantile_density(q), grid)
        uy = upper_cumulative(lambda q: (1.0 - q) * Y.quantile_density(q), grid)
        rows = []
        for i, p in enumerate(grid):
            fx, gy, r = float(X.quantile(p)), float(Y.quantile(p)), float(ratio_qd(X, Y, p))
            rows.append((p, r, fx * r - gy, fx / X.mean - gy / Y.mean,
                         gy / fx if fx != 0.0 else math.inf,
                         ux[i] / fx if fx > 0.0 else math.inf,
                         uy[i] / gy if gy > 0.0 else math.inf))
        _assert_close_to_pointwise(_curve_columns(curves), np.array(rows).T)


class TestAgingCommand:
    def test_worked_report(self, capsys, tmp_path):
        curves = tmp_path / "aging.csv"
        assert main(["aging", "--x", "govindarajulu:0,2,2",
                     "--curves", str(curves)]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["hazard"]["status"] == "BT"
        assert rep["mrl_class"] == "UBT"
        assert rep["ihrwa_class"] == "BT"
        assert rep["ifra_class"] == "Neither"
        header = curves.read_text().splitlines()[0].split(",")
        assert header == ["p", "hazard", "mrl", "wa_surrogate"]

    def test_curves_match_pointwise_reference(self, capsys, tmp_path):
        curves = tmp_path / "aging.csv"
        main(["aging", "--x", "govindarajulu:0,2,2", "--curves", str(curves)])
        capsys.readouterr()
        X = Govindarajulu(0, 2, 2)
        grid = logit_grid(1024, 1e-4)
        ux = upper_cumulative(lambda q: (1.0 - q) * X.quantile_density(q), grid)
        lx = lower_cumulative(lambda q: q * X.quantile_density(q), grid)
        ref = [(p, float(hazard_quantile(X, p)), ux[i] / (1.0 - p), (-math.log1p(-p) - p) / lx[i])
               for i, p in enumerate(grid)]
        _assert_close_to_pointwise(_curve_columns(curves), np.array(ref).T)


class TestEmpiricalCommand:
    def test_identity_samples(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        f.write_text("\n".join(str(0.3 * i + 1) for i in range(12)))
        out = tmp_path / "qq.csv"
        assert main(["empirical", "--x", f"csv:{f}", "--y", f"csv:{f}",
                     "--out", str(out)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["diagnostic"]["pattern"] == "linear"
        assert len(out.read_text().splitlines()) == 13  # header + n rows


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--alpha1-min", "2.4", "--alpha1-max", "2.6",
                     "--alpha2-min", "1.4", "--alpha2-max", "1.6",
                     "--step", "0.1", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["alpha1", "alpha2", "in_region", "ratio_shape"]
        assert len(lines) == 1 + 3 * 3
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["alpha1"]) == pytest.approx(2.4)
        assert float(row["alpha2"]) == pytest.approx(1.4)
        assert row["in_region"] == "true"
        assert row["ratio_shape"] == "UnimodalMax"

    def test_worked_cell_star_holds(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--alpha1-min", "2.5", "--alpha1-max", "2.5",
              "--alpha2-min", "1.5", "--alpha2-max", "1.5",
              "--lam1", "4", "--lam2", "1.5",
              "--step", "0.1", "--out", str(out)])
        capsys.readouterr()
        header, row = [l.split(",") for l in out.read_text().splitlines()[:2]]
        cell = dict(zip(header, row))
        assert cell["in_region"] == "true"
        assert cell["ratio_shape"] == "UnimodalMax"
        assert cell["star"] == "Holds"


class TestEvalCommand:
    def test_simple(self, capsys):
        assert main(["eval", "--qf", "p^2", "--at", "0.5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == 0.25

    def test_params(self, capsys):
        assert main(["eval", "--qf=-s*log(1-p)", "--param", "s=3",
                     "--at", "0.5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == pytest.approx(3 * 0.6931471805599453)

    def test_parse_error_exit(self, capsys):
        assert main(["eval", "--qf", "p +", "--at", "0.5"]) == 1
        assert "syntax error" in capsys.readouterr().err
