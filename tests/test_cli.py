import dataclasses
import json
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from qorder import aging as aging_mod
from qorder.aging import aging_report, hazard_quantile
from qorder import cli
from qorder.cli import dumps, main, parse_spec
from qorder.deltas import ratio_qd
from qorder.dsl import DslModel
from qorder.empirical import SampleSet
from qorder.errors import ParseError, QorderError, ValidationError
from qorder.models import Govindarajulu, GridProfile, TukeyGeneralized, UnitExponential
from qorder.oracle import logit_grid, lower_cumulative, upper_cumulative
from qorder.orders import Condition, PairContext, compare_all, theorem_status
from qorder.shape import tukey_unimodal_region


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

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_bools_are_json_booleans(self, value):
        assert dumps(value) == ("true" if value else "false")
        assert json.loads(dumps({"ok": [value]})) == {"ok": [bool(value)]}


def _dumps_ref(obj, indent=0):
    """Reference: dumps as it tested each value against an isinstance chain and escaped
    strings through json.dumps."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"+inf"' if v > 0 else '"-inf"'
        return "%.17g" % v
    if isinstance(obj, dict):
        items = [f'{pad}  {_dumps_ref(str(k))}: {_dumps_ref(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_dumps_ref(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    return _dumps_ref(str(obj))


# the reference layout of the result types: what each wrote through a to_dict of its own
def _condition_ref(c):
    v = c.value
    if isinstance(v, float) and not math.isfinite(v):
        v = "+inf" if v > 0 else "-inf"
    return {"name": c.name, "value": v, "threshold": c.threshold, "satisfied": c.satisfied}


def _certificate_ref(cert):
    return {"theorem": cert.theorem, "conditions": [_condition_ref(c) for c in cert.conditions],
            "notes": list(cert.notes)}


def _verdict_ref(v):
    return {"order": v.order, "status": v.status, "method": v.method,
            "certificate": _certificate_ref(v.certificate)}


def _hazard_ref(h):
    return {"status": h.status, "modes": [list(m) for m in h.modes]}


def _aging_ref(r):
    return {"hazard": _hazard_ref(r.hazard), "mrl_class": r.mrl_class,
            "ihrwa_class": r.ihrwa_class, "ifra_class": r.ifra_class, "evidence": r.evidence,
            "notes": list(r.notes)}


class _Label:
    def __str__(self):
        return "label \u00e9\n"


class _Key(str):
    pass


_SCALARS = [None, True, False, np.True_, np.False_, 0, -7, 2**70, np.int64(-3), np.int8(5),
            np.uint64(2**64 - 1), 0.1, -0.0, 0.0, 1e-310, 1.7976931348623157e308, math.nan,
            -math.nan, math.inf, -math.inf, np.float32(0.1), np.float64(-2.5), np.float32("nan"),
            np.float16("-inf"), "", "plain", "caf\u00e9 \u2264 \U0001d54f", "tab\tquote\"back\\slash",
            "".join(map(chr, range(32))) + "\x7f", _Key("sub"), _Label(), np.str_("np"),
            3 + 4j, b"bytes"]


def _random_report(rng, depth=0):
    pick = rng.integers(6 if depth < 4 else 2)
    if pick < 2:
        return _SCALARS[rng.integers(len(_SCALARS))]
    if pick == 2:
        return [_random_report(rng, depth + 1) for _ in range(rng.integers(4))]
    if pick == 3:
        return tuple(_random_report(rng, depth + 1) for _ in range(rng.integers(4)))
    keys = ["k", "caf\u00e9", 3, 2.5, None, True, _Key("s"), ("t", 1)]
    return {keys[rng.integers(len(keys))]: _random_report(rng, depth + 1)
            for _ in range(rng.integers(5))}


class TestDumpsReference:
    """dumps writes the reference's bytes for every type it accepts, at every indent,
    and a result (a dataclass) in the reference layout of its type."""

    @pytest.mark.parametrize("value", _SCALARS, ids=repr)
    def test_scalars(self, value):
        for indent in (0, 2, 5):
            assert dumps(value, indent) == _dumps_ref(value, indent)

    def test_containers(self):
        values = [{}, [], (), {"a": {}}, [[], {}], (1, (2, 3)), {1: 2, None: 3, 2.5: [4]},
                  {"a": _SCALARS, "b": dict(enumerate(_SCALARS))}, list(_SCALARS)]
        for value in values:
            for indent in (0, 3):
                assert dumps(value, indent) == _dumps_ref(value, indent)

    def test_seeded_random_reports(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            report = _random_report(rng)
            assert dumps(report) == _dumps_ref(report)

    def test_worked_pair_verdicts(self):
        verdicts = compare_all(TukeyGeneralized(4, 1, 2.5), TukeyGeneralized(1.5, 1, 1.5),
                               method="both")
        assert len(verdicts) == 6
        for indent in (0, 3):
            assert dumps(verdicts, indent) == _dumps_ref([_verdict_ref(v) for v in verdicts],
                                                         indent)

    def test_aging_report(self):
        report = aging_report(Govindarajulu(0, 2, 2))
        assert dumps(report) == _dumps_ref(_aging_ref(report))

    def test_infinite_condition_values(self):
        for value in (math.inf, -math.inf, 0.25, "indeterminate"):
            cond = Condition("lim_delta_0", value, ">= 0", None)
            assert dumps(cond) == _dumps_ref(_condition_ref(cond))

    def test_dataclass_of_one_field(self):
        @dataclasses.dataclass
        class One:
            values: list

        for indent in (0, 2):
            assert dumps(One([1.5, None]), indent) == _dumps_ref({"values": [1.5, None]}, indent)

    def test_nan_condition_value_reads_nan(self):
        assert json.loads(dumps(Condition("delta_at_pstar", math.nan, ">= 0", None))) == {
            "name": "delta_at_pstar", "value": "nan", "threshold": ">= 0", "satisfied": None}

    def test_command_reports(self, tmp_path):
        for argv in (["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5"],
                     ["aging", "--x", "govindarajulu:0,2,2"]):
            out = tmp_path / "r.json"
            main(argv + ["--out", str(out)])
            report = json.loads(out.read_text())
            assert out.read_text() == dumps(report) + "\n" == _dumps_ref(report) + "\n"


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

    def test_an_infinite_mean_leaves_nbue_not_run(self, capsys):
        # X is log-logistic with shape 0.8, whose mean diverges; star holds reversed on the
        # grid, but nbue compares the means, so no implication reaches it
        argv = ["compare", "--x", "dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s=1;b=0.8",
                "--y", "exp1", "--method", "theorem"]
        assert main(argv) == 2
        verdicts = {v["order"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert verdicts["star"]["status"] == "HoldsReversed"
        for order in ("qmit", "dmrl", "ps", "nbue"):
            assert verdicts[order] == {**verdicts["qmit"], "order": order}
        nbue = verdicts["nbue"]
        assert (nbue["status"], nbue["method"], nbue["certificate"]["theorem"]) == \
            ("Inconclusive", "theorem", "not run")
        assert [c["name"] for c in nbue["certificate"]["conditions"]] == ["finite_mean"]

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
        every = slice(None, None, 4)  # every 4th point of the 4096-point grid: 1,024 rows
        grid = logit_grid(4096)[every]
        ux = upper_cumulative(X.quantile_density, 4096, {})[every]
        uy = upper_cumulative(Y.quantile_density, 4096, {})[every]
        rows = []
        for i, p in enumerate(grid):
            fx, gy, r = float(X.quantile(p)), float(Y.quantile(p)), float(ratio_qd(X, Y, p))
            rows.append((p, r, fx * r - gy, fx / X.mean - gy / Y.mean,
                         gy / fx if fx != 0.0 else math.inf,
                         ux[i] / fx if fx > 0.0 else math.inf,
                         uy[i] / gy if gy > 0.0 else math.inf))
        _assert_close_to_pointwise(_curve_columns(curves), np.array(rows).T)

    def test_curves_with_a_failing_integral_keep_the_verdicts(self, tmp_path, capsys):
        # Y's mean and its upper tail on (1 - 1e-6, 1) diverge; the verdicts do not need them
        argv = ["compare", "--x", "tukey:2,1,0.5", "--y", "dsl:p/(1-p);qdf=1/(1-p)^2",
                "--method", "theorem"]
        assert main(argv) == 2
        plain = capsys.readouterr()
        curves = tmp_path / "curves.csv"
        assert main(argv + ["--curves", str(curves)]) == 2
        got = capsys.readouterr()
        assert got.err == plain.err == ""
        report = json.loads(got.out)
        assert len(report["verdicts"]) == 6 and report["curves"] == str(curves)
        assert report["verdicts"] == json.loads(plain.out)["verdicts"]
        cols = _curve_columns(curves)
        header = curves.read_text().splitlines()[0].split(",")
        for name, col in zip(header, cols):
            assert np.all(np.isnan(col)) == (name in ("delta_ps", "eps_y")), name


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
        every = slice(None, None, 4)  # every 4th point of the 4096-point grid: 1,024 rows
        grid = logit_grid(4096)[every]
        ux = upper_cumulative(X.quantile_density, 4096, {})[every]
        lx = lower_cumulative(X.quantile_density, 4096, {})[every]
        ref = [(p, float(hazard_quantile(X, p)), ux[i] / (1.0 - p), (-math.log1p(-p) - p) / lx[i])
               for i, p in enumerate(grid)]
        _assert_close_to_pointwise(_curve_columns(curves), np.array(ref).T)


class TestCurvesOnTheVerdictGrid:
    """--curves writes the profiles that the verdicts were decided on: every k-th point
    of logit_grid(n) from the first, k = ceil(n / CURVE_ROWS)."""

    COMMANDS = {"compare": ["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5",
                            "--method", "theorem"],
                "aging": ["aging", "--x", "govindarajulu:0,2,2"]}

    @pytest.mark.parametrize("n, k", [(512, 1), (4096, 4), (5000, 5)])
    @pytest.mark.parametrize("command", ["compare", "aging"])
    def test_rows_are_every_kth_grid_point(self, tmp_path, capsys, command, n, k):
        curves = tmp_path / "curves.csv"
        main(self.COMMANDS[command] + ["--grid", str(n), "--curves", str(curves)])
        capsys.readouterr()
        p = _curve_columns(curves)[0]
        assert cli.CURVE_ROWS == 1024 and p.size <= 1024
        assert p.tobytes() == logit_grid(n)[::k].tobytes()

    def test_ratio_turns_at_each_certified_mode(self, tmp_path, capsys):
        x, y = "tukey:2,1,1.05", "tukey:2,1,1.2"  # an NModal ratio, modes 9.35e-6 from each end
        curves = tmp_path / "curves.csv"
        main(["compare", "--x", x, "--y", y, "--method", "theorem", "--curves", str(curves)])
        capsys.readouterr()
        modes = PairContext(parse_spec(x), parse_spec(y)).shape().modes
        p, ratio = _curve_columns(curves)[:2]
        steps = np.sign(np.diff(ratio))
        moving = np.flatnonzero(steps)
        turns = [i for prev, i in zip(moving, moving[1:]) if steps[prev] != steps[i]]
        assert len(turns) == len(modes) == 3
        for row, mode in zip(turns, modes):  # the row where the column turns, within one row
            assert p[row - 1] <= mode.location <= p[row + 1], (row, mode)

    @pytest.mark.parametrize("command, n", [("compare", 4096), ("compare", 512),
                                            ("aging", 4096), ("aging", 512)])
    def test_each_model_is_profiled_once_per_grid_size(self, tmp_path, capsys, monkeypatch,
                                                       command, n):
        seen = Counter()  # (model type, model id, grid size)
        real = GridProfile.__init__

        def spy(self, model, size):
            seen[type(model).__name__, id(model), size] += 1
            real(self, model, size)

        monkeypatch.setattr(GridProfile, "__init__", spy)
        argv = self.COMMANDS[command] + ["--grid", str(n)]
        if command == "compare":
            argv[argv.index("theorem")] = "both"
        assert main(argv + ["--curves", str(tmp_path / "curves.csv")]) in (0, 2)
        capsys.readouterr()
        assert set(seen.values()) == {1}
        # the verdicts' grid alone; aging's Exp(1) is shared, so it may have been
        # profiled before
        assert {size for _, _, size in seen} == {n}
        fresh = {(kind, i) for kind, i, _ in seen if kind != "UnitExponential"}
        assert len(fresh) == (2 if command == "compare" else 1)


def _or_nan(read):
    try:
        return read()
    except QorderError:
        return math.nan


def _compare_columns(X, Y, n):
    """The compare columns written out from the two profiles; a failing mean or
    upper integral reads as nan."""
    px, py = X.profile(n), Y.profile(n)
    ux, uy = _or_nan(lambda: px.upper), _or_nan(lambda: py.upper)
    mx, my = _or_nan(lambda: X.mean), _or_nan(lambda: Y.mean)
    fx, gy = px.q, py.q
    r = py.qd / px.qd
    return (px.grid, r, fx * r - gy, fx / mx - gy / my,
            np.where(fx != 0.0, gy / fx, math.inf),
            np.where(fx > 0.0, ux / fx, math.inf), np.where(gy > 0.0, uy / gy, math.inf))


def _aging_columns(X, n):
    prof = X.profile(n)
    p = prof.grid
    return (p, 1.0 / prof.qd / (1.0 - p), prof.upper / (1.0 - p),
            (-np.log1p(-p) - p) / prof.lower)


class TestCurvesBitForBit:
    """Every --curves column is, bit for bit, its expression written out from the
    models' profiles, on every k-th grid point: %.17g round-trips a float exactly."""

    CASES = {
        "worked pair": (["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5"],
                        lambda n: _compare_columns(TukeyGeneralized(4, 1, 2.5),
                                                   TukeyGeneralized(1.5, 1, 1.5), n)),
        "failing integral": (["compare", "--x", "tukey:2,1,0.5",
                              "--y", "dsl:p/(1-p);qdf=1/(1-p)^2", "--method", "theorem"],
                             lambda n: _compare_columns(parse_spec("tukey:2,1,0.5"),
                                                        parse_spec("dsl:p/(1-p);qdf=1/(1-p)^2"),
                                                        n)),
        "aging": (["aging", "--x", "govindarajulu:0,2,2"],
                  lambda n: _aging_columns(Govindarajulu(0, 2, 2), n)),
    }

    @pytest.mark.parametrize("n", [4096, 512])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_column_is_its_expression(self, tmp_path, capsys, case, n):
        argv, columns = self.CASES[case]
        curves = tmp_path / "curves.csv"
        assert main(argv + ["--grid", str(n), "--curves", str(curves)]) in (0, 2)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            ref = columns(n)
        got = _curve_columns(curves)
        k = -(-n // cli.CURVE_ROWS)
        assert len(got) == len(ref)
        for i, (g, r) in enumerate(zip(got, ref)):
            assert np.array_equal(g, r[::k], equal_nan=True), i


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

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_reversed_alpha_range_writes_no_csv(self, tmp_path, capsys, k):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", f"--alpha{k}-min", "2", f"--alpha{k}-max", "1",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: --alpha{k}-max 1 is below --alpha{k}-min 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--alpha1-min", "nan"), ("--alpha2-max", "nan"), ("--step", "nan"),
        ("--alpha1-max", "inf"), ("--alpha2-min", "inf"), ("--step", "inf"),
    ])
    def test_non_finite_range_writes_no_csv(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {flag} must be finite, got {value}\n"
        assert not out.exists()


def _sweep_cell_by_cell(args):
    """Reference: the sweep's CSV lines built one cell at a time, each from its
    own PairContext(X, Y, n).shape() and theorem_status."""
    count = lambda lo, hi: int(round((hi - lo) / args["step"])) + 1
    lines = ["alpha1,alpha2,in_region,ratio_shape,star,qmit,dmrl"]
    for i in range(count(args["alpha1_min"], args["alpha1_max"])):
        a1 = args["alpha1_min"] + i * args["step"]
        X = TukeyGeneralized(args["lam1"], 1.0, a1)
        for j in range(count(args["alpha2_min"], args["alpha2_max"])):
            a2 = args["alpha2_min"] + j * args["step"]
            Y = TukeyGeneralized(args["lam2"], 1.0, a2)
            try:
                region = "true" if tukey_unimodal_region(a1, a2) else "false"
            except QorderError:
                region = "na"
            try:
                ctx = PairContext(X, Y, args["grid"])
            except QorderError:
                statuses = ["Error"] * 4
            else:
                try:
                    statuses = [ctx.shape().classification]
                except QorderError:
                    statuses = ["Error"]
                statuses += [theorem_status(ctx, o) for o in ("star", "qmit", "dmrl")]
            lines.append(",".join(["%.17g" % a1, "%.17g" % a2, region] + statuses))
    return lines


class TestSweepInBatches:
    """The sweep segments its cells SWEEP_BATCH at a time; its CSV is the one
    built cell by cell."""

    @pytest.mark.parametrize("args", [
        # rows of 17 and 33 cells cross a batch boundary; alpha 1 and 2 read na
        dict(alpha1_min=0.95, alpha1_max=1.05, alpha2_min=0.05, alpha2_max=0.85),
        dict(alpha1_min=2.0, alpha1_max=2.05, alpha2_min=0.05, alpha2_max=1.65),
        dict(alpha1_min=2.5, alpha1_max=2.5, alpha2_min=0.4, alpha2_max=2.0, grid=512),
        dict(alpha1_min=2.5, alpha1_max=2.6, alpha2_min=0.05, alpha2_max=1.65, lam1=0.0),
    ])
    def test_equals_the_cells_one_by_one(self, tmp_path, capsys, args):
        args = dict(dict(step=0.05, grid=64, lam1=2.0, lam2=2.0), **args)
        argv = ["sweep", "--out", str(tmp_path / "sweep.csv")]
        for key, value in args.items():
            argv += [f"--{key.replace('_', '-')}", repr(value)]
        assert main(argv) == 0
        ref = _sweep_cell_by_cell(args)
        assert json.loads(capsys.readouterr().out)["cells"] == len(ref) - 1
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines == ref
        if args["lam1"] == 0.0:  # X's support starts below 0: every context is refused
            assert all(line.endswith("Error,Error,Error,Error") for line in lines[1:])
        if args["alpha1_min"] in (0.95, 2.0):  # alpha1 = 1 or 2 in the first row or two
            assert any(",na," in line for line in lines)

    def test_rows_stream_a_batch_at_a_time(self, monkeypatch):
        calls = []
        real = cli.theorem_status
        monkeypatch.setattr(cli, "theorem_status", lambda ctx, o: calls.append(o) or real(ctx, o))
        args = cli._build_parser().parse_args(
            ["sweep", "--alpha2-max", "4.95", "--grid", "64", "--lam1", "3", "--lam2", "3",
             "--out", "unused.csv"])
        rows = cli._sweep_rows(args, 99, 99)
        next(rows)
        assert len(calls) == 3  # the first cell's statuses, not the whole sweep's
        for _ in range(cli.SWEEP_BATCH):
            next(rows)
        assert len(calls) == 3 * (cli.SWEEP_BATCH + 1)

    def test_each_model_profile_is_computed_once(self, tmp_path, monkeypatch):
        calls = []
        real = TukeyGeneralized.quantile_density

        def spy(self, p):
            if np.ndim(p) == 1 and np.size(p) == 65:  # a grid profile, not a refinement call
                calls.append((self.alpha, id(self)))
            return real(self, p)

        monkeypatch.setattr(TukeyGeneralized, "quantile_density", spy)
        argv = ["sweep", "--alpha1-min", "0.5", "--alpha1-max", "0.7", "--alpha2-min", "0.05",
                "--alpha2-max", "1.0", "--grid", "65", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(calls) == len(set(calls)) == 5 + 20  # one profile per row and per column

    def test_a_model_refused_in_a_later_row_leaves_the_file(self, tmp_path, capsys):
        # with eta1 < 0 the third row's alpha1 = 0 gives no increasing quantile
        out = tmp_path / "sweep.csv"
        out.write_text("kept\n")
        argv = ["sweep", "--eta1", "-1", "--alpha1-min=-0.1", "--alpha1-max", "0.1",
                "--alpha2-min", "0.05", "--alpha2-max", "1.65"]
        assert main(argv + ["--out", str(out)]) == 1
        assert main(argv + ["--out", str(tmp_path / "new.csv")]) == 1
        assert capsys.readouterr().err == (
            "qorder: error: Tukey quantile function must be increasing: eta*alpha > 0 required\n" * 2)
        assert out.read_text() == "kept\n"
        assert not (tmp_path / "new.csv").exists()


class TestOneGridEvaluationPerModel:
    """At the default grid every verdict reads one profile per model: each model's Q
    and quantile density run on the grid once, whichever stages need them."""

    @pytest.mark.parametrize("argv, fresh", [
        (["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5", "--method", "both"], 2),
        (["compare", "--x", "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1;k=2",
          "--y", "exp1", "--method", "both"], 2),
        (["compare", "--x", "dsl:p+p^2", "--y", "tukey:1.5,1,1.5", "--method", "both"], 2),
        (["aging", "--x", "govindarajulu:0,2,2"], 1),
        (["aging", "--x", "dsl:s*(-log(1-p))^(1/k);qdf=s/k*(-log(1-p))^(1/k-1)/(1-p);s=1;k=2"], 1),
    ])
    def test_q_and_qd_run_once_on_the_grid(self, tmp_path, capsys, monkeypatch, argv, fresh):
        seen = Counter()  # (model type, model id, method)

        def spy(cls, name):
            real = getattr(cls, name)

            def wrapped(self, p):
                if np.ndim(p) == 1 and np.size(p) == 4096:  # the grid, not panel nodes
                    seen[type(self).__name__, id(self), name] += 1
                return real(self, p)

            monkeypatch.setattr(cls, name, wrapped)

        for cls in (TukeyGeneralized, Govindarajulu, UnitExponential, DslModel):
            spy(cls, "quantile")
            spy(cls, "quantile_density")
        assert main(argv + ["--out", str(tmp_path / "report.json")]) in (0, 2)
        capsys.readouterr()
        models = {key[:2] for key in seen}
        # aging's Exp(1) is shared, so it may have been profiled before
        assert len(models - {("UnitExponential", id(aging_mod._EXP))}) == fresh
        assert seen == Counter({model + (name,): 1 for model in models
                                for name in ("quantile", "quantile_density")})


class TestNonFiniteModelInput:
    @pytest.mark.parametrize("argv, message", [
        (["compare", "--x", "tukey:nan,1,2", "--y", "exp1", "--method", "theorem"],
         "Tukey family requires a finite lam, got nan"),
        (["compare", "--x", "govindarajulu:nan,1,1", "--y", "exp1"],
         "Govindarajulu requires a finite theta, got nan"),
        (["compare", "--x", "tukey:inf,1,2", "--y", "tukey:2,1,2"],
         "Tukey family requires a finite lam, got inf"),
        (["compare", "--x", "dsl:exp(1000*p)", "--y", "exp1"],
         "quantile expression is not finite: qf(0.711112122) = inf"),
        # decreasing below p = 1e-4 only, inside the engine's grid
        (["compare", "--x", "dsl:p-1e-4*log(p)+1;qdf=1-1e-4/p", "--y", "exp1", "--method", "both"],
         "quantile expression is not strictly increasing: "
         "qf(1e-06) = 1.00138255 >= qf(1.00677031e-06) = 1.00138188"),
        (["compare", "--x", "dsl:p;qdf=-1+0*p", "--y", "exp1"],
         "quantile density is not finite and positive: qd(1e-06) = -1"),
        (["compare", "--x", "dsl:p;qdf=0*p", "--y", "exp1"],
         "quantile density is not finite and positive: qd(1e-06) = 0"),
        # qd = 2 where Q' = 1: the first panel's integral is twice Q's rise
        (["compare", "--x", "dsl:p;qdf=2-p*0", "--y", "exp1"],
         "quantile density does not integrate to the quantile expression: "
         "qf(1.00677031e-06) - qf(1e-06) = 6.77031048e-09 but qd integrates to 1.3540621e-08 "
         "on that panel"),
        (["aging", "--x", "dsl:p;qdf=2-p*0"],
         "quantile density does not integrate to the quantile expression: "
         "qf(1.00677031e-06) - qf(1e-06) = 6.77031048e-09 but qd integrates to 1.3540621e-08 "
         "on that panel"),
        (["aging", "--x", "tukey:1,1,nan"], "Tukey family requires a finite alpha, got nan"),
        (["aging", "--x", "govindarajulu:0,inf,1"], "Govindarajulu requires a finite sigma, got inf"),
        # a literal that overflows a float, refused by the parser before its label is rendered
        (["eval", "--qf", "1e999*p", "--at", "0.5"], "number '1e999' at offset 0 is not finite"),
        (["compare", "--x", "dsl:p+1/1e999", "--y", "exp1"],
         "number '1e999' at offset 4 is not finite"),
    ])
    def test_is_one_error_line(self, capsys, argv, message):
        # otherwise it passes every comparison check after it, and the engine certifies verdicts
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {message}\n"


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

    def test_qdf(self, capsys):
        assert main(["eval", "--qf", "s*p^2", "--qdf", "2*s*p", "--param", "s=2",
                     "--at", "0.5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep == {"schema": 1, "command": "eval", "qf": "s * p ^ 2", "at": 0.5,
                       "value": 0.5, "qdf": "2 * s * p", "qdf_value": 2}

    @pytest.mark.parametrize("qf, rendered", [
        ("1e308*p", "1e+308 * p"),
        ("1e16*p", "1e+16 * p"),
        ("9999999999999998*p", "9999999999999998 * p"),
    ])
    def test_a_large_literal_is_reported_as_a_float(self, capsys, qf, rendered):
        assert main(["eval", "--qf", qf, "--at", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["qf"] == rendered

    @pytest.mark.parametrize("at", ["1.5", "nan", "0", "-0.25"])
    def test_probability_outside_the_open_interval_is_one_error_line(self, capsys, at):
        assert main(["eval", "--qf", "p", "--qdf", "1", "--at", at]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("qorder: error: probability argument must lie strictly "
                                f"inside (0,1), got {float(at)!r}\n")

    def test_parse_error_exit(self, capsys):
        assert main(["eval", "--qf", "p +", "--at", "0.5"]) == 1
        assert "syntax error" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["s=abc", "s"])
    def test_bad_param_is_one_error_line(self, capsys, param):
        assert main(["eval", "--qf", "s*p", "--param", param, "--at", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qorder: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_param_errors_match_the_dsl_spec(self, capsys):
        main(["eval", "--qf", "s*p", "--param", "s=abc", "--at", "0.5"])
        err = capsys.readouterr().err
        with pytest.raises(ParseError) as exc:
            parse_spec("dsl:s*p;s=abc")
        assert err == f"qorder: error: {exc.value}\n"


class TestGridOption:
    @pytest.mark.parametrize("grid", ["-5", "0", "1", "2"])
    @pytest.mark.parametrize("argv", [
        ["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5"],
        ["aging", "--x", "govindarajulu:0,2,2"],
    ])
    def test_too_small_grid_rejected(self, capsys, argv, grid):
        assert main(argv + ["--grid", grid]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"qorder: error: --grid must be at least 3, got {grid}\n"

    @pytest.mark.parametrize("grid", ["-5", "0", "2"])
    def test_too_small_sweep_grid_writes_no_csv(self, tmp_path, capsys, grid):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--alpha1-min", "2.5", "--alpha1-max", "2.5",
                     "--alpha2-min", "1.5", "--alpha2-max", "1.5",
                     "--grid", grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qorder: error: --grid must be at least 3, got {grid}\n"
        assert not out.exists()


class TestParserBuiltOnce:
    ARGVS = [
        ["compare", "--x", "tukey:4,1,2.5", "--y", "tukey:1.5,1,1.5", "--grid", "256"],
        ["compare", "--x", "tukey:4,1,2.5", "--method", "sideways"],  # argparse exits
        ["aging", "--x", "govindarajulu:0,2,2", "--grid", "256"],
        ["sweep", "--alpha1-min", "2.4", "--alpha1-max", "2.5", "--alpha2-min", "1.5",
         "--alpha2-max", "1.5", "--step", "0.1", "--grid", "64"],
    ]

    @staticmethod
    def _run(argv, tmp_path, capsys):
        out = tmp_path / ("rows.csv" if argv[0] == "sweep" else "report.json")
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        data = out.read_bytes() if out.exists() else None
        if out.exists():
            out.unlink()
        return code, captured.err, data

    def test_at_most_one_build_across_calls(self, monkeypatch, tmp_path, capsys):
        from qorder import cli

        calls = []
        real = cli._build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or real())
        for argv in self.ARGVS * 2:
            self._run(argv, tmp_path, capsys)
        assert len(calls) == 1

    def test_reused_parser_gives_the_output_of_fresh_ones(self, monkeypatch, tmp_path, capsys):
        from qorder import cli

        monkeypatch.setattr(cli, "_parser", None)
        reused = [self._run(argv, tmp_path, capsys) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self._run(argv, tmp_path, capsys))
        assert reused == fresh
        assert [r[0] for r in reused] == [0, ("exit", 2), 0, 0]
        assert "invalid choice: 'sideways'" in reused[1][1]
        assert [r[2] is not None for r in reused] == [True, False, True, True]


class TestSweepCellCount:
    @pytest.mark.parametrize("argv, message", [
        (["--step", "1e-320"], "--alpha1 range 0.05..4.95 at --step 9.99989e-321"),
        (["--alpha1-min=-1e308", "--alpha1-max", "1e308"],
         "--alpha1 range -1e+308..1e+308 at --step 0.05"),
        (["--alpha2-min=-1e308", "--alpha2-max", "1e308"],
         "--alpha2 range -1e+308..1e+308 at --step 0.05"),
    ])
    def test_non_finite_count_writes_no_csv(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {message} gives a non-finite number of cells\n"
        assert not out.exists()


_OUTPUT_ARGVS = [
    ["compare", "--x", "tukey:4,1,2.5", "--y", "exp1", "--grid", "64", "--out"],
    ["compare", "--x", "tukey:4,1,2.5", "--y", "exp1", "--grid", "64", "--curves"],
    ["aging", "--x", "govindarajulu:0,2,2", "--grid", "64", "--out"],
    ["aging", "--x", "govindarajulu:0,2,2", "--grid", "64", "--curves"],
    ["sweep", "--alpha1-min", "2.5", "--alpha1-max", "2.5", "--alpha2-min", "1.5",
     "--alpha2-max", "1.5", "--grid", "64", "--out"],
]


def _refuse_work(monkeypatch):
    """Make every order check, aging report and sweep cell fail the test if reached."""
    def reached(*args, **kwargs):
        pytest.fail("the computation started before the output path was checked")

    for name in ("compare_all", "PairContext"):
        monkeypatch.setattr(cli, name, reached)
    monkeypatch.setattr(cli.aging_mod, "aging_report", reached)


class TestFileErrors:
    """A file that cannot be read or written is one error line naming it, exit code 1."""

    @staticmethod
    def _files(tmp_path):
        (tmp_path / "s.csv").write_text("1\n2\n3\n")
        (tmp_path / "latin1.csv").write_bytes(b"caf\xe9\n1\n2\n")
        (tmp_path / "dir").mkdir()
        return tmp_path

    @pytest.mark.parametrize("x, reason", [
        ("missing.csv", "No such file or directory"),
        ("dir", "Is a directory"),
        ("latin1.csv", "not UTF-8 text (byte 3)"),
    ])
    def test_empirical_sample(self, tmp_path, capsys, x, reason):
        d = self._files(tmp_path)
        assert main(["empirical", "--x", str(d / x), "--y", str(d / "s.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {d / x}: {reason}\n"

    def test_compare_csv_spec(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        assert main(["compare", "--x", f"csv:{path}", "--y", "exp1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_output_in_a_missing_directory(self, tmp_path, capsys, monkeypatch, argv):
        _refuse_work(monkeypatch)  # the path is checked before any of it runs
        path = tmp_path / "no-such-dir" / "out.txt"
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_output_that_is_a_directory(self, tmp_path, capsys, monkeypatch, argv):
        _refuse_work(monkeypatch)
        assert main(argv + [str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"qorder: error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_a_run_replaces_what_the_path_held(self, tmp_path, capsys, argv):
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("a longer file than any report or curve table\n" * 1000)
        for path in (new, old):
            assert main(argv + [str(path)]) in (0, 2)
        capsys.readouterr()
        assert old.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_a_later_failure_leaves_the_paths_as_they_were(self, tmp_path, capsys, monkeypatch,
                                                           argv):
        def fail(*args, **kwargs):
            raise ValidationError("failed after the output check")

        for name in ("compare_all", "theorem_status"):  # a sweep cell catches PairContext's
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(cli.aging_mod, "aging_report", fail)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("kept\n")
        dangling, linked = tmp_path / "dangling.txt", tmp_path / "linked.txt"
        dangling.symlink_to("missing.txt")  # writing it would create missing.txt
        linked.symlink_to("old.txt")
        for path in (new, old, dangling, linked):
            assert main(argv + [str(path)]) == 1
            assert capsys.readouterr().err == "qorder: error: failed after the output check\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling.txt", "linked.txt",
                                                              "old.txt"]
        assert dangling.is_symlink() and not dangling.exists()
        assert old.read_text() == "kept\n"


    @pytest.mark.parametrize("command", [
        ["compare", "--x", "tukey:4,1,2.5", "--y", "exp1", "--grid", "64"],
        ["aging", "--x", "govindarajulu:0,2,2", "--grid", "64"],
    ])
    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("via_link", [False, True])
    def test_curves_and_report_to_one_file(self, tmp_path, capsys, monkeypatch, command,
                                           existing, via_link):
        _refuse_work(monkeypatch)  # refused before anything is computed
        path = tmp_path / "both.txt"
        if existing:
            path.write_text("kept\n")
        other = path
        if via_link:
            other = tmp_path / "link.txt"
            other.symlink_to("both.txt")
        assert main(command + ["--curves", str(path), "--out", str(other)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {other}: names the same file as {path}\n"
        assert path.read_text() == "kept\n" if existing else not path.exists()


class TestDslBindings:
    @pytest.mark.parametrize("spec, message", [
        ("dsl:s*p;s=1;s=3", "dsl parameter s is bound twice"),
        ("dsl:p;qdf=1;qdf=2", "dsl spec gives qdf twice"),
        ("dsl:p;=3", "dsl spec clause '=3' does not bind an identifier"),
        ("dsl:s*p;2s=3", "dsl spec clause '2s=3' does not bind an identifier"),
        ("dsl:s*p;s t=3", "dsl spec clause 's t=3' does not bind an identifier"),
        ("dsl:p;p=2", "dsl spec clause 'p=2' binds p, the probability variable"),
        ("dsl:s*p;s=nan", "dsl parameter s='nan' is not finite"),
        ("dsl:s*p;s=-inf", "dsl parameter s='-inf' is not finite"),
    ])
    def test_spec_rejects(self, spec, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_spec(spec)

    @pytest.mark.parametrize("params, message", [
        (["p=2"], "--param 'p=2' binds p, the probability variable"),
        (["s=1", "s=3"], "dsl parameter s is bound twice"),
        (["s=nan"], "dsl parameter s='nan' is not finite"),
        (["=3"], "--param '=3' does not bind an identifier"),
    ])
    def test_eval_rejects(self, capsys, params, message):
        argv = ["eval", "--qf", "s*p", "--at", "0.5"]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qorder: error: {message}\n"

    def test_spaces_around_a_name_are_allowed(self):
        assert parse_spec("dsl:s*p; s =2").quantile(0.5) == 1.0
