"""Textbook ground truth, run end to end through the CLI.

The Weibull family with shape k is IFR for k > 1 and DFR for k < 1, so it is
smaller than the unit exponential in the convex order, and in every order the
convex order implies, exactly when k > 1 (greater when k < 1); its hazard,
mrl, hazard-rate weighted average and failure rate average age accordingly.
Two Weibull laws compare in the convex order by their shapes alone:
G^-1(F(x)) = (s_Y/s_X^(k_X/k_Y)) * x^(k_X/k_Y) is convex exactly when k_X > k_Y.
The log-logistic law with shape b > 1 has an upside-down bathtub hazard and a
bathtub mrl.
"""

import itertools
import json

import pytest

from qorder.cli import main

ORDERS = ("convex", "qmit", "dmrl", "star", "ps", "nbue")
SHAPES = (0.3, 0.5, 0.8, 1.3, 2.0, 3.5, 5.0)
PAIR_SHAPES = (0.5, 0.8, 1.3, 2.0, 3.5)


def weibull(k, s=1.0):
    """Weibull with shape k and scale s, written with log1p, with its qdf."""
    return (f"dsl:s*(-log1p(-p))^(1/k);qdf=s/k*(-log1p(-p))^(1/k-1)/(1-p);s={s:g};k={k:g}")


def loglogistic(b):
    return f"dsl:s*(p/(1-p))^(1/b);qdf=s/b*(p/(1-p))^(1/b-1)/(1-p)^2;s=1;b={b:g}"


def _run(capsys, argv):
    """(exit code, report) of one CLI call; the report is None when the call fails."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if code != 1 else None)


def _statuses(capsys, x, y, method):
    code, report = _run(capsys, ["compare", "--x", x, "--y", y, "--method", method])
    assert code == 0, (x, y, method)
    return {v["order"]: v["status"] for v in report["verdicts"]}


def _aging(capsys, x):
    code, report = _run(capsys, ["aging", "--x", x])
    assert code == 0, x
    rep = report["report"]
    return rep["hazard"]["status"], rep["mrl_class"], rep["ihrwa_class"], rep["ifra_class"]


@pytest.mark.parametrize("method", ["theorem", "oracle", "both"])
@pytest.mark.parametrize("k", SHAPES)
def test_weibull_against_exp1(capsys, k, method):
    expected = "Holds" if k > 1 else "HoldsReversed"
    assert _statuses(capsys, weibull(k), "exp1", method) == dict.fromkeys(ORDERS, expected)


@pytest.mark.parametrize("k", SHAPES)
def test_weibull_aging(capsys, k):
    expected = (("Increasing", "DMRL", "IHRWA", "IFRA") if k > 1
                else ("Decreasing", "IMRL", "DHRWA", "DFRA"))
    assert _aging(capsys, weibull(k)) == expected


@pytest.mark.parametrize("kx, ky", list(itertools.permutations(PAIR_SHAPES, 2)))
def test_weibull_pairs(capsys, kx, ky):
    expected = "Holds" if kx > ky else "HoldsReversed"
    got = _statuses(capsys, weibull(kx), weibull(ky, s=2.5), "both")
    assert got == dict.fromkeys(ORDERS, expected)


def test_loglogistic_aging(capsys):
    hazard, mrl, _, _ = _aging(capsys, loglogistic(4))
    assert (hazard, mrl) == ("UBT", "BT")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: finite-difference density without a qdf")
def test_weibull_without_qdf_aging(capsys):
    # exits 1 today: "ifra=DFRA contradicts the order engine"
    x = "dsl:s*(-log(1-p))^(1/k);s=1.3;k=0.7"
    assert _aging(capsys, x) == ("Decreasing", "IMRL", "DHRWA", "DFRA")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: upper tail quadrature in t = 1 - p")
def test_loglogistic_heavier_tail_aging(capsys):
    # exits 1 today: no convergence of the tail quadrature on (0.999999, 1)
    hazard, mrl, _, _ = _aging(capsys, loglogistic(2.5))
    assert (hazard, mrl) == ("UBT", "BT")
