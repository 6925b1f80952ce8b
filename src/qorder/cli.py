"""Command-line surface: compare, aging, empirical, sweep, eval.

All reports are JSON on stdout with a fixed field order and 17-significant-
digit float formatting, so identical inputs produce byte-identical output.
Exit codes: 0 determinate, 1 usage/validation/internal error, 2 when any
verdict is Inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import aging as aging_mod
from . import dsl
from .empirical import SampleSet, convexity_scan, load_samples, qq_transform
from .errors import ParseError, QorderError, ValidationError
from .models import Govindarajulu, TukeyGeneralized, UnitExponential
from .orders import INCONCLUSIVE, PairContext, compare_all, theorem_status
from .shape import GridConfig, tukey_unimodal_region

__all__ = ["main", "parse_spec", "dumps"]


# ---------------------------------------------------------------------------
# model spec strings


def _floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"{what} needs {n} comma-separated parameters, got {len(parts)}")
    try:
        return [float(t) for t in parts]
    except ValueError as exc:
        raise ParseError(f"{what}: non-numeric parameter in {text!r}") from exc


def parse_spec(spec: str):
    """Build a model (or SampleSet) from a spec string.

    Formats: ``exp1``; ``tukey:lam,eta,alpha``; ``govindarajulu:theta,sigma,beta``;
    ``dsl:<expr>[;qdf=<expr>][;name=value ...]``; ``csv:<path>``.
    """
    spec = spec.strip()
    if spec == "exp1":
        return UnitExponential()
    if ":" not in spec:
        raise ParseError(f"unrecognized model spec {spec!r}")
    head, rest = spec.split(":", 1)
    if head == "tukey":
        return TukeyGeneralized(*_floats(rest, 3, "tukey"))
    if head == "govindarajulu":
        return Govindarajulu(*_floats(rest, 3, "govindarajulu"))
    if head == "csv":
        return load_samples(rest)
    if head == "dsl":
        parts = rest.split(";")
        qf, qdf, bindings = parts[0], None, {}
        for part in parts[1:]:
            if "=" not in part:
                raise ParseError(f"dsl spec clause {part!r} is not name=value")
            name, value = part.split("=", 1)
            name = name.strip()
            if name == "qdf":
                qdf = value
            else:
                try:
                    bindings[name] = float(value)
                except ValueError as exc:
                    raise ParseError(f"dsl parameter {name}={value!r} is not numeric") from exc
        return dsl.as_quantile_model(qf, qdf, bindings)
    raise ParseError(f"unrecognized model spec {spec!r}")


# ---------------------------------------------------------------------------
# deterministic JSON


def dumps(obj, indent=0):
    """Serialize with fixed key order (insertion) and %.17g floats."""
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
        items = [f'{pad}  {dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    return dumps(str(obj))


def _emit(report, out):
    text = dumps(report) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands


def _require_model(m, flag):
    if isinstance(m, SampleSet):
        raise ValidationError(
            f"{flag}: sample-backed inputs are diagnostics only; "
            "use the 'empirical' command"
        )
    return m


def run_compare(args):
    X = _require_model(parse_spec(args.x), "--x")
    Y = _require_model(parse_spec(args.y), "--y")
    verdicts = compare_all(X, Y, GridConfig(n=args.grid), method=args.method)
    report = {
        "schema": 1,
        "command": "compare",
        "x": X.label(),
        "y": Y.label(),
        "method": args.method,
        "grid_n": args.grid,
        "verdicts": [v.to_dict() for v in verdicts],
    }
    if args.curves:
        _compare_curves(X, Y, args.curves, args.grid)
        report["curves"] = args.curves
    _emit(report, args.out)
    return 2 if any(v.status == INCONCLUSIVE for v in verdicts) else 0


def _compare_curves(X, Y, path, n):
    px, py = X.profile(min(n, 1024), 1e-4), Y.profile(min(n, 1024), 1e-4)
    ux, uy, fx, gy = px.upper, py.upper, px.q, py.q
    r = py.qd / px.qd
    cols = (px.grid, r, fx * r - gy, fx / X.mean - gy / Y.mean,
            np.where(fx != 0.0, gy / fx, math.inf),
            np.where(fx > 0.0, ux / fx, math.inf), np.where(gy > 0.0, uy / gy, math.inf))
    _write_csv(path, ["p", "ratio_qd", "delta", "delta_ps", "quantile_ratio", "eps_x", "eps_y"],
               zip(*cols))


def run_aging(args):
    X = _require_model(parse_spec(args.x), "--x")
    report_obj = aging_mod.aging_report(X, GridConfig(n=args.grid))
    report = {
        "schema": 1,
        "command": "aging",
        "x": X.label(),
        "grid_n": args.grid,
        "report": report_obj.to_dict(),
    }
    if args.curves:
        _aging_curves(X, args.curves, args.grid)
        report["curves"] = args.curves
    _emit(report, args.out)
    classes = (report_obj.mrl_class, report_obj.ihrwa_class, report_obj.ifra_class)
    return 2 if "Inconclusive" in classes else 0


def _aging_curves(X, path, n):
    prof = X.profile(min(n, 1024), 1e-4)
    p, ux, lx = prof.grid, prof.upper, prof.lower
    _write_csv(path, ["p", "hazard", "mrl", "wa_surrogate"],
               zip(p, aging_mod.hazard_quantile(X, p), ux / (1.0 - p), (-np.log1p(-p) - p) / lx))


def run_empirical(args):
    SX = parse_spec(args.x) if args.x.startswith("csv:") else load_samples(args.x)
    SY = parse_spec(args.y) if args.y.startswith("csv:") else load_samples(args.y)
    if not isinstance(SX, SampleSet) or not isinstance(SY, SampleSet):
        raise ValidationError("empirical expects CSV sample inputs")
    pts = qq_transform(SX, SY)
    diag = convexity_scan(pts) if len(pts) >= 4 else {"pattern": "n/a", "runs": [],
                                                      "min_run": 0, "warnings": ["too few points"]}
    if args.out:
        _write_csv(args.out, ["x", "y"], [(float(x), float(y)) for x, y in pts])
    report = {
        "schema": 1,
        "command": "empirical",
        "n_x": SX.n,
        "n_y": SY.n,
        "points": len(pts),
        "diagnostic": diag,
        "curve": args.out,
    }
    sys.stdout.write(dumps(report) + "\n")
    return 0


def run_sweep(args):
    if args.step <= 0.0:
        raise ValidationError("--step must be positive")
    n1 = int(round((args.alpha1_max - args.alpha1_min) / args.step)) + 1
    n2 = int(round((args.alpha2_max - args.alpha2_min) / args.step)) + 1
    cfg = GridConfig(n=args.grid)
    rows = []
    for i in range(n1):
        a1 = args.alpha1_min + i * args.step
        X = TukeyGeneralized(args.lam1, args.eta1, a1)
        for j in range(n2):
            a2 = args.alpha2_min + j * args.step
            Y = TukeyGeneralized(args.lam2, args.eta2, a2)
            try:
                region = tukey_unimodal_region(a1, a2)
            except QorderError:
                region = None
            try:
                ctx = PairContext(X, Y, cfg)
            except QorderError:
                statuses = ("Error",) * 4
            else:
                try:
                    shape = ctx.shape().classification
                except QorderError:
                    shape = "Error"
                # theorem stage alone: no oracle fallback, no proportional shortcut
                statuses = (shape,) + tuple(theorem_status(ctx, o) for o in ("star", "qmit", "dmrl"))
            rows.append((a1, a2, {True: "true", False: "false", None: "na"}[region]) + statuses)
    _write_csv(args.out, ["alpha1", "alpha2", "in_region", "ratio_shape", "star", "qmit", "dmrl"],
               rows)
    sys.stdout.write(dumps({"schema": 1, "command": "sweep", "cells": len(rows),
                            "out": args.out}) + "\n")
    return 0


def run_eval(args):
    bindings = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValidationError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        bindings[name] = float(value)
    expr = dsl.parse(args.qf)
    report = {
        "schema": 1,
        "command": "eval",
        "qf": dsl.render(expr),
        "at": args.at,
        "value": dsl.evaluate(expr, args.at, bindings),
    }
    if args.qdf:
        qdf = dsl.parse(args.qdf)
        report["qdf"] = dsl.render(qdf)
        report["qdf_value"] = dsl.evaluate(qdf, args.at, bindings)
    sys.stdout.write(dumps(report) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(prog="qorder",
                                     description="Transform-order and aging-class decisions "
                                                 "for quantile models")
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_p = sub.add_parser("compare", help="decide the six transform orders for a pair")
    cmp_p.add_argument("--x", required=True)
    cmp_p.add_argument("--y", required=True)
    cmp_p.add_argument("--method", choices=("theorem", "oracle", "both"), default="both")
    cmp_p.add_argument("--grid", type=int, default=4096)
    cmp_p.add_argument("--curves", help="write plot-ready CSV of the decision curves")
    cmp_p.add_argument("--out", help="also write the JSON report to this path")
    cmp_p.set_defaults(fn=run_compare)

    ag = sub.add_parser("aging", help="classify one distribution's aging behavior")
    ag.add_argument("--x", required=True)
    ag.add_argument("--grid", type=int, default=4096)
    ag.add_argument("--curves", help="write hazard/mrl/weighted-average CSV")
    ag.add_argument("--out")
    ag.set_defaults(fn=run_aging)

    emp = sub.add_parser("empirical", help="Q-Q transform curve for two samples")
    emp.add_argument("--x", required=True)
    emp.add_argument("--y", required=True)
    emp.add_argument("--out", help="CSV path for the transform curve")
    emp.set_defaults(fn=run_empirical)

    sw = sub.add_parser("sweep", help="Tukey alpha1 x alpha2 region map")
    sw.add_argument("--alpha1-min", type=float, default=0.05)
    sw.add_argument("--alpha1-max", type=float, default=4.95)
    sw.add_argument("--alpha2-min", type=float, default=0.05)
    sw.add_argument("--alpha2-max", type=float, default=4.95)
    sw.add_argument("--step", type=float, default=0.05)
    sw.add_argument("--eta1", type=float, default=1.0)
    sw.add_argument("--eta2", type=float, default=1.0)
    sw.add_argument("--lam1", type=float, default=None)
    sw.add_argument("--lam2", type=float, default=None)
    sw.add_argument("--grid", type=int, default=512)
    sw.add_argument("--out", required=True)
    sw.set_defaults(fn=run_sweep)

    ev = sub.add_parser("eval", help="evaluate a DSL expression at a probability")
    ev.add_argument("--qf", required=True)
    ev.add_argument("--qdf")
    ev.add_argument("--param", action="append")
    ev.add_argument("--at", type=float, required=True)
    ev.set_defaults(fn=run_eval)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.lam1 is None:
            args.lam1 = args.eta1 + 1.0
        if args.lam2 is None:
            args.lam2 = args.eta2 + 1.0
    try:
        # a non-finite intermediate is reported through the result, not as a numpy warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except QorderError as exc:
        sys.stderr.write(f"qorder: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
