"""Command-line surface: compare, aging, empirical, sweep, eval.

All reports are JSON on stdout with a fixed field order and 17-significant-
digit float formatting, so identical inputs produce byte-identical output.
Exit codes: 0 determinate, 1 usage/validation/internal error, 2 when any
verdict is Inconclusive.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import operator
import os
import re
import sys

import numpy as np

from . import aging as aging_mod
from . import dsl
from .empirical import SampleSet, convexity_scan, load_samples, qq_transform
from .errors import ParseError, QorderError, ValidationError
from .models import Govindarajulu, TukeyGeneralized, UnitExponential, check_p
from .oracle import curve
from .orders import INCONCLUSIVE, PairContext, compare_all, segment_ratios, theorem_status
from .shape import tukey_unimodal_region

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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a DSL identifier


def _bindings(clauses, what):
    """{name: value} from ``name=value`` clauses; ``what`` names a clause in errors.

    Each name is a DSL identifier other than ``p``, bound once, to a finite value."""
    out = {}
    for clause in clauses:
        if "=" not in clause:
            raise ParseError(f"{what} {clause!r} is not name=value")
        name, value = clause.split("=", 1)
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"{what} {clause!r} does not bind an identifier")
        if name == "p":
            raise ParseError(f"{what} {clause!r} binds p, the probability variable")
        if name in out:
            raise ParseError(f"dsl parameter {name} is bound twice")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ParseError(f"dsl parameter {name}={value!r} is not numeric") from exc
        if not math.isfinite(out[name]):
            raise ParseError(f"dsl parameter {name}={value!r} is not finite")
    return out


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
        qf, *clauses = rest.split(";")
        qdf, params = None, []
        for clause in clauses:
            name, eq, value = clause.partition("=")
            if eq and name.strip() == "qdf":
                if qdf is not None:
                    raise ParseError("dsl spec gives qdf twice")
                qdf = value
            else:
                params.append(clause)
        return dsl.as_quantile_model(qf, qdf, _bindings(params, "dsl spec clause"))
    raise ParseError(f"unrecognized model spec {spec!r}")


# ---------------------------------------------------------------------------
# deterministic JSON


_escape = json.encoder.encode_basestring_ascii  # what json.dumps(str) runs


def _number(v):
    """A float as %.17g, or the quoted "nan", "+inf" or "-inf"."""
    text = "%.17g" % v
    if text[-1] == "n":
        return '"nan"'
    if text[-1] == "f":
        return '"-inf"' if v < 0 else '"+inf"'
    return text


def _block(items, indent, brackets):
    """Items one per line, indented two past ``indent``, inside ``brackets``."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _bool(obj):
    return "true" if obj else "false"


# the exact types a report is made of, looked up before the isinstance chain
_WRITERS = {str: _escape, float: _number, int: str, bool: _bool, np.bool_: _bool,
            type(None): lambda obj: "null"}


class _Layouts(dict):
    """type -> (the escaped keys of its fields, a getter of their values) for a
    dataclass, written as an object of its fields in declaration order; None
    for any other type.  Each type is looked up once."""

    def __missing__(self, cls):
        layout = None
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
            # attrgetter of one name returns the bare value, not a tuple
            get = (operator.attrgetter(*names) if len(names) > 1
                   else lambda obj: [getattr(obj, name) for name in names])
            layout = [_escape(name) + ": " for name in names], get
        self[cls] = layout
        return layout


_LAYOUTS = _Layouts()


def dumps(obj, indent=0):
    """Serialize with fixed key order (insertion, or a dataclass's field order)
    and %.17g floats."""
    write = _WRITERS.get(type(obj))
    if write is not None:
        return write(obj)
    layout = _LAYOUTS[type(obj)]
    if layout is not None:
        keys, get = layout
        return _block([k + dumps(v, indent + 2) for k, v in zip(keys, get(obj))], indent, "{}")
    # subclasses and numpy scalars; no type is both a container and a number
    if isinstance(obj, dict):
        return _block([_escape(str(k)) + ": " + dumps(v, indent + 2) for k, v in obj.items()],
                      indent, "{}")
    if isinstance(obj, (list, tuple)):
        return _block([dumps(v, indent + 2) for v in obj], indent, "[]")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    return _escape(str(obj))  # a str subclass too


def _open_for_writing(path, mode="w"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _outputs(*paths):
    """Open each given path (None stays None) before the run computes anything.

    A path that cannot be written fails the run at once, with the error that
    writing it at the end would raise, and so do two paths that name one file,
    which the second write would overwrite.  Opening to append changes no
    bytes; a file is truncated only when the run writes it.  A run that fails
    leaves the paths as it found them: a file opened anew is removed again,
    through a symbolic link the file that the link names.  (A sweep streams
    its rows, so one interrupted after its first rows leaves them in a file
    that was there before.)"""
    handles, created = [], []
    try:
        for path in paths:
            existed = not path or os.path.exists(path)
            fh = path and _open_for_writing(path, "a")
            handles.append(fh)
            if not existed:
                created.append(path)
            for earlier, other in zip(paths, handles[:-1]):
                if fh and other and os.path.sameopenfile(fh.fileno(), other.fileno()):
                    raise ValidationError(f"{path}: names the same file as {earlier}")
        yield handles
    except BaseException:
        for path in created:
            os.remove(os.path.realpath(path) if os.path.islink(path) else path)
        raise
    finally:
        for fh in filter(None, handles):
            fh.close()


def _empty(fh):
    """Empty an output file opened to append, before the run writes it.

    A file that is empty already is left alone: truncating it anyway makes
    ext4 write it to disk when it is closed, about 0.3 ms per file."""
    if os.fstat(fh.fileno()).st_size:
        fh.truncate(0)


def _emit(report, out=None):
    text = dumps(report) + "\n"
    if out:
        _empty(out)
        out.write(text)
        out.flush()
    sys.stdout.write(text)


def _write_csv(fh, header, rows):
    """Write the header and the rows, and return the number of rows.  The file
    is emptied once the first row has come, so a generator of rows that fails
    before its first leaves the file as it was."""
    rows = iter(rows)
    head = list(itertools.islice(rows, 1))
    _empty(fh)
    fh.write(",".join(header) + "\n")
    count = 0
    for row in itertools.chain(head, rows):
        fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")
        count += 1
    fh.flush()
    return count


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
    with _outputs(args.curves, args.out) as (curves, out):
        verdicts = compare_all(X, Y, args.grid, method=args.method)
        report = {
            "schema": 1,
            "command": "compare",
            "x": X.label(),
            "y": Y.label(),
            "method": args.method,
            "grid_n": args.grid,
            "verdicts": verdicts,
        }
        if curves:
            _write_curves(curves, _COMPARE_CURVES, X.profile(args.grid), Y.profile(args.grid))
            report["curves"] = args.curves
        _emit(report, out)
    return 2 if any(v.status == INCONCLUSIVE for v in verdicts) else 0


CURVE_ROWS = 1024  # the most rows a --curves CSV holds
_COMPARE_CURVES = ("p", "ratio_qd", "delta", "delta_ps", "quantile_ratio", "eps_x", "eps_y")
_AGING_CURVES = ("p", "hazard", "mrl", "wa_surrogate")


def _write_curves(fh, names, px, py=None):
    """Write the curves ``names`` on every ceil(n / CURVE_ROWS)-th grid point from the first."""
    k = -(-px.n // CURVE_ROWS)
    _write_csv(fh, names, zip(*(curve(name, px, py)[::k] for name in names)))


def run_aging(args):
    X = _require_model(parse_spec(args.x), "--x")
    with _outputs(args.curves, args.out) as (curves, out):
        report_obj = aging_mod.aging_report(X, args.grid)
        report = {
            "schema": 1,
            "command": "aging",
            "x": X.label(),
            "grid_n": args.grid,
            "report": report_obj,
        }
        if curves:
            _write_curves(curves, _AGING_CURVES, X.profile(args.grid))
            report["curves"] = args.curves
        _emit(report, out)
    classes = (report_obj.mrl_class, report_obj.ihrwa_class, report_obj.ifra_class)
    return 2 if "Inconclusive" in classes else 0


def run_empirical(args):
    SX = parse_spec(args.x) if args.x.startswith("csv:") else load_samples(args.x)
    SY = parse_spec(args.y) if args.y.startswith("csv:") else load_samples(args.y)
    pts = qq_transform(SX, SY)
    diag = convexity_scan(pts) if len(pts) >= 4 else {"pattern": "n/a", "runs": [],
                                                      "min_run": 0, "warnings": ["too few points"]}
    if args.out:
        with _open_for_writing(args.out) as fh:
            _write_csv(fh, ["x", "y"], [(float(x), float(y)) for x, y in pts])
    report = {
        "schema": 1,
        "command": "empirical",
        "n_x": SX.n,
        "n_y": SY.n,
        "points": len(pts),
        "diagnostic": diag,
        "curve": args.out,
    }
    _emit(report)
    return 0


def run_sweep(args):
    if args.lam1 is None:  # by default each family's support starts at 1
        args.lam1 = args.eta1 + 1.0
    if args.lam2 is None:
        args.lam2 = args.eta2 + 1.0
    for dest in ("alpha1_min", "alpha1_max", "alpha2_min", "alpha2_max", "step"):
        value = getattr(args, dest)
        if not math.isfinite(value):
            raise ValidationError(f"--{dest.replace('_', '-')} must be finite, got {value:g}")
    if args.step <= 0.0:
        raise ValidationError("--step must be positive")
    counts = []
    for k in (1, 2):
        lo, hi = getattr(args, f"alpha{k}_min"), getattr(args, f"alpha{k}_max")
        if hi < lo:
            raise ValidationError(f"--alpha{k}-max {hi:g} is below --alpha{k}-min {lo:g}")
        steps = (hi - lo) / args.step
        if not math.isfinite(steps):
            raise ValidationError(f"--alpha{k} range {lo:g}..{hi:g} at --step {args.step:g} "
                                  "gives a non-finite number of cells")
        counts.append(int(round(steps)) + 1)
    n1, n2 = counts
    with _outputs(args.out) as (out,):
        cells = _write_csv(out, ["alpha1", "alpha2", "in_region", "ratio_shape", "star", "qmit",
                                 "dmrl"], _sweep_rows(args, n1, n2))
    _emit({"schema": 1, "command": "sweep", "cells": cells, "out": args.out})
    return 0


SWEEP_BATCH = 16  # cells whose ratios one find_shapes scan segments


def _sweep_rows(args, n1, n2):
    """Yield one row per cell, SWEEP_BATCH cells at a time: the alphas, the
    unimodal region and the theorem statuses.

    Every model is built before the first row, so a parameter that a model
    refuses fails the run before anything is written.  A row's model is dropped
    with its row; the column models are kept for the whole sweep, so each one's
    grid profile is computed once."""
    alphas1 = [args.alpha1_min + i * args.step for i in range(n1)]
    alphas2 = [args.alpha2_min + j * args.step for j in range(n2)]
    xs = [TukeyGeneralized(args.lam1, args.eta1, a1) for a1 in alphas1]
    ys = [TukeyGeneralized(args.lam2, args.eta2, a2) for a2 in alphas2]
    xs.reverse()  # popped row by row
    for a1 in alphas1:
        X = xs.pop()
        for start in range(0, n2, SWEEP_BATCH):
            cells = []
            for a2, Y in zip(alphas2[start:start + SWEEP_BATCH], ys[start:start + SWEEP_BATCH]):
                try:
                    ctx = PairContext(X, Y, args.grid)
                except QorderError:
                    ctx = None
                cells.append((a2, ctx))
            segment_ratios([ctx for _, ctx in cells if ctx is not None])
            for a2, ctx in cells:
                try:
                    region = tukey_unimodal_region(a1, a2)
                except QorderError:
                    region = None
                if ctx is None:
                    statuses = ("Error",) * 4
                else:
                    try:
                        shape = ctx.shape().classification
                    except QorderError:
                        shape = "Error"
                    # theorem stage alone: no oracle fallback, no proportional shortcut
                    statuses = (shape,) + tuple(theorem_status(ctx, o)
                                                for o in ("star", "qmit", "dmrl"))
                yield (a1, a2, {True: "true", False: "false", None: "na"}[region]) + statuses


def run_eval(args):
    bindings = _bindings(args.param or [], "--param")
    expr = dsl.parse(args.qf)
    at = check_p(args.at)
    report = {
        "schema": 1,
        "command": "eval",
        "qf": dsl.render(expr),
        "at": args.at,
        "value": dsl.evaluate(expr, at, bindings),
    }
    if args.qdf:
        qdf = dsl.parse(args.qdf)
        report["qdf"] = dsl.render(qdf)
        report["qdf_value"] = dsl.evaluate(qdf, at, bindings)
    _emit(report)
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
    cmp_p.add_argument("--curves", help="write plot-ready CSV of the decision curves on the "
                                        f"verdicts' grid, at most {CURVE_ROWS:,} rows")
    cmp_p.add_argument("--out", help="also write the JSON report to this path")
    cmp_p.set_defaults(fn=run_compare)

    ag = sub.add_parser("aging", help="classify one distribution's aging behavior")
    ag.add_argument("--x", required=True)
    ag.add_argument("--grid", type=int, default=4096)
    ag.add_argument("--curves", help="write hazard/mrl/weighted-average CSV on the report's "
                                     f"grid, at most {CURVE_ROWS:,} rows")
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


_parser = None  # built on the first call of main and reused: parse_args returns a fresh Namespace


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        if getattr(args, "grid", 3) < 3:  # compare, aging and sweep
            raise ValidationError(f"--grid must be at least 3, got {args.grid}")
        # a non-finite intermediate is reported through the result, not as a numpy warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except QorderError as exc:
        sys.stderr.write(f"qorder: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
