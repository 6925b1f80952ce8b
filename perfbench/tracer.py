"""Span tracing of the qorder layers, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the qorder
modules, at every module attribute that binds it, with one shared wrapper, and
wraps the public methods of every model class on the class itself.  A call is
therefore counted once, wherever it comes from.  Of the functions defined in
``cli`` only ``main`` is wrapped, so that argument parsing and report writing
stay in ``cli.main``'s self time.

Each wrapper records a span (name, start, end, parent span, operation id).
Self time is a span's duration minus the time its child spans cover; busy
time counts only the outermost span of a name, so recursion is not counted
twice.  Aggregates are kept exactly; raw spans are kept in memory up to a cap
and written out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

import numpy as np

MODULES = ("aging", "cli", "deltas", "dsl", "empirical", "limits", "models", "oracle",
           "orders", "shape")
_CHECKS = tuple(f"orders.check_{o}" for o in ("convex", "star", "qmit", "dmrl", "ps"))
_MODEL_EVAL = ("quantile", "quantile_density")
_MARK = "__perfbench_original__"


class Stat:
    __slots__ = ("calls", "busy", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.errors = 0


def _points(p):
    """(points, is_scalar) of a probability argument."""
    if isinstance(p, np.ndarray) and p.ndim > 0:
        return p.size, False
    if isinstance(p, (list, tuple)):
        return len(p), False
    return 1, True


class Tracer:
    def __init__(self, span_cap=50_000):
        self.stack = []  # open frames: [child_time, span_id]
        self.active = {}  # name -> number of open spans
        self.stats = {}  # name -> Stat
        self.counters = {}  # derived counts (modes, hints, fallbacks, ...)
        self.oracle_keys = set()
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self._patches = []  # (owner, attr, original)

    # -- counters ------------------------------------------------------------

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- installation --------------------------------------------------------

    def install(self):
        from qorder.models import QuantileModel

        wrappers = {}
        for short in ("",) + MODULES:
            mod = importlib.import_module(f"qorder.{short}" if short else "qorder")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == "qorder.cli" and attr != "main":
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("qorder."):
                    if obj not in wrappers:
                        name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                        wrappers[obj] = self._wrap(obj, name)
                    self._patch(mod, attr, wrappers[obj])
                elif (inspect.isclass(obj) and issubclass(obj, QuantileModel)
                      and obj.__module__ == mod.__name__):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if getattr(fn, "__isabstractmethod__", False):
                            continue
                        name = f"{short}.{obj.__name__}.{meth}"
                        self._patch(obj, meth, self._wrap(fn, name))
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every patched attribute; return a list of problems (empty when clean)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        problems = [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                    for owner, attr, original in self._patches
                    if vars(owner).get(attr) is not original]
        problems += find_wrappers()
        return problems

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        stack, active, spans = self.stack, self.active, self.spans
        stat = self.stats.setdefault(name, Stat())
        hook = _hook_for(name)

        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                active[name] = depth
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if depth == 0:
                    stat.busy += dur
                if error is not None:
                    stat.errors += 1
                if hook is not None:
                    hook(tracer, args, kwargs, result, error, dur, depth)
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, parent[1] if parent else None, tracer.op, name,
                                  start, end))
                else:
                    tracer.dropped += 1

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, op, name, start, end]) + "\n")

    def layer_metrics(self, ops):
        """Per-layer metrics, normalized per traced operation."""
        ops = max(ops, 1)

        def st(name):
            return self.stats.get(name) or Stat()

        def summed(names, field):
            return sum(getattr(st(n), field) for n in names)

        c = self.counters.get
        model_names = [n for n in self.stats if n.startswith(("models.", "dsl."))
                       and n.rsplit(".", 1)[-1] in _MODEL_EVAL and n.count(".") == 2]
        oracle_calls = st("oracle.order_oracle").calls
        limit_calls = st("limits.limit_at").calls
        verdicts = c("orders.verdicts", 0)
        reports = st("aging.aging_report").calls
        m = {
            "oracle.order_oracle.calls": (oracle_calls / ops, "calls/op"),
            "oracle.order_oracle.s": (st("oracle.order_oracle").busy / ops, "s/op"),
        }
        for order in ("convex", "qmit", "dmrl", "star", "ps", "nbue"):
            m[f"oracle.order_oracle.{order}.s"] = (c(f"oracle.order_oracle.{order}.s", 0.0) / ops,
                                                   "s/op")
        cumulative = ("oracle.lower_cumulative", "oracle.upper_cumulative")
        m["oracle.cumulative.calls"] = (summed(cumulative, "calls") / ops, "calls/op")
        m["oracle.cumulative.s"] = (c("oracle.cumulative.s", 0.0) / ops, "s/op")
        q = st("oracle.quadrature")
        m["oracle.quadrature.calls"] = (q.calls / ops, "calls/op")
        m["oracle.quadrature.s"] = (q.busy / ops, "s/op")
        m["oracle.quadrature.self_s"] = (q.self_s / ops, "s/op")
        m["oracle.quadrature.errors"] = (q.errors / ops, "errors/op")
        m["oracle.order_oracle.distinct_frac"] = (
            len(self.oracle_keys) / oracle_calls if oracle_calls else 1.0, "frac")
        m["models.calls"] = (summed(model_names, "calls") / ops, "calls/op")
        m["models.points"] = (c("models.points", 0) / ops, "points/op")
        m["models.scalar_calls"] = (c("models.scalar_calls", 0) / ops, "calls/op")
        m["models.self_s"] = (summed(model_names, "self_s") / ops, "s/op")
        ev = st("dsl.evaluate")
        m["dsl.evaluate.calls"] = (ev.calls / ops, "calls/op")
        m["dsl.evaluate.points"] = (c("dsl.evaluate.points", 0) / ops, "points/op")
        m["dsl.evaluate.self_s"] = (ev.self_s / ops, "s/op")
        fs = st("shape.find_shape")
        m["shape.find_shape.calls"] = (fs.calls / ops, "calls/op")
        m["shape.find_shape.s"] = (fs.busy / ops, "s/op")
        m["shape.find_shape.self_s"] = (fs.self_s / ops, "s/op")
        m["shape.modes"] = (c("shape.modes", 0) / ops, "modes/op")
        m["limits.limit_at.calls"] = (limit_calls / ops, "calls/op")
        m["limits.limit_at.s"] = (st("limits.limit_at").busy / ops, "s/op")
        m["limits.hint_frac"] = (c("limits.hinted", 0) / limit_calls if limit_calls else 0.0,
                                 "frac")
        m["limits.indeterminate"] = (c("limits.indeterminate", 0) / ops, "count/op")
        mode_integrals = ("deltas.delta_qmit", "deltas.delta_dmrl", "deltas.eps")
        m["deltas.mode_integrals.calls"] = (summed(mode_integrals, "calls") / ops, "calls/op")
        m["deltas.mode_integrals.s"] = (summed(mode_integrals, "busy") / ops, "s/op")
        for check in _CHECKS:
            order = check.rsplit("_", 1)[-1]
            m[f"orders.check.{order}.s"] = (st(check).busy / ops, "s/op")
        m["orders.fallback_frac"] = (c("orders.fallback", 0) / verdicts if verdicts else 0.0,
                                     "frac")
        m["orders.disagreements"] = (c("orders.disagreements", 0) / ops, "count/op")
        for kind in ("hazard", "mrl", "ihrwa", "ifra"):
            m[f"aging.classify.{kind}.s"] = (st(f"aging.classify_{kind}").busy / ops, "s/op")
        m["aging.cross_check.s"] = (c("aging.cross_check.s", 0.0) / ops, "s/op")
        m["aging.find_shape_per_report"] = (
            c("aging.find_shape", 0) / reports if reports else 0.0, "calls/report")
        m["cli.main.self_s"] = (st("cli.main").self_s / ops, "s/op")
        return m


def find_wrappers():
    """Attributes of the qorder modules and model classes that still hold a wrapper."""
    found = []
    for short in ("",) + MODULES:
        mod = importlib.import_module(f"qorder.{short}" if short else "qorder")
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr} still wrapped")
            if inspect.isclass(obj) and obj.__module__.startswith("qorder."):
                for meth, fn in vars(obj).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth} still wrapped")
    return found


# ---------------------------------------------------------------------------
# hooks: derived counts taken where the work happens


def _arg(args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key)


def _model_hook(tracer, args, kwargs, result, error, dur, depth):
    points, scalar = _points(_arg(args, kwargs, 1, "p"))
    tracer.add("models.points", points)
    if scalar:
        tracer.add("models.scalar_calls")


def _evaluate_hook(tracer, args, kwargs, result, error, dur, depth):
    tracer.add("dsl.evaluate.points", _points(_arg(args, kwargs, 1, "p"))[0])


def _oracle_hook(tracer, args, kwargs, result, error, dur, depth):
    X, Y = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "Y")
    order, n = _arg(args, kwargs, 2, "order"), _arg(args, kwargs, 3, "n")
    n = 4096 if n is None else n
    tracer.oracle_keys.add((tracer.op, id(X), id(Y), order, n))
    if depth == 0:
        tracer.add(f"oracle.order_oracle.{order}.s", dur)


def _cumulative_hook(tracer, args, kwargs, result, error, dur, depth):
    if not (tracer.active.get("oracle.lower_cumulative") or tracer.active.get("oracle.upper_cumulative")):
        tracer.add("oracle.cumulative.s", dur)


def _find_shape_hook(tracer, args, kwargs, result, error, dur, depth):
    if result is not None:
        tracer.add("shape.modes", len(result.modes))
    if tracer.active.get("aging.aging_report"):
        tracer.add("aging.find_shape")


def _limit_hook(tracer, args, kwargs, result, error, dur, depth):
    if _arg(args, kwargs, 2, "hint") is not None:
        tracer.add("limits.hinted")
    if result is not None and not result.is_determinate:
        tracer.add("limits.indeterminate")


def _check_hook(tracer, args, kwargs, result, error, dur, depth):
    if result is not None:
        tracer.add("orders.verdicts")
        if result.method == "numeric-fallback":
            tracer.add("orders.fallback")
    if tracer.active.get("aging.aging_report") and not any(tracer.active.get(c) for c in _CHECKS):
        tracer.add("aging.cross_check.s", dur)


def _compare_all_hook(tracer, args, kwargs, result, error, dur, depth):
    if error is not None and str(error).startswith("theorem/oracle disagreement"):
        tracer.add("orders.disagreements")


def _hook_for(name):
    if name == "dsl.evaluate":
        return _evaluate_hook
    if name == "oracle.order_oracle":
        return _oracle_hook
    if name in ("oracle.lower_cumulative", "oracle.upper_cumulative"):
        return _cumulative_hook
    if name == "shape.find_shape":
        return _find_shape_hook
    if name == "limits.limit_at":
        return _limit_hook
    if name in _CHECKS:
        return _check_hook
    if name == "orders.compare_all":
        return _compare_all_hook
    parts = name.split(".")
    if len(parts) == 3 and parts[0] in ("models", "dsl") and parts[2] in _MODEL_EVAL:
        return _model_hook
    return None
