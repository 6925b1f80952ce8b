"""A tiny expression language for user-supplied quantile functions.

Grammar (no implicit multiplication):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := unary ("^" factor)?          # right-associative power
    unary   := "-" unary | atom
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``p`` is the probability variable; any other identifier is a parameter that
must be bound at evaluation time.  Functions: log, log1p, exp, expm1, sqrt,
abs.

Each expression is compiled once into a tree of closures (``compile``);
``evaluate`` compiles and calls in one step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .models import QuantileModel, check_p
from .limits import limit_at

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "render",
    "compile",
    "evaluate",
    "as_quantile_model",
    "DslModel",
]

FUNCTIONS = ("log", "log1p", "exp", "expm1", "sqrt", "abs")
QDF_RTOL = 1e-3  # how far a given qdf's panel integrals may stray from Q's rises


class Expression:
    """Base class for AST nodes; immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    child: Expression


@dataclass(frozen=True)
class Bin(Expression):
    op: str  # + - * / ^
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tails; anything else is a lexing failure
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = len(text) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r} at offset {bad}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, val, off = self.peek()
        got = "end of input" if kind == "eof" else repr(val)
        raise ParseError(f"syntax error at offset {off}: got {got}, expected {expected}")

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind == "op" and val == op:
            return self.next()
        self.fail(f"'{op}'")

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Bin("^", node, self.factor())  # right-associative
        return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, val, off = self.peek()
        if kind == "num":
            self.next()
            if not np.isfinite(float(val)):
                raise ParseError(f"number {val!r} at offset {off} is not finite")
            return Num(float(val))
        if kind == "ident":
            self.next()
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {val!r} at offset {off}; "
                        f"available: {', '.join(FUNCTIONS)}"
                    )
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("a number, identifier, function call, '-' or '('")


def parse(text: str) -> Expression:
    """Parse an expression; raises ParseError with the byte offset on failure."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    p = _Parser(text)
    node = p.expr()
    if p.peek()[0] != "eof":
        p.fail("end of input or an operator")
    return node


# ---------------------------------------------------------------------------
# rendering and evaluation

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def render(expr: Expression) -> str:
    """Serialize an AST back to source; parse(render(e)) == e."""
    if isinstance(expr, Num):  # integral below 1e16 in full ("2"), else as repr ("1e+16")
        v = expr.value
        return str(int(v)) if abs(v) < 1e16 and v == int(v) else repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = render(expr.child)
        if isinstance(expr.child, (Bin, Neg)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.fn}({render(expr.arg)})"
    if isinstance(expr, Bin):
        lhs, rhs = render(expr.left), render(expr.right)
        prec = _PREC[expr.op]
        if isinstance(expr.left, Bin) and (
            _PREC[expr.left.op] < prec or (expr.op == "^" and _PREC[expr.left.op] == prec)
        ):
            lhs = f"({lhs})"
        elif isinstance(expr.left, Neg):
            lhs = f"({lhs})"
        if isinstance(expr.right, Bin) and (
            _PREC[expr.right.op] < prec
            or (_PREC[expr.right.op] == prec and expr.op != "^")
        ):
            rhs = f"({rhs})"
        elif isinstance(expr.right, Neg):
            rhs = f"({rhs})"
        return f"{lhs} {expr.op} {rhs}"
    raise TypeError(f"not an Expression: {expr!r}")


# Domain tests as raw comparisons.  A scalar operand (the scalar path's
# np.float64, or any value that does not depend on p) gives one flag, an array
# operand (a plain ndarray: ``compile`` converts p) one flag per point, which
# each guard reduces with ndarray.any(): both forms of p raise on the same values.
_ARRAY = np.ndarray
_TESTS = {
    "zero": lambda x: x == 0.0,
    "negative": lambda x: x < 0.0,
    "non-positive": lambda x: x <= 0.0,
    "at most -1": lambda x: x <= -1.0,
}
_CHECKED_CALLS = {"log": (np.log, _TESTS["non-positive"], "log of a non-positive value"),
                  "log1p": (np.log1p, _TESTS["at most -1"], "log1p of a value at most -1"),
                  "sqrt": (np.sqrt, _TESTS["negative"], "sqrt of a negative value")}
_CALLS = {"exp": np.exp, "expm1": np.expm1, "abs": np.abs}
_ZERO_NEG = "zero raised to a negative power"
_NEG_FRAC = "negative base with non-integer exponent"

# What _compile knows of a node's value besides a folded constant: it depends
# on p, or it does not but raises or warns, so it runs on every call.
_VARIES = object()
_UNFOLDED = object()


def _domain_error(node, what):
    return DomainError(f"{what} in subexpression '{render(node)}'")


def _folded(value):
    return value is not _VARIES and value is not _UNFOLDED


def _node(build, *children):
    """(closure, what is known of the value) of a node over ``children``.

    ``children`` are the operands' (closure, value) pairs, left to right, and
    ``build(*operands)`` makes the node's closure over the operands' closures;
    it serves a scalar and an array p alike.  A p-free node whose operands are
    all folded is evaluated once, now, under the np.errstate(all="raise") that
    ``compile`` sets: when that raises nothing, so sets no floating-point flag
    either, every call returns the same value.  Otherwise the node runs on
    every call, so its error or warning surfaces there, in evaluation order."""
    fn = build(*[operand for operand, _ in children])
    for mark in (_VARIES, _UNFOLDED):
        if any(value is mark for _, value in children):
            return fn, mark
    try:
        value = fn(None)
    except Exception:  # whatever it is, the call raises it again
        return fn, _UNFOLDED
    return _constant(value)


def _constant(value):
    """The closure and value of a node that returns ``value`` on every call."""
    return (lambda p: value), value


def _guarded(node, operand, bad, what, apply):
    """p -> apply(operand(p)), raising DomainError(what) where bad(operand)."""
    def guarded(p):
        x = operand(p)
        flags = bad(x)
        if flags.any() if type(flags) is _ARRAY else flags:
            raise _domain_error(node, what)
        return apply(x)
    return guarded


def _divide(node, left, right, b):
    if _folded(b) and not b == 0.0:  # settled: this divisor is never zero
        return lambda p: left(p) / b

    def divide(p):
        a, d = left(p), right(p)
        flags = d == 0.0
        if flags.any() if type(flags) is _ARRAY else flags:
            raise _domain_error(node, "division by zero")
        return a / d
    return divide


def _power(node, left, right, b):
    if _folded(b):  # a constant exponent rules out what it cannot produce
        neg, frac = b < 0.0, b != np.floor(b)
        if neg and frac:
            def power(p):
                x = left(p)
                flags = x <= 0.0  # one pass; the precise test only picks the message
                if flags.any() if type(flags) is _ARRAY else flags:
                    zero = (x == 0.0).any() if type(flags) is _ARRAY else x == 0.0
                    raise _domain_error(node, _ZERO_NEG if zero else _NEG_FRAC)
                return np.power(x, b)
            return power
        if neg or frac:
            test, what = ("zero", _ZERO_NEG) if neg else ("negative", _NEG_FRAC)
            return _guarded(node, left, _TESTS[test], what, lambda x: np.power(x, b))
        return lambda p: np.power(left(p), b)

    def power(p):
        x, y = left(p), right(p)
        flags = (x == 0.0) & (y < 0.0)
        if flags.any() if type(flags) is _ARRAY else flags:
            raise _domain_error(node, _ZERO_NEG)
        flags = (x < 0.0) & (y != np.floor(y))
        if flags.any() if type(flags) is _ARRAY else flags:
            raise _domain_error(node, _NEG_FRAC)
        return np.power(x, y)
    return power


_ARITHMETIC = {
    "+": lambda left, right: lambda p: left(p) + right(p),
    "-": lambda left, right: lambda p: left(p) - right(p),
    "*": lambda left, right: lambda p: left(p) * right(p),
}


def _compile(node, bindings):
    """(closure, folded value or _VARIES or _UNFOLDED) of ``node``.

    One bottom-up pass: children run left to right, then the node's own domain
    test, then its numpy ufunc or Python operator.  A p-free subtree is folded
    by ``_node``; a test on a folded operand is settled here."""
    if isinstance(node, Num):
        return _constant(node.value)
    if isinstance(node, Var):
        name = node.name
        if name == "p":
            return (lambda p: p), _VARIES
        if name not in bindings:
            def unbound(p):
                raise ValidationError(f"unbound parameter {name!r}")
            return unbound, _UNFOLDED
        raw = bindings[name]
        return _node(lambda: lambda p: float(raw))
    if isinstance(node, Neg):
        return _node(lambda child: lambda p: -child(p), _compile(node.child, bindings))
    if isinstance(node, Call):
        arg = _compile(node.arg, bindings)
        if node.fn in _CALLS:
            ufunc = _CALLS[node.fn]
            return _node(lambda x: lambda p: ufunc(x(p)), arg)
        ufunc, test, what = _CHECKED_CALLS[node.fn]
        return _node(lambda x: _guarded(node, x, test, what, ufunc), arg)
    if isinstance(node, Bin):
        left = _compile(node.left, bindings)
        right = _compile(node.right, bindings)
        b = right[1]
        if node.op == "/":
            return _node(lambda x, y: _divide(node, x, y, b), left, right)
        if node.op == "^":
            return _node(lambda x, y: _power(node, x, y, b), left, right)
        return _node(_ARITHMETIC[node.op], left, right)
    raise TypeError(f"not an Expression: {node!r}")


def compile(expr: Expression, bindings=None):
    """Compile ``expr`` once into a callable p -> value (scalar or array p).

    One tree of closures serves both forms of p; the callable only converts p
    to np.float64 or to an array, and the result back.  Parameters are looked
    up in ``bindings`` now; an unbound one raises ValidationError when the
    callable runs, in evaluation order.  Values equal a walk of the tree bit
    for bit: every node applies the same ufunc or operator to the same operand
    types.  A subtree that does not depend on p is evaluated here, once, when
    that raises nothing and sets no floating-point flag; otherwise on every
    call, so errors and warnings are those of the walk.
    """
    bindings = bindings or {}
    with np.errstate(all="raise"):  # for _node's folding; nothing else here computes
        fn, _ = _compile(expr, bindings)

    def compiled(p):
        if type(p) is float or np.isscalar(p) or (isinstance(p, np.ndarray) and p.ndim == 0):
            return float(fn(np.float64(p)))
        out = fn(np.asarray(p, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(p)).copy() \
            if np.shape(out) != np.shape(p) else out
    return compiled


def evaluate(expr: Expression, p, bindings=None):
    """Evaluate at probability p (scalar or array) with parameter bindings."""
    return compile(expr, bindings)(p)


# ---------------------------------------------------------------------------
# model adapter


class DslModel(QuantileModel):
    """Quantile model backed by parsed expressions."""

    def __init__(self, qf, qdf=None, bindings=None):
        self._qf = qf
        self._qdf = qdf
        self._bindings = dict(bindings or {})
        self._qf_fn = compile(qf, self._bindings)
        self._qdf_fn = None if qdf is None else compile(qdf, self._bindings)
        self._validate()

    def _validate(self):
        """Q finite and strictly increasing, qd finite, positive and, if given, Q's derivative
        on the default grid, whose profile the engine reuses; a failure names where it is."""
        prof = self.profile(4096)
        grid, vals, qd = prof.grid, prof.q, prof.qd
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"quantile expression is not finite: qf({grid[i]:.9g}) = {vals[i]:.9g}")
        rise = np.diff(vals)
        bad = np.flatnonzero(rise <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                "quantile expression is not strictly increasing: "
                f"qf({grid[i]:.9g}) = {vals[i]:.9g} >= qf({grid[i + 1]:.9g}) = {vals[i + 1]:.9g}"
            )
        bad = np.flatnonzero(~(np.isfinite(qd) & (qd > 0.0)))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"quantile density is not finite and positive: qd({grid[i]:.9g}) = {qd[i]:.9g}")
        if self._qdf is None:
            return
        # qd's trapezoid on a panel of width h misses its integral by at most h^2/8 times the
        # variation of qd' there. The turns of qd's slope into and out of the panel, times h^2/2,
        # bound that with room for a kink (4x) or a jump (2x) in qd, and 12x for smooth qd (the
        # end panels count their one turn twice). Past that, QDF_RTOL of the rise and 9 ulps of Q.
        h = np.diff(grid)
        integral = (0.5 * qd[:-1] + 0.5 * qd[1:]) * h
        if not (np.abs(rise - integral) > QDF_RTOL * rise).any():
            return  # the other terms only widen the allowance; they cost 1.5% of a DSL compare
        turn = np.abs(np.diff(np.diff(qd) / h))
        turns = np.concatenate((turn[:1], turn)) + np.concatenate((turn, turn[-1:]))
        size = np.abs(vals)
        slack = (0.5 * h * h * turns + QDF_RTOL * rise
                 + 2e-15 * np.maximum(size[:-1], size[1:]))
        bad = np.flatnonzero(np.abs(rise - integral) > slack)
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                "quantile density does not integrate to the quantile expression: "
                f"qf({grid[i + 1]:.9g}) - qf({grid[i]:.9g}) = {rise[i]:.9g} but qd integrates "
                f"to {integral[i]:.9g} on that panel")

    def quantile(self, p):
        return self._qf_fn(check_p(p))

    def quantile_density(self, p):
        p = check_p(p)
        if self._qdf_fn is not None:
            return self._qdf_fn(p)
        h = 1e-6 * np.minimum(p, 1.0 - p)
        upper = self._qf_fn(p + h)
        lower = self._qf_fn(p - h)
        return (upper - lower) / (2.0 * h)

    def tail_quantile(self, end):
        memo = self.__dict__.setdefault("_tails", {})  # like profile, kept per instance
        if end not in memo:
            lim = limit_at(self._qf_fn, end)
            # an indeterminate limit falls back to an evaluation 1e-12 from the endpoint
            memo[end] = (lim.x if lim.is_determinate
                         else float(self.quantile(1e-12 if end == 0 else 1.0 - 1e-12)))
        return memo[end]

    def label(self):
        parts = [f"dsl:{render(self._qf)}"]
        if self._qdf is not None:
            parts.append(f"qdf={render(self._qdf)}")
        parts.extend(f"{k}={v:g}" for k, v in sorted(self._bindings.items()))
        return ";".join(parts)


def as_quantile_model(qf, qdf=None, bindings=None) -> DslModel:
    """Wrap expressions into a QuantileModel, validating monotonicity."""
    if isinstance(qf, str):
        qf = parse(qf)
    if isinstance(qdf, str):
        qdf = parse(qdf)
    return DslModel(qf, qdf, bindings)
