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
    if isinstance(expr, Num):
        return repr(expr.value) if expr.value != int(expr.value) else str(int(expr.value))
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


# Domain tests, one table per operand form: a scalar operand (the scalar
# path's np.float64, or any value that does not depend on p) is compared as a
# plain number, an array operand is reduced once with ndarray.any().  Both
# raise on the same values.
_SCALAR_TESTS = {
    "zero": lambda x: x == 0.0,
    "negative": lambda x: x < 0.0,
    "non-positive": lambda x: x <= 0.0,
    "at most -1": lambda x: x <= -1.0,
    "zero^neg": lambda a, b: a == 0.0 and b < 0.0,
    "neg^frac": lambda a, b: a < 0.0 and b != np.floor(b),
}
_ARRAY_TESTS = {
    "zero": lambda x: (x == 0.0).any(),
    "negative": lambda x: (x < 0.0).any(),
    "non-positive": lambda x: (x <= 0.0).any(),
    "at most -1": lambda x: (x <= -1.0).any(),
    "zero^neg": lambda a, b: ((a == 0.0) & (b < 0.0)).any(),
    "neg^frac": lambda a, b: ((a < 0.0) & (b != np.floor(b))).any(),
}
_CHECKED_CALLS = {"log": (np.log, "non-positive", "log of a non-positive value"),
                  "log1p": (np.log1p, "at most -1", "log1p of a value at most -1"),
                  "sqrt": (np.sqrt, "negative", "sqrt of a negative value")}
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
    """(closures, what is known of the value) of a node over ``children``.

    ``children`` are the operands' (closures, value) pairs, left to right, and
    ``build(tests, *operands)`` makes the node's closure over one closure per
    operand, ``tests`` being the table for operands that depend on p.  A node
    that depends on p gets one closure per form of p.  A p-free node gets one
    closure for both forms, because its operands use _SCALAR_TESTS in either.
    When its operands are all folded it is evaluated once, now, under the
    np.errstate(all="raise") that ``compile`` sets: when that raises nothing,
    so sets no floating-point flag either, every call returns the same value.
    Otherwise it runs on every call, so its error or warning surfaces there,
    in evaluation order."""
    known = None
    for _, value in children:
        if value is _VARIES:
            scalar_fn = build(_SCALAR_TESTS, *[fns[0] for fns, _ in children])
            array_fn = build(_ARRAY_TESTS, *[fns[1] for fns, _ in children])
            return (scalar_fn, array_fn), _VARIES
        if value is _UNFOLDED:
            known = _UNFOLDED
    fn = build(_SCALAR_TESTS, *[fns[0] for fns, _ in children])
    if known is _UNFOLDED:
        return (fn, fn), _UNFOLDED
    try:
        value = fn(None)
    except Exception:  # whatever it is, the call raises it again
        return (fn, fn), _UNFOLDED
    return _constant(value)


def _constant(value):
    """The closures and value of a node that returns ``value`` on every call."""
    const = lambda p: value
    return (const, const), value


def _guarded(node, operand, bad, what, apply):
    """p -> apply(operand(p)), raising DomainError(what) where bad(operand)."""
    def guarded(p):
        x = operand(p)
        if bad(x):
            raise _domain_error(node, what)
        return apply(x)
    return guarded


def _divide(node, left, right, b, tests):
    if _folded(b) and not b == 0.0:  # settled: this divisor is never zero
        return lambda p: left(p) / b
    zero = tests["zero"] if b is _VARIES else _SCALAR_TESTS["zero"]

    def divide(p):
        a, d = left(p), right(p)
        if zero(d):
            raise _domain_error(node, "division by zero")
        return a / d
    return divide


def _power(node, left, a, right, b, tests):
    if _folded(b):  # a constant exponent rules out what it cannot produce
        t = tests if a is _VARIES else _SCALAR_TESTS
        neg, frac = b < 0.0, b != np.floor(b)
        if neg and frac:
            nonpos, zero = t["non-positive"], t["zero"]

            def power(p):
                x = left(p)
                if nonpos(x):  # one pass; the precise test only picks the message
                    raise _domain_error(node, _ZERO_NEG if zero(x) else _NEG_FRAC)
                return np.power(x, b)
            return power
        if neg or frac:
            test, what = ("zero", _ZERO_NEG) if neg else ("negative", _NEG_FRAC)
            return _guarded(node, left, t[test], what, lambda x: np.power(x, b))
        return lambda p: np.power(left(p), b)
    t = tests if a is _VARIES or b is _VARIES else _SCALAR_TESTS
    zero_neg, neg_frac = t["zero^neg"], t["neg^frac"]

    def power(p):
        x, y = left(p), right(p)
        if zero_neg(x, y):
            raise _domain_error(node, _ZERO_NEG)
        if neg_frac(x, y):
            raise _domain_error(node, _NEG_FRAC)
        return np.power(x, y)
    return power


_ARITHMETIC = {
    "+": lambda tests, left, right: lambda p: left(p) + right(p),
    "-": lambda tests, left, right: lambda p: left(p) - right(p),
    "*": lambda tests, left, right: lambda p: left(p) * right(p),
}


def _compile(node, bindings):
    """((scalar-p closure, array-p closure), folded value or _VARIES or _UNFOLDED).

    One bottom-up pass: children run left to right, then the node's own domain
    test, then its numpy ufunc or Python operator.  A p-free subtree is folded
    by ``_node``; a test on a folded operand is settled here."""
    if isinstance(node, Num):
        return _constant(node.value)
    if isinstance(node, Var):
        name = node.name
        if name == "p":
            identity = lambda p: p
            return (identity, identity), _VARIES
        if name not in bindings:
            def unbound(p):
                raise ValidationError(f"unbound parameter {name!r}")
            return (unbound, unbound), _UNFOLDED
        raw = bindings[name]
        return _node(lambda tests: lambda p: float(raw))
    if isinstance(node, Neg):
        return _node(lambda tests, child: lambda p: -child(p),
                     _compile(node.child, bindings))
    if isinstance(node, Call):
        arg = _compile(node.arg, bindings)
        if node.fn in _CALLS:
            ufunc = _CALLS[node.fn]
            return _node(lambda tests, x: lambda p: ufunc(x(p)), arg)
        ufunc, test, what = _CHECKED_CALLS[node.fn]
        return _node(lambda tests, x: _guarded(node, x, tests[test], what, ufunc), arg)
    if isinstance(node, Bin):
        left = _compile(node.left, bindings)
        right = _compile(node.right, bindings)
        a, b = left[1], right[1]
        if node.op == "/":
            return _node(lambda tests, x, y: _divide(node, x, y, b, tests), left, right)
        if node.op == "^":
            return _node(lambda tests, x, y: _power(node, x, a, y, b, tests), left, right)
        return _node(_ARITHMETIC[node.op], left, right)
    raise TypeError(f"not an Expression: {node!r}")


def compile(expr: Expression, bindings=None):
    """Compile ``expr`` once into a callable p -> value (scalar or array p).

    Parameters are looked up in ``bindings`` now; an unbound one raises
    ValidationError when the callable runs, in evaluation order.  Values equal
    a walk of the tree bit for bit: every node applies the same ufunc or
    operator to the same operand types.  A subtree that does not depend on p
    is evaluated here, once, when that raises nothing and sets no
    floating-point flag; otherwise on every call, so errors and warnings are
    those of the walk.
    """
    bindings = bindings or {}
    with np.errstate(all="raise"):  # for _node's folding; nothing else here computes
        (scalar_fn, array_fn), _ = _compile(expr, bindings)

    def compiled(p):
        if type(p) is float or np.isscalar(p) or (isinstance(p, np.ndarray) and p.ndim == 0):
            return float(scalar_fn(np.float64(p)))
        out = array_fn(np.asarray(p, dtype=float))
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
        """Q finite and strictly increasing and qd finite and positive on the default
        grid, whose profile the engine then reuses; each failure names its first point."""
        prof = self.profile(4096)
        grid, vals, qd = prof.grid, prof.q, prof.qd
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"quantile expression is not finite: qf({grid[i]:.9g}) = {vals[i]:.9g}")
        bad = np.flatnonzero(np.diff(vals) <= 0.0)
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
            # an indeterminate limit falls back to a near-endpoint evaluation
            memo[end] = lim.as_float() if lim.is_determinate else super().tail_quantile(end)
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
