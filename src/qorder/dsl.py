"""A tiny expression language for user-supplied quantile functions.

Grammar (no implicit multiplication):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := unary ("^" factor)?          # right-associative power
    unary   := "-" unary | atom
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``p`` is the probability variable; any other identifier is a parameter that
must be bound at evaluation time.  Functions: log, exp, sqrt, abs.

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

FUNCTIONS = ("log", "exp", "sqrt", "abs")


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


# Domain tests, one table per evaluation mode: a scalar call compares plain
# numbers, an array call reduces with np.any.  Both raise on the same values.
_SCALAR_TESTS = {
    "log": lambda x: x <= 0.0,
    "sqrt": lambda x: x < 0.0,
    "/": lambda b: b == 0.0,
    "zero^neg": lambda a, b: a == 0.0 and b < 0.0,
    "neg^frac": lambda a, b: a < 0.0 and b != np.floor(b),
}
_ARRAY_TESTS = {
    "log": lambda x: np.any(np.asarray(x) <= 0.0),
    "sqrt": lambda x: np.any(np.asarray(x) < 0.0),
    "/": lambda b: np.any(np.asarray(b) == 0.0),
    "zero^neg": lambda a, b: np.any((np.asarray(a) == 0.0) & (np.asarray(b) < 0.0)),
    "neg^frac": lambda a, b: np.any((np.asarray(a) < 0.0) & (np.asarray(b) != np.floor(b))),
}
_CHECKED_CALLS = {"log": (np.log, "log of a non-positive value"),
                  "sqrt": (np.sqrt, "sqrt of a negative value")}


def _domain_error(node, what):
    return DomainError(f"{what} in subexpression '{render(node)}'")


def _compile(node, bindings, tests):
    """A closure p -> value of ``node``; children run left to right, then the
    node's own domain test, then its numpy ufunc or Python operator."""
    if isinstance(node, Num):
        value = node.value
        return lambda p: value
    if isinstance(node, Var):
        name = node.name
        if name == "p":
            return lambda p: p
        if name not in bindings:
            def unbound(p):
                raise ValidationError(f"unbound parameter {name!r}")
            return unbound
        raw = bindings[name]
        try:
            value = float(raw)
        except (TypeError, ValueError):
            return lambda p: float(raw)  # raises when evaluated, in evaluation order
        return lambda p: value
    if isinstance(node, Neg):
        child = _compile(node.child, bindings, tests)
        return lambda p: -child(p)
    if isinstance(node, Call):
        arg = _compile(node.arg, bindings, tests)
        if node.fn == "exp":
            return lambda p: np.exp(arg(p))
        if node.fn == "abs":
            return lambda p: np.abs(arg(p))
        ufunc, what = _CHECKED_CALLS[node.fn]
        bad = tests[node.fn]

        def call(p):
            x = arg(p)
            if bad(x):
                raise _domain_error(node, what)
            return ufunc(x)
        return call
    if isinstance(node, Bin):
        left = _compile(node.left, bindings, tests)
        right = _compile(node.right, bindings, tests)
        if node.op == "+":
            return lambda p: left(p) + right(p)
        if node.op == "-":
            return lambda p: left(p) - right(p)
        if node.op == "*":
            return lambda p: left(p) * right(p)
        if node.op == "/":
            zero = tests["/"]

            def divide(p):
                a, b = left(p), right(p)
                if zero(b):
                    raise _domain_error(node, "division by zero")
                return a / b
            return divide
        zero_neg, neg_frac = tests["zero^neg"], tests["neg^frac"]

        def power(p):
            a, b = left(p), right(p)
            if zero_neg(a, b):
                raise _domain_error(node, "zero raised to a negative power")
            if neg_frac(a, b):
                raise _domain_error(node, "negative base with non-integer exponent")
            return np.power(a, b)
        return power
    raise TypeError(f"not an Expression: {node!r}")


def compile(expr: Expression, bindings=None):
    """Compile ``expr`` once into a callable p -> value (scalar or array p).

    Parameters are looked up in ``bindings`` now; an unbound one raises
    ValidationError when the callable runs, in evaluation order.  Values equal
    a walk of the tree bit for bit: every node applies the same ufunc or
    operator to the same operand types.
    """
    bindings = bindings or {}
    scalar_fn = _compile(expr, bindings, _SCALAR_TESTS)
    array_fn = _compile(expr, bindings, _ARRAY_TESTS)

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
        grid = np.linspace(1.0 / 1025.0, 1024.0 / 1025.0, 1024)
        vals = self._qf_fn(grid)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"quantile expression is not finite: qf({grid[i]:.6f}) = {vals[i]:.9g}")
        bad = np.nonzero(np.diff(vals) <= 0.0)[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                "quantile expression is not strictly increasing: "
                f"qf({grid[i]:.6f}) = {vals[i]:.9g} >= qf({grid[i + 1]:.6f}) = {vals[i + 1]:.9g}"
            )

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
