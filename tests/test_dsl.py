import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qorder import dsl
from qorder.dsl import Bin, Call, Neg, Num, Var, as_quantile_model, evaluate, parse, render
from qorder.errors import DomainError, ParseError, ValidationError
from qorder.models import TukeyGeneralized, UnitExponential
from qorder.orders import compare_all


def test_precedence_power_over_times():
    # l + e*(p^a - (1-p)^a): the ^ nodes must sit under the * node
    tree = parse("l + e*(p^a - (1-p)^a)")
    assert tree.op == "+"
    mul = tree.right
    assert mul.op == "*"
    assert mul.right.left.op == "^"


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.5) == 512.0


def test_left_associative_subtraction():
    assert evaluate(parse("10 - 4 - 3"), 0.5) == 3.0
    assert evaluate(parse("16 / 4 / 2"), 0.5) == 2.0


def test_unary_minus_of_call():
    tree = parse("-log(1-p)")
    assert isinstance(tree, Neg)
    assert isinstance(tree.child, Call)
    assert evaluate(tree, 1 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


def test_worked_evaluations():
    e = parse("l + e*(p^a - (1-p)^a)")
    assert evaluate(e, 0.5, dict(l=4, e=1, a=2.5)) == pytest.approx(4.0)
    assert evaluate(parse("p^2"), 0.3) == pytest.approx(0.09)


def test_scientific_literals():
    assert evaluate(parse("1.5e2 + 2.5E-1"), 0.5) == pytest.approx(150.25)


def test_syntax_error_reports_offset():
    with pytest.raises(ParseError, match="offset 3"):
        parse("2 +")


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse("foo(p)")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2 p")


def test_unbound_parameter():
    with pytest.raises(ValidationError, match="unbound parameter 'x'"):
        evaluate(parse("x + p"), 0.5)


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError, match=r"log\(p - 1\)"):
        evaluate(parse("log(p-1)"), 0.5)
    with pytest.raises(DomainError):
        evaluate(parse("0^(-p)"), 0.5)


# ---------------------------------------------------------------------------
# round-trip property

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from(["p", "a", "b", "c"]).map(Var),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(st.sampled_from(["log", "exp", "sqrt", "abs"]), sub).map(lambda t: Call(*t)),
    )


@settings(max_examples=100, deadline=None)
@given(_trees(6))
def test_parse_render_round_trip(tree):
    assert parse(render(tree)) == tree


# ---------------------------------------------------------------------------
# model adapter


def test_uniform_density_is_one():
    m = as_quantile_model("p")
    grid = np.linspace(0.01, 0.99, 64)
    assert np.max(np.abs(m.quantile_density(grid) - 1.0)) < 1e-6


def test_dsl_exponential_matches_builtin():
    m = as_quantile_model("-log(1-p)")
    e = UnitExponential()
    grid = np.linspace(1 / 257, 256 / 257, 256)
    q_err = np.abs(m.quantile(grid) - e.quantile(grid)) / np.abs(e.quantile(grid))
    qd_err = np.abs(m.quantile_density(grid) - e.quantile_density(grid)) / e.quantile_density(grid)
    assert np.max(q_err) < 1e-6
    assert np.max(qd_err) < 1e-6


def test_dsl_tukey_density_matches_closed_form():
    m = as_quantile_model("l+e*(p^a-(1-p)^a)", bindings=dict(l=4, e=1, a=2.5))
    t = TukeyGeneralized(4, 1, 2.5)
    grid = np.linspace(1 / 257, 256 / 257, 256)
    err = np.abs(m.quantile_density(grid) - t.quantile_density(grid)) / t.quantile_density(grid)
    assert np.max(err) < 1e-4


def test_explicit_qdf_used_verbatim():
    m = as_quantile_model("p^2", qdf="2*p")
    assert m.quantile_density(0.25) == pytest.approx(0.5, rel=1e-15)


def test_non_monotone_rejected_with_witness():
    with pytest.raises(ValidationError, match="not strictly increasing"):
        as_quantile_model("1-p")


def test_support_endpoints_from_limits():
    m = as_quantile_model("p^2")
    assert m.tail_quantile(0) == pytest.approx(0.0, abs=1e-9)
    assert m.tail_quantile(1) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# compiled closures against the tree walk they replace


def _domain(cond, expr, what):
    if np.any(cond):
        raise DomainError(f"{what} in subexpression '{render(expr)}'")


def _evaluate_tree(expr, p, bindings=None):
    """Reference: evaluate as it walked the tree on every call."""
    bindings = bindings or {}

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            if node.name == "p":
                return np.asarray(p, dtype=float)
            if node.name not in bindings:
                raise ValidationError(f"unbound parameter {node.name!r}")
            return float(bindings[node.name])
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Call):
            arg = ev(node.arg)
            if node.fn == "log":
                _domain(np.asarray(arg) <= 0.0, node, "log of a non-positive value")
                return np.log(arg)
            if node.fn == "exp":
                return np.exp(arg)
            if node.fn == "sqrt":
                _domain(np.asarray(arg) < 0.0, node, "sqrt of a negative value")
                return np.sqrt(arg)
            return np.abs(arg)
        a, b = ev(node.left), ev(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            _domain(np.asarray(b) == 0.0, node, "division by zero")
            return a / b
        bb, aa = np.asarray(b), np.asarray(a)
        _domain((aa == 0.0) & (bb < 0.0), node, "zero raised to a negative power")
        _domain((aa < 0.0) & (bb != np.floor(bb)), node, "negative base with non-integer exponent")
        return np.power(a, b)

    out = ev(expr)
    if np.isscalar(p) or (isinstance(p, np.ndarray) and np.ndim(p) == 0):
        return float(out)
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(p)).copy() \
        if np.shape(out) != np.shape(p) else out


# the benchmark pool's expression families, each quantile with its qdf
_POOL_EXPRESSIONS = [
    ("s*(-log(1-p))^(1/k)", dict(s=2.42016, k=1.99702)),
    ("s/k*(-log(1-p))^(1/k-1)/(1-p)", dict(s=2.42016, k=1.99702)),
    ("s*(-log(1-p))^(1/k)", dict(s=0.790962, k=0.61)),
    ("s/k*(-log(1-p))^(1/k-1)/(1-p)", dict(s=0.790962, k=0.61)),
    ("s*(p/(1-p))^(1/b)", dict(s=1.37, b=3.2)),
    ("s/b*(p/(1-p))^(1/b-1)/(1-p)^2", dict(s=1.37, b=3.2)),
    ("s*(p/(1-p))^(1/b)", dict(s=0.5, b=0.8)),
    ("s/b*(p/(1-p))^(1/b-1)/(1-p)^2", dict(s=0.5, b=0.8)),
    ("-s*log(1-p)", dict(s=2.0)),
    ("s/(1-p)", dict(s=2.0)),
    # the ufuncs no pool family uses
    ("exp(s*p) + sqrt(p)*abs(p-0.5)", dict(s=3.7)),
]


def _bits(value):
    return type(value), np.asarray(value).tobytes()


def _outcome(fn, *args):
    """(exception type, message) or (value type, value bytes)."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _seeded_points(seed):
    rng = np.random.default_rng(seed)
    tiny = rng.uniform(0.0, 1e-15, 40)
    points = np.concatenate([rng.uniform(0.0, 1.0, 400), tiny, 1.0 - tiny,
                             [5e-324, 1e-300, 2.0**-53, 1.0 - 2.0**-53]])
    return points[(points > 0.0) & (points < 1.0)]


class TestCompiledAgainstTree:
    @pytest.mark.parametrize("text,bindings", _POOL_EXPRESSIONS)
    def test_bitwise_equal_on_scalar_and_array_points(self, text, bindings):
        expr = parse(text)
        fn = dsl.compile(expr, bindings)
        points = _seeded_points(20261018)
        defined = []
        for p in points:
            for x in (float(p), p):  # a Python float and an np.float64
                outcome = _outcome(fn, x)
                assert outcome == _outcome(_evaluate_tree, expr, x, bindings)
            defined.append(outcome[0] is float)
        assert _outcome(fn, points) == _outcome(_evaluate_tree, expr, points, bindings)
        inner = points[defined]  # e.g. the Weibull qdf has 0^negative where 1-p rounds to 1
        assert inner.size > 400
        assert _bits(fn(inner)) == _bits(_evaluate_tree(expr, inner, bindings))
        assert _bits(evaluate(expr, inner, bindings)) == _bits(fn(inner))

    def test_constant_expression_broadcasts_like_the_tree(self):
        expr, points = parse("2^3^2 - s"), _seeded_points(7)[:9].reshape(3, 3)
        assert _bits(dsl.compile(expr, dict(s=1.0))(points)) == \
            _bits(_evaluate_tree(expr, points, dict(s=1.0)))

    @pytest.mark.parametrize("text,exc_type,message", [
        ("log(p-1)", DomainError, "log of a non-positive value in subexpression 'log(p - 1)'"),
        ("log(p-p)", DomainError, "log of a non-positive value in subexpression 'log(p - p)'"),
        ("sqrt(p-1)", DomainError, "sqrt of a negative value in subexpression 'sqrt(p - 1)'"),
        ("1/(p-p)", DomainError, "division by zero in subexpression '1 / (p - p)'"),
        ("0^(-p)", DomainError, "zero raised to a negative power in subexpression '0 ^ (-p)'"),
        ("(p-1)^0.5", DomainError,
         "negative base with non-integer exponent in subexpression '(p - 1) ^ 0.5'"),
        ("x+p", ValidationError, "unbound parameter 'x'"),
        # left to right: the log fails before the unbound parameter is read
        ("log(p-1)+q", DomainError, "log of a non-positive value in subexpression 'log(p - 1)'"),
        ("q+log(p-1)", ValidationError, "unbound parameter 'q'"),
    ])
    def test_errors_match_for_scalar_and_array_p(self, text, exc_type, message):
        expr = parse(text)
        fn = dsl.compile(expr)  # an unbound parameter raises on the call, not here
        for p in (0.25, np.float64(0.25), np.array([0.5, 0.25])):
            assert _outcome(fn, p) == (exc_type, message)
            assert _outcome(_evaluate_tree, expr, p) == (exc_type, message)

    def test_integer_exponent_of_negative_base_is_allowed(self):
        expr = parse("(p-0.5)^3")
        for p in (0.25, np.array([0.25, 0.75])):
            assert _bits(dsl.compile(expr)(p)) == _bits(_evaluate_tree(expr, p))


class TestCompiledOnce:
    def test_model_compiles_at_construction_only(self, monkeypatch):
        calls = []
        compile_ = dsl.compile

        def spy(expr, bindings=None):
            calls.append(expr)
            return compile_(expr, bindings)

        monkeypatch.setattr(dsl, "compile", spy)
        m = as_quantile_model("s*(-log(1-p))^(1/k)", qdf="s/k*(-log(1-p))^(1/k-1)/(1-p)",
                              bindings=dict(s=1.0, k=2.0))
        assert calls == [parse("s*(-log(1-p))^(1/k)"), parse("s/k*(-log(1-p))^(1/k-1)/(1-p)")]
        for p in np.linspace(0.005, 0.995, 50):
            m.quantile(float(p))
            m.quantile_density(float(p))
        assert len(calls) == 2


class TestTailQuantileMemo:
    def test_one_limit_per_end_under_compare(self, monkeypatch):
        calls = []
        limit_at = dsl.limit_at

        def spy(fn, end, *args, **kwargs):
            calls.append(end)
            return limit_at(fn, end, *args, **kwargs)

        monkeypatch.setattr(dsl, "limit_at", spy)
        X = as_quantile_model("s*(-log(1-p))^(1/k)", qdf="s/k*(-log(1-p))^(1/k-1)/(1-p)",
                              bindings=dict(s=1.3, k=2.2))
        verdicts = compare_all(X, UnitExponential(), method="both")
        assert [v.status for v in verdicts] == ["Holds"] * 6
        assert calls == [0]  # without the memo, compare asks for this limit three times
        assert X.tail_quantile(0) == X.support_lo == pytest.approx(0.0, abs=1e-15)
        assert calls == [0]
