import math
import warnings

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


@pytest.mark.parametrize("text, offset", [("1e999*p", 0), ("p+1/1e999", 4), ("2*(p + 9e400)", 7)])
def test_a_literal_that_overflows_is_refused_at_its_offset(text, offset):
    with pytest.raises(ParseError, match=f"number '[^']+' at offset {offset} is not finite"):
        parse(text)


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
        st.tuples(st.sampled_from(dsl.FUNCTIONS), sub).map(lambda t: Call(*t)),
    )


@settings(max_examples=100, deadline=None)
@given(_trees(6))
def test_parse_render_round_trip(tree):
    assert parse(render(tree)) == tree


@pytest.mark.parametrize("text,rendered", [
    ("9999999999999998", "9999999999999998"),  # below 1e16: in full
    ("1e16", "1e+16"),
    ("1e308", "1e+308"),
    ("123456789012345678", "1.2345678901234568e+17"),
])
def test_an_integral_literal_from_1e16_renders_as_a_float(text, rendered):
    tree = parse(text)
    assert render(tree) == rendered
    assert parse(rendered) == tree


@pytest.mark.parametrize("text,rendered", [
    ("log1p(-p)", "log1p(-p)"),
    ("expm1(s*p)-log1p(p^2)", "expm1(s * p) - log1p(p ^ 2)"),
])
def test_log1p_and_expm1_round_trip(text, rendered):
    tree = parse(text)
    assert render(tree) == rendered
    assert parse(rendered) == tree


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


@pytest.mark.parametrize("qf,qdf", [
    ("p^45", "45*p^44"),  # steep near p = 0, where the logit grid's panels are widest in log p
    ("exp(300*p)", "300*exp(300*p)"),  # qd grows 1.66-fold across the widest panel, at p = 0.5
    # qd with a kink: inside a panel (p = 0.5, the logit grid's middle) and off-centre in one
    ("p+4*(p-0.5)*abs(p-0.5)", "1+8*abs(p-0.5)"),
    ("p+40*(p-0.3)*abs(p-0.3)", "1+80*abs(p-0.3)"),
    ("p+0.5*abs(p-0.3)", "1+0.5*(p-0.3)/abs(p-0.3)"),  # qd with a jump
    ("1e5+p", "1+0*p"),  # Q's rise on a tail panel is a few ulps of Q
])
def test_a_qdf_that_is_the_derivative_of_q_is_accepted(qf, qdf):
    as_quantile_model(qf, qdf=qdf)


@pytest.mark.parametrize("qdf", ["2.01*p", "2*p+1e-3", "2*p^1.001"])  # Q' = 2*p
def test_a_qdf_that_is_not_the_derivative_of_q_is_refused(qdf):
    with pytest.raises(ValidationError, match=r"^quantile density does not integrate to the "
                       r"quantile expression: qf\(\S+\) - qf\(\S+\) = \S+ but qd integrates"):
        as_quantile_model("p^2", qdf=qdf)


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
            if node.fn == "log1p":
                _domain(np.asarray(arg) <= -1.0, node, "log1p of a value at most -1")
                return np.log1p(arg)
            if node.fn == "exp":
                return np.exp(arg)
            if node.fn == "expm1":
                return np.expm1(arg)
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
    # the Weibull family written with log1p, accurate near p = 0
    ("s*(-log1p(-p))^(1/k)", dict(s=2.42016, k=1.99702)),
    ("s/k*(-log1p(-p))^(1/k-1)/(1-p)", dict(s=2.42016, k=1.99702)),
    # the ufuncs no pool family uses
    ("exp(s*p) + sqrt(p)*abs(p-0.5)", dict(s=3.7)),
    ("expm1(s*p)/s + log1p(p-0.5)", dict(s=3.7)),
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
        ("log1p(p-2)", DomainError,
         "log1p of a value at most -1 in subexpression 'log1p(p - 2)'"),
        ("1/(p-p)", DomainError, "division by zero in subexpression '1 / (p - p)'"),
        ("0^(-p)", DomainError, "zero raised to a negative power in subexpression '0 ^ (-p)'"),
        ("(p-1)^0.5", DomainError,
         "negative base with non-integer exponent in subexpression '(p - 1) ^ 0.5'"),
        ("(p-1)^p", DomainError,
         "negative base with non-integer exponent in subexpression '(p - 1) ^ p'"),
        # a folded negative fractional exponent: the base's sign picks the message
        ("(p-p)^(0-0.5)", DomainError,
         "zero raised to a negative power in subexpression '(p - p) ^ (0 - 0.5)'"),
        ("(p-1)^(0-0.5)", DomainError,
         "negative base with non-integer exponent in subexpression '(p - 1) ^ (0 - 0.5)'"),
        ("(p-p)^(0-p)", DomainError,
         "zero raised to a negative power in subexpression '(p - p) ^ (0 - p)'"),
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


# ---------------------------------------------------------------------------
# folded p-free subtrees against the tree walk


def _call(fn, *args):
    """(outcome, RuntimeWarnings) of one call, every floating-point flag warning.

    The scalar path computes on np.float64 where the tree walk used 0-d arrays,
    so numpy's "scalar " in a warning's operation name is dropped."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        outcome = _outcome(fn, *args)
    return outcome, [(w.category, str(w.message).replace("scalar ", "")) for w in caught
                     if issubclass(w.category, RuntimeWarning)]


def _assert_calls_match_tree(expr, bindings, p):
    """Two calls of the compiled expression each match one tree walk: value bits or
    exception, and the RuntimeWarnings that call gave."""
    fn = dsl.compile(expr, bindings)
    reference = _call(_evaluate_tree, expr, p, bindings)
    assert _call(fn, p) == reference
    assert _call(fn, p) == reference
    return reference


_PROPERTY_POINTS = (0.3, np.float64(0.5), np.array([1e-300, 0.25, 0.5, 1.0 - 2.0**-53]))
_BOUND = dict(zip("abc", np.random.default_rng(20261019).uniform(-4.0, 4.0, 3)))


@settings(max_examples=300, deadline=None)
@given(_trees(4))
def test_folded_closures_match_the_tree_walk(tree):
    for p in _PROPERTY_POINTS:
        _assert_calls_match_tree(tree, _BOUND, p)


_NAMED_CASES = [
    # expression, bindings, the exception raised at every point (or None), whether it warns
    ("p + 1/(k-k)", dict(k=2.0), DomainError, False),
    ("log(k-k)*p", dict(k=2.0), DomainError, False),
    ("log(p-1) + 2*q", {}, DomainError, False),  # the log fails before q is read
    ("exp(1000)*p", {}, None, True),  # overflows on every call, not once at compile
    ("(p-0.5)^3", {}, None, False),
    ("(p-0.5)^(0-2)", {}, None, False),  # raises at p = 0.5 only
    ("(p-1)^0.5", {}, DomainError, False),
    ("p^(0-0.5)", {}, None, False),
]


@pytest.mark.parametrize("text,bindings,raises,warns", _NAMED_CASES)
def test_named_cases_match_the_tree_walk(text, bindings, raises, warns):
    for p in (0.25, np.float64(0.5), np.array([0.25, 0.5, 0.75]), np.array([0.25, 0.75])):
        (kind, _), caught = _assert_calls_match_tree(parse(text), bindings, p)
        if raises is not None:
            assert kind is raises
        assert bool(caught) == warns


def test_p_free_subtrees_fold_only_when_clean():
    def compiled(text, bindings=None):
        with np.errstate(all="raise"):  # as dsl.compile calls it
            return dsl._compile(parse(text), bindings or {})

    fn, value = compiled("s/k", dict(s=2.42016, k=1.99702))
    assert value == 2.42016 / 1.99702
    assert fn(0.25) is value and fn(np.array([0.25, 0.75])) is value  # either form of p
    assert compiled("1/k-1", dict(k=2.0))[1] == -0.5
    assert compiled("exp(1000)")[1] is dsl._UNFOLDED  # it overflows
    assert compiled("1/(k-k)", dict(k=2.0))[1] is dsl._UNFOLDED  # it raises
    assert compiled("q")[1] is dsl._UNFOLDED  # unbound
    assert compiled("2*exp(1000)")[1] is dsl._UNFOLDED
    assert compiled("s*p", dict(s=1.0))[1] is dsl._VARIES


def test_a_p_free_subtree_is_evaluated_once_per_compile():
    class Counted(float):
        reads = 0

        def __float__(self):
            Counted.reads += 1
            return float.__float__(self)

    fn = dsl.compile(parse("s*p + s"), dict(s=Counted(2.0)))
    assert Counted.reads == 2  # each leaf once, for a scalar and an array p alike
    assert fn(0.25) == 2.5 and list(fn(np.array([0.25, 0.5]))) == [2.5, 3.0]
    assert Counted.reads == 2


@pytest.mark.parametrize("s,k", [(2.42016, 1.99702), (1.0, 0.7)])
def test_weibull_with_log1p_matches_mpmath_near_zero(s, k):
    mp = pytest.importorskip("mpmath")
    bindings = dict(s=s, k=k)
    qf = dsl.compile(parse("s*(-log1p(-p))^(1/k)"), bindings)
    qdf = dsl.compile(parse("s/k*(-log1p(-p))^(1/k-1)/(1-p)"), bindings)
    with mp.workdps(30):
        S, K = mp.mpf(s), mp.mpf(k)
        for p in np.logspace(-12, -6, 25):
            P = mp.mpf(float(p))
            h = -mp.log(1 - P)
            for got, exact in ((qf(p), S * h ** (1 / K)),
                               (qdf(p), S / K * h ** (1 / K - 1) / (1 - P))):
                assert abs(mp.mpf(got) - exact) <= mp.mpf("1e-14") * abs(exact), (p, got)
