"""Parser golden cases, print/parse round trips, and jet evaluation checks."""

import math
import random

import pytest

from opident.errors import EvalDomainError, NumericRangeError, ParseError, StructuralError
from opident.exprs import (
    BinOp,
    Const,
    Func,
    Neg,
    Pow,
    Var,
    eval_derivs,
    eval_jet,
    parse,
    to_text,
)
from opident import jets
from opident.functions import fn_from_expr

X = Var()


# (source, parsed tree, printed): to_text prints no spaces, only the
# parentheses that precedence needs, and each constant in its shortest form
GOLDEN = [
    ("x", X, "x"),
    ("42", Const(42.0), "42"),
    ("3.5e-2", Const(0.035), "0.035"),
    ("  x  ", X, "x"),
    ("x^2 + 1", BinOp("+", Pow(X, 2.0), Const(1.0)), "x^2+1"),
    ("sin(x)*exp(x)", BinOp("*", Func("sin", X), Func("exp", X)), "sin(x)*exp(x)"),
    ("-x", Neg(X), "-x"),
    ("--x", Neg(Neg(X)), "--x"),
    ("-x^2", Neg(Pow(X, 2.0)), "-x^2"),
    ("1+2*3", BinOp("+", Const(1.0), BinOp("*", Const(2.0), Const(3.0))), "1+2*3"),
    ("1*2+3", BinOp("+", BinOp("*", Const(1.0), Const(2.0)), Const(3.0)), "1*2+3"),
    ("1-2-3", BinOp("-", BinOp("-", Const(1.0), Const(2.0)), Const(3.0)), "1-2-3"),
    ("8/2/2", BinOp("/", BinOp("/", Const(8.0), Const(2.0)), Const(2.0)), "8/2/2"),
    ("(1+x)*3", BinOp("*", BinOp("+", Const(1.0), X), Const(3.0)), "(1+x)*3"),
    ("abs(x-2)", Func("abs", BinOp("-", X, Const(2.0))), "abs(x-2)"),
    ("ln(exp(x))", Func("ln", Func("exp", X)), "ln(exp(x))"),
    ("cos(x)^2", Pow(Func("cos", X), 2.0), "cos(x)^2"),
    ("x^2.5", Pow(X, 2.5), "x^2.5"),
    ("2*-x", BinOp("*", Const(2.0), Neg(X)), "2*-x"),
    ("exp(x^2)", Func("exp", Pow(X, 2.0)), "exp(x^2)"),
]

ERRORS = [
    ("2*(x", 4),      # unbalanced paren, detected at end of input
    ("2x", 1),        # implicit multiplication rejected
    ("x^-2", 2),      # exponent must be an unsigned numeric literal
    ("sin x", 4),     # function call needs parentheses
    ("y+1", 0),       # unknown identifier
    ("", 0),          # empty input
    ("x +", 3),       # dangling operator
    ("1..2", 1),      # stray character after a number
    ("x^(2)", 2),     # parenthesized exponent
    ("()", 1),        # empty parenthesis
    ("1%2", 1),       # unsupported operator
    ("x)", 1),        # trailing paren
]


@pytest.mark.parametrize(
    "text,expected", [g[:2] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_parse(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize(
    "text,printed", [g[::2] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_print(text, printed):
    assert to_text(parse(text)) == printed


@pytest.mark.parametrize("text,offset", ERRORS, ids=[e[0] or "<empty>" for e in ERRORS])
def test_golden_errors(text, offset):
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert exc_info.value.offset == offset
    assert "expected" in str(exc_info.value) or "un" in str(exc_info.value)


@pytest.mark.parametrize("text", ["x+1e999", "x^1e400"])
def test_non_finite_literal_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert exc_info.value.offset == 2
    assert "overflows" in str(exc_info.value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_in_a_built_tree_is_a_range_error(value):
    # a tree built in code bypasses the parser's literal check
    tree = BinOp("+", Var(), Const(value))
    with pytest.raises(NumericRangeError):
        to_text(tree)
    with pytest.raises(NumericRangeError):
        fn_from_expr(tree)


def random_expr(rng: random.Random, depth: int):
    """Random grammar-reachable AST (constants nonnegative: the grammar

    expresses negatives through unary minus)."""
    if depth <= 0:
        return rng.choice(
            [Var(), Const(float(rng.randint(0, 9))), Const(round(rng.uniform(0, 5), 3))]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(random_expr(rng, depth - 1))
    if kind == 1:
        return Func(
            rng.choice(("sin", "cos", "exp", "ln", "abs")),
            random_expr(rng, depth - 1),
        )
    if kind == 2:
        return Pow(random_expr(rng, depth - 1), float(rng.choice((0, 1, 2, 3, 0.5, 2.5))))
    if kind in (3, 4):
        op = rng.choice("+-*/")
        return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return random_expr(rng, depth - 1)


def test_print_parse_roundtrip_200():
    rng = random.Random(1387)
    for _ in range(200):
        tree = random_expr(rng, rng.randint(1, 5))
        text = to_text(tree)
        assert parse(text) == tree, text


def test_print_parse_idempotent_on_parsed_source():
    for text, _, _ in GOLDEN:
        tree = parse(text)
        assert parse(to_text(tree)) == tree


class TestEvalJet:
    def test_poly_example(self):
        j = eval_jet(parse("x^2+1"), 2.0, 1)
        assert j.derivs == (5.0, 4.0)

    def test_product_rule_example(self):
        j = eval_jet(parse("sin(x)*exp(x)"), 0.0, 1)
        assert j.derivs == (0.0, 1.0)

    def test_ln_of_negative_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("ln(x)"), -1.0, 2)

    def test_division_by_zero_reports_offset(self):
        with pytest.raises(EvalDomainError) as exc_info:
            eval_jet(parse("1/x"), 0.0, 1)
        assert "offset 1" in str(exc_info.value)

    def test_quotient(self):
        # (x/(1+x))' = 1/(1+x)^2 -> at x=1: [0.5, 0.25]
        j = eval_jet(parse("x/(1+x)"), 1.0, 1)
        assert math.isclose(j.derivs[0], 0.5, rel_tol=1e-14)
        assert math.isclose(j.derivs[1], 0.25, rel_tol=1e-14)

    def test_integer_power_squares_and_multiplies(self, monkeypatch):
        # one _conv per bit of the exponent and one per 1-bit: 14 for
        # x^1000, where repeated products took 999; counted on the
        # interpreter, as a program runs the products without calls
        calls = []
        conv = jets._conv
        monkeypatch.setattr(jets, "_conv", lambda a, b: calls.append(1) or conv(a, b))
        d = eval_derivs(parse("x^1000"), 0.5, 4)
        assert 0 < len(calls) <= 20
        # every partial product is an integer times a power of 2, so exact
        assert d == [math.perm(1000, k) * 0.5 ** (1000 - k) for k in range(5)]
        assert fn_from_expr("x^1000").eval_jet(0.5, 4) == tuple(d)

    def test_huge_integer_power(self):
        # |x| < 1 underflows to 0 in about 2,000 products; |x| > 1 overflows
        assert fn_from_expr("x^1e308").eval_jet(0.5, 4) == (0.0,) * 5
        with pytest.raises(NumericRangeError):
            fn_from_expr("x^1e308").eval_jet(2.0, 4)

    def test_abs_of_negative_branch(self):
        j = eval_jet(parse("abs(x-2)"), 1.0, 1)
        assert j.derivs == (1.0, -1.0)

    @pytest.mark.parametrize("text", ["ln(x)", "exp(x)", "x^2"])
    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_is_structural(self, text, x0):
        # checked before the expression runs, whatever it would raise there
        with pytest.raises(StructuralError, match="jet base point must be finite"):
            eval_jet(parse(text), x0, 2)


SMOOTH_SAMPLES = [
    ("exp(x)*sin(x)", 0.7),
    ("x^3-2*x+1", -0.4),
    ("cos(x^2)", 1.1),
    ("ln(2+x^2)", 0.3),
    ("exp(sin(x))", -1.2),
    ("1/(2+cos(x))", 2.0),
    ("x^2.5", 1.7),
]


@pytest.mark.parametrize("text,x0", SMOOTH_SAMPLES, ids=[s[0] for s in SMOOTH_SAMPLES])
def test_first_derivative_matches_central_difference(text, x0):
    tree = parse(text)
    h = 1e-5
    fp = eval_jet(tree, x0 + h, 0).value
    fm = eval_jet(tree, x0 - h, 0).value
    fd = (fp - fm) / (2 * h)
    d1 = eval_jet(tree, x0, 1).derivs[1]
    assert math.isclose(d1, fd, rel_tol=1e-5, abs_tol=1e-8)


def test_jet_consistency_across_orders():
    tree = parse("exp(sin(x))*ln(2+x^2)")
    full = eval_jet(tree, 0.6, 6)
    for k in range(6):
        assert eval_jet(tree, 0.6, k).derivs == full.derivs[: k + 1]
