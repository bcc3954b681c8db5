"""exprs.run_program, each tree shape's straight-line program, against the
interpreter it traces: results bitwise, errors by type and message, at
points and on grid rows, and the program table's sharing and bound."""

import dis
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opident import exprs, functions, identities, jets
from opident.errors import EvalDomainError, NumericRangeError
from opident.exprs import (
    FUNCTIONS,
    BinOp,
    Const,
    Func,
    Neg,
    Pow,
    Var,
    eval_derivs,
    parse,
    run_program,
    shape,
)
from opident.operators import builtin_blackbox

# signed zeros, a subnormal and magnitudes whose products overflow
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 5e-324, 1e-300, 1e300, -1e300)
constants = st.one_of(
    st.sampled_from(SPECIAL), st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
)
# positive, negative, zero (of both signs) and fractional exponents
exponents = st.sampled_from(
    (0.0, -0.0, 1.0, 2.0, 3.0, 5.0, -1.0, -2.0, -3.0, 0.5, 1.5, 2.5, -0.5, -1.5)
)
points = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 1e-300, 700.0))
trees = st.recursive(
    st.one_of(st.builds(Var), st.builds(Const, constants)),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Func, st.sampled_from(FUNCTIONS), children),
        st.builds(Pow, children, exponents),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
    ),
    max_leaves=8,
)


def bits(d):
    """The exact content of a derivs list: types, and each entry's hex or
    row bytes."""
    if isinstance(d, np.ndarray):
        return ("array", d.dtype.str, d.shape, d.tobytes())
    if isinstance(d, list):
        return ["list", *map(bits, d)]
    return (type(d).__name__, float(d).hex())


def outcome(evaluate, *args):
    with np.errstate(all="ignore"):
        try:
            return bits(evaluate(*args))
        except (EvalDomainError, NumericRangeError) as exc:
            return type(exc).__name__, str(exc)


def compiled(tree, x, order):
    return run_program(tree, *shape(tree), x, order)


def reruns(monkeypatch):
    """The nodes the interpreter is called on, at values rather than a
    trace's placeholders, from now on (its recursion included)."""
    calls = []
    interpret = exprs.eval_derivs

    def spy(node, x, order):
        if not isinstance(x, jets._Value):
            calls.append(node)
        return interpret(node, x, order)

    monkeypatch.setattr(exprs, "eval_derivs", spy)
    return calls


@given(trees, points, st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_points_are_the_interpreter(tree, x, order):
    assert outcome(compiled, tree, x, order) == outcome(eval_derivs, tree, x, order)


@given(trees, st.lists(points, min_size=1, max_size=6), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_grid_rows_are_the_interpreter(tree, xs, order):
    row = np.array(xs)
    assert outcome(compiled, tree, row, order) == outcome(eval_derivs, tree, row, order)


# a tree, and a point where the interpreter raises
FAILING = {
    "ln-negative": (parse("ln(x)"), -1.0),
    "ln-zero": (parse("ln(x-1)"), 1.0),
    "division-by-zero": (parse("1/x"), 0.0),
    "division-by-difference": (parse("2/(x-x)"), 0.5),
    "abs-kink": (parse("abs(x)"), 0.0),
    "abs-kink-minus-zero": (parse("abs(x)"), -0.0),
    "fractional-power-negative": (parse("x^2.5"), -1.0),
    "fractional-power-zero": (parse("(x-1)^0.5"), 1.0),
    "negative-power-zero": (Pow(Var(), -2.0), 0.0),
    "product-overflow": (parse("exp(-x*1e200*1e200)"), 0.5),
    "exp-overflow": (parse("exp(1000*x)"), 1.0),
    "sin-of-overflow": (parse("sin(x*1e300*1e300)"), 0.5),
    "constants-alone": (parse("ln(x^0-x^0)"), 0.5),
    "const-inf": (Const(math.inf), 0.5),
    "times-const-inf": (BinOp("*", Var(), Const(math.inf)), 0.5),
    "exp-const-nan": (Func("exp", Const(math.nan)), 0.5),
}


@pytest.mark.parametrize("case", FAILING)
@pytest.mark.parametrize("on", ["point", "grid"])
def test_errors_are_the_interpreters(monkeypatch, case, on):
    tree, x = FAILING[case]
    arg = x if on == "point" else np.array([0.25, x, -0.75])
    want = outcome(eval_derivs, tree, arg, 3)
    assert want[0] in ("EvalDomainError", "NumericRangeError")
    calls = reruns(monkeypatch)
    assert outcome(compiled, tree, arg, 3) == want
    # the program gave way to the interpreter, once
    assert sum(node is tree for node in calls) == 1


def test_errors_through_fn_from_expr_name_the_point():
    # a grid read reruns point by point, and the first failing point raises
    f = functions.fn_from_expr("ln(x)")
    with pytest.raises(EvalDomainError, match=r"^ln of a nonpositive value \(-1\.0\) at offset 0$"):
        f.eval_jet((0.5, -1.0, -2.0), 2)
    with pytest.raises(NumericRangeError, match=r"^exp overflow at value 1000\.0$"):
        functions.fn_from_expr("exp(1000*x)").eval_jet((0.5, 1.0), 1)


TEMPLATES = ("{a}*sin({b}*x+{c})", "ln(x^2+{a})", "1/({r}+cos(x))", "(x^2+{a})^2.5")


def expression_keys(table):
    """The keys of the expression programs in the program table."""
    return [key for key in table if type(key[0]) is str]


@pytest.mark.parametrize("template", TEMPLATES)
def test_one_program_per_shape(monkeypatch, program_table, template):
    args = [-1.0, -0.0, 0.3, 1.0, np.linspace(-1.0, 1.0, 9)]
    trees = [
        parse(template.format(a=a, b=b, c=c, r=r))
        for a, b, c, r in ((0.5, 1.25, 0.75, 1.5), (2.0, 0.5, 1.0, 3.0), (1.375, 2.0, 0.0, 2.25))
    ]
    want = [outcome(eval_derivs, tree, x, 3) for tree in trees for x in args]
    calls = reruns(monkeypatch)
    assert [outcome(compiled, tree, x, 3) for tree in trees for x in args] == want
    assert len(expression_keys(program_table)) == 1  # three sets of constants, one program
    assert calls == []  # no guard failed


def test_point_and_grid_share_one_code_object(program_table):
    tree = parse("exp(x)*cos(2*x)")
    compiled(tree, 0.5, 2)
    [key] = expression_keys(program_table)
    point, grid = program_table[key]
    assert point.__code__ is grid.__code__
    assert point.__globals__["exp"] is math.exp
    assert grid.__globals__ is not point.__globals__


def test_a_result_nothing_reads_is_not_computed(monkeypatch, program_table):
    # ln's kernel divides by the value for the entries past it; at order 0
    # nothing reads the quotient, so the program holds no division
    tree = parse("ln(x^2+1)")
    args = [0.0, -0.5, 3.0, np.linspace(-2.0, 2.0, 9)]
    want = [outcome(eval_derivs, tree, x, 0) for x in args]
    calls = reruns(monkeypatch)
    assert [outcome(compiled, tree, x, 0) for x in args] == want
    assert calls == []
    [key] = expression_keys(program_table)
    code = dis.get_instructions(program_table[key][0])
    assert [i.opname for i in code if "/" in i.argrepr or "DIVIDE" in i.opname] == []


def test_table_is_cleared_when_full(monkeypatch, program_table):
    # subset and expression programs share the table and its cap
    monkeypatch.setattr(jets, "_PROGRAMS_CAP", 3)
    subset = (identities._subset_loop, 2, 4)
    op = builtin_blackbox("third-derivative")
    fs = [functions.fn_monomial(3), functions.fn_exp_of(functions.fn_monomial(1))]

    def terms():
        return [t.hex() for t in identities.alternating_subset_terms(op, fs, 0.7)]

    want = terms()
    compiled(parse("x*2"), 0.7, 2)
    assert list(program_table) == [subset, ("(x)*(c)", 2)]
    old = program_table[subset]
    compiled(parse("x+1"), 0.7, 2)
    assert len(program_table) == 3
    compiled(parse("x-1"), 0.7, 2)  # a miss at the cap drops both kinds
    assert list(program_table) == [("(x)-(c)", 2)]
    assert terms() == want
    new = program_table[subset]
    assert new is not old and new[0].__code__ == old[0].__code__
    for source in ("x*2", "sin(x)", "cos(x)*x", "x+1", "x^3"):
        tree = parse(source)
        assert bits(compiled(tree, 0.7, 2)) == bits(eval_derivs(tree, 0.7, 2))
        assert len(program_table) <= 3
    # the same shape at another order is another program
    compiled(parse("x+3"), 0.7, 4)
    assert ("(x)+(c)", 4) in program_table


def test_compiles_at_the_first_evaluation(program_table):
    f = functions.fn_from_expr("x^2+0.5")
    assert program_table == {}
    f.eval_jet(0.25, 1)
    assert expression_keys(program_table) == [("((x)^2.0)+(c)", 1)]


def test_a_long_recording_is_not_compiled(monkeypatch, program_table):
    # x^1e308 squares 1,023 times: a recording far past the cap, which
    # stops there, and whose program returns None at once, so every read
    # runs the interpreter
    tree = parse("x^1e308")
    with pytest.raises(jets._RecordingFull):
        exprs._compile(jets._CappedNodes(), tree, 4)
    points = (0.5, 1.0, 1.5, -1.0, np.array([0.5, 1.0, 2.0]))
    want = [outcome(eval_derivs, tree, x, 4) for x in points]
    assert "NumericRangeError" in {w[0] for w in want}
    calls = reruns(monkeypatch)
    assert [outcome(compiled, tree, x, 4) for x in points] == want
    assert sum(node is tree for node in calls) == len(points)
    point, grid = program_table[shape(tree)[0], 4]
    assert point(0.5) is grid(np.array([0.5])) is None


def test_a_long_recording_stops_at_the_cap(monkeypatch):
    # the trace of x^1e308, and the subset loop's for 7 jets of length 6,
    # stop at the node that would pass the cap: one failed append, no more
    tried = []
    append = jets._CappedNodes.append

    def counted(nodes, node):
        tried.append(len(nodes))
        append(nodes, node)

    monkeypatch.setattr(jets._CappedNodes, "append", counted)
    recordings = ((exprs._compile, (parse("x^1e308"), 4)), (identities._subset_recording, (7, 6)))
    for record, args in recordings:
        tried.clear()
        with pytest.raises(jets._RecordingFull):
            record(jets._CappedNodes(), *args)
        assert tried == list(range(jets._RECORDING_CAP + 1))


def test_shape_leaves_out_the_constants():
    assert shape(parse("2*sin(x)+-3.5^2")) == ("((c)*(sin(x)))+(-((c)^2.0))", [2.0, 3.5])
    assert shape(parse("2*sin(x)"))[0] == shape(parse("0.25*sin(x)"))[0]
    assert shape(parse("x^2"))[0] != shape(parse("x^3"))[0]
