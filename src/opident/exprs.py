"""One-variable expression DSL: recursive-descent parser and jet evaluator.

Grammar (whitespace-insensitive, LL(1), no implicit multiplication):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" number)?
    atom   := number | "x" | ident "(" expr ")" | "(" expr ")"
    ident  := "sin" | "cos" | "exp" | "ln" | "abs"

Exponents are literal numeric constants, so jets of every expression stay
closed-form. Numeric literals are decimal with optional fraction and
exponent part (no hex, no leading sign) and must round to a finite float.

One evaluator, eval_derivs, takes a point or a whole grid in one pass, and
defines what every evaluation gives. run_program gives the same by a
straight-line program per (shape, order): eval_derivs, with the derivs
kernels it calls, traced once by the recorder of jets.py on placeholders
for x and for the tree's constants, which become the program's parameters,
so trees that differ only in their constants share one program. The trace
keeps each check of the interpreter as a guard in its place; where a guard
fails, or the program raises OverflowError, eval_derivs reruns and gives
its own result or error. So results and errors are the interpreter's,
bitwise. A shape's recording (_compile) is compiled at its first
evaluation by jets._program into jets._PROGRAMS, the package's one program
table, beside the subset loop's programs. A trace stops as it passes
jets._RECORDING_CAP nodes and compiles to a program that returns None at
once, so its shape always runs the interpreter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import EvalDomainError, NumericRangeError, ParseError, StructuralError
from .jets import (
    _PROGRAMS,
    Jet,
    _abs_derivs,
    _any,
    _as_float,
    _check_finite,
    _conv,
    _exp_derivs,
    _ln_abs_derivs,
    _power_derivs,
    _program,
    _reciprocal_derivs,
    _sin_cos_derivs,
    _Value,
)

FUNCTIONS = ("sin", "cos", "exp", "ln", "abs")


# AST nodes. `pos` is the source byte offset, kept out of equality so that
# print/parse round trips compare structurally.

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expr):
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float
    pos: int = field(default=-1, compare=False, repr=False)


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


@dataclass
class _Token:
    kind: str  # "number" | "x" | "func" | one of + - * / ^ ( ) | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER.match(text, i)
            if not math.isfinite(float(m.group())):
                raise ParseError(f"number {m.group()!r} overflows the float range", i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            word = m.group()
            if word == "x":
                tokens.append(_Token("x", word, i))
            elif word in FUNCTIONS:
                tokens.append(_Token("func", word, i))
            else:
                raise ParseError(
                    f"unknown identifier {word!r} (expected 'x' or one of "
                    + ", ".join(FUNCTIONS) + ")",
                    i,
                )
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            found = self.cur.text or "end of input"
            raise ParseError(f"expected {what}, found {found!r}", self.cur.pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            node = BinOp(op.kind, node, rhs, pos=op.pos)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor()
            node = BinOp(op.kind, node, rhs, pos=op.pos)
        return node

    def parse_factor(self) -> Expr:
        if self.cur.kind == "-":
            tok = self.advance()
            return Neg(self.parse_factor(), pos=tok.pos)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.cur.kind == "^":
            self.advance()
            num = self.expect("number", "a numeric exponent")
            return Pow(base, float(num.text), pos=num.pos)
        return base

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text), pos=tok.pos)
        if tok.kind == "x":
            self.advance()
            return Var(pos=tok.pos)
        if tok.kind == "func":
            self.advance()
            self.expect("(", "'('")
            arg = self.parse_expr()
            self.expect(")", "')'")
            return Func(tok.text, arg, pos=tok.pos)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        found = tok.text or "end of input"
        raise ParseError(
            f"expected a number, 'x', a function call, or '(', found {found!r}",
            tok.pos,
        )


def parse(text: str) -> Expr:
    """Parse an expression string into an AST; ParseError carries the offset."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.cur.kind != "end":
        raise ParseError(
            f"expected an operator or end of input, found {parser.cur.text!r}",
            parser.cur.pos,
        )
    return node


# Printing. Precedence levels: add(1) < mul(2) < unary minus(3) < pow(4) < atom(5).

def format_number(v: float) -> str:
    """Shortest DSL text of v; a non-finite v, which no literal denotes,
    raises NumericRangeError."""
    if not math.isfinite(v):
        raise NumericRangeError(f"constant {v} is not finite")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _print(node: Expr, parent_level: int) -> str:
    if isinstance(node, Const):
        text, level = format_number(node.value), 5
    elif isinstance(node, Var):
        text, level = "x", 5
    elif isinstance(node, Func):
        text, level = f"{node.name}({_print(node.arg, 0)})", 5
    elif isinstance(node, Neg):
        text, level = "-" + _print(node.arg, 3), 3
    elif isinstance(node, Pow):
        text = _print(node.base, 5) + "^" + format_number(node.exponent)
        level = 4
    elif isinstance(node, BinOp):
        if node.op in "+-":
            level = 1
            # left-associative: right child needs strictly higher level
            text = _print(node.left, 1) + node.op + _print(node.right, 2)
        else:
            level = 2
            text = _print(node.left, 2) + node.op + _print(node.right, 3)
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    if level < parent_level:
        return "(" + text + ")"
    return text


def to_text(node: Expr) -> str:
    """Render an AST back to DSL source that reparses to an equal AST."""
    return _print(node, 0)


def eval_jet(node: Expr, x0: float, order: int) -> Jet:
    """Jet of the denoted function at x0: eval_derivs at the point."""
    x0 = float(x0)
    if not math.isfinite(x0):
        raise StructuralError("jet base point must be finite")
    return Jet(x0, eval_derivs(node, x0, order))


def eval_derivs(node: Expr, x, order: int) -> list:
    """Derivatives 0..order of the denoted function by structural recursion,
    at a point x or, entry by entry, on a grid given as an array x: bitwise
    the per-point derivatives, stacked.

    Every node's entries must be finite, else NumericRangeError. Domain
    violations (log of a nonpositive value, division by zero, abs or a
    fractional power at a kink) raise EvalDomainError naming the source
    offset of the offending subexpression when available. On a grid, either
    error says only that some point fails.
    """
    if isinstance(node, Const):
        d = [_as_float(node.value)] + [0.0] * order
    elif isinstance(node, Var):
        d = ([x, 1.0] + [0.0] * (order - 1))[: order + 1]
    elif isinstance(node, Neg):
        d = [-v for v in eval_derivs(node.arg, x, order)]
    elif isinstance(node, Pow):
        base = eval_derivs(node.base, x, order)
        d = _located(_power_derivs, node, base, node.exponent)
    elif isinstance(node, Func):
        arg = eval_derivs(node.arg, x, order)
        if node.name in ("sin", "cos"):
            s, c = map(_check_finite, _sin_cos_derivs(arg))  # as jet_sin_cos
            d = s if node.name == "sin" else c
        elif node.name == "exp":
            d = _exp_derivs(arg)
        elif node.name == "abs":
            d = _located(_abs_derivs, node, arg)
        else:  # ln: strict natural log, needs a positive value
            if _any(arg[0] <= 0.0):
                raise EvalDomainError(f"ln of a nonpositive value ({arg[0]}){_at(node)}")
            d = _ln_abs_derivs(arg)
    elif isinstance(node, BinOp):
        left = eval_derivs(node.left, x, order)
        right = eval_derivs(node.right, x, order)
        if node.op == "+":
            d = [a + b for a, b in zip(left, right)]
        elif node.op == "-":
            d = [a - b for a, b in zip(left, right)]
        elif node.op == "*":
            d = _conv(left, right)
        else:
            if _any(right[0] == 0.0):
                raise EvalDomainError(f"division by zero{_at(node)}")
            d = _conv(left, _check_finite(_reciprocal_derivs(right)))
    else:
        raise TypeError(f"not an Expr node: {node!r}")
    return _check_finite(d)


def _at(node: Expr) -> str:
    return f" at offset {node.pos}" if node.pos >= 0 else ""


def _located(fn, node, *args):
    try:
        return fn(*args)
    except EvalDomainError as exc:
        raise EvalDomainError(f"{exc}{_at(node)}") from None


def shape(node: Expr) -> tuple[str, list[float]]:
    """(key, constants): text that names node's tree with its constants
    left out, and float() of each constant in the order run_program takes
    them."""
    constants: list[float] = []
    return _shape(node, constants), constants


def _shape(node: Expr, constants: list) -> str:
    if isinstance(node, Const):
        constants.append(float(node.value))
        return "c"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"-({_shape(node.arg, constants)})"
    if isinstance(node, Func):
        return f"{node.name}({_shape(node.arg, constants)})"
    if isinstance(node, Pow):
        return f"({_shape(node.base, constants)})^{node.exponent!r}"
    if isinstance(node, BinOp):
        return f"({_shape(node.left, constants)}){node.op}({_shape(node.right, constants)})"
    raise TypeError(f"not an Expr node: {node!r}")


def _with_constants(node: Expr, new) -> Expr:
    """node with each constant replaced by new(), in the order of shape."""
    if isinstance(node, Const):
        return Const(new(), node.pos)
    if isinstance(node, Neg):
        return Neg(_with_constants(node.arg, new), node.pos)
    if isinstance(node, Func):
        return Func(node.name, _with_constants(node.arg, new), node.pos)
    if isinstance(node, Pow):
        return Pow(_with_constants(node.base, new), node.exponent, node.pos)
    if isinstance(node, BinOp):
        left, right = _with_constants(node.left, new), _with_constants(node.right, new)
        return BinOp(node.op, left, right, node.pos)
    return node


def _compile(nodes: list, node: Expr, order: int) -> tuple:
    """The recording (name, params, nodes, result), on nodes, of
    eval_derivs(node, x, order) as a function of x and node's constants. A
    trace that raises the interpreter's error has met a check on values the
    shape alone fixes, as in ln(x^0-x^0), which fails at every input: its
    program returns None after the guards before it. A trace that passes
    jets._RECORDING_CAP nodes, as of x^1e308, stops; its program returns
    None at once."""
    params = ["x"]

    def parameter():
        params.append(f"c{len(params) - 1}")
        return _Value(nodes, params[-1], name=params[-1])

    x = _Value(nodes, "x", name="x")
    template = _with_constants(node, parameter)
    try:
        result = eval_derivs(template, x, order)
    except (EvalDomainError, NumericRangeError):
        result = None
    return f"expr_order_{order}", params, nodes, result


def run_program(node: Expr, key: str, constants: list[float], x, order: int) -> list:
    """eval_derivs(node, x, order), bitwise, errors included, for (key,
    constants) = shape(node): by the program of key at order, compiled on
    first use, or by eval_derivs where it returns None or overflows."""
    programs = _PROGRAMS.get((key, order)) or _program((key, order), _compile, node, order)
    try:
        d = programs[type(x) is not float](x, *constants)
    except OverflowError:
        d = None
    return eval_derivs(node, x, order) if d is None else d
