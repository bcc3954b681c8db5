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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import EvalDomainError, NumericRangeError, ParseError
from .jets import (
    Jet,
    jet_abs,
    jet_constant,
    jet_exp,
    jet_linear_combine,
    jet_ln_abs,
    jet_power,
    jet_product,
    jet_reciprocal,
    jet_sin_cos,
    jet_variable,
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
    """Jet of the denoted function at x0, by structural recursion.

    Domain violations (log of a nonpositive value, division by zero at x0,
    abs/fractional powers at a kink) raise EvalDomainError naming the source
    offset of the offending subexpression when available.
    """
    if isinstance(node, Const):
        return jet_constant(x0, node.value, order)
    if isinstance(node, Var):
        return jet_variable(x0, order)
    if isinstance(node, Neg):
        return -eval_jet(node.arg, x0, order)
    if isinstance(node, Pow):
        base = eval_jet(node.base, x0, order)
        return _located(jet_power, node, base, node.exponent)
    if isinstance(node, Func):
        arg = eval_jet(node.arg, x0, order)
        if node.name == "sin":
            return jet_sin_cos(arg)[0]
        if node.name == "cos":
            return jet_sin_cos(arg)[1]
        if node.name == "exp":
            return jet_exp(arg)
        if node.name == "abs":
            return _located(jet_abs, node, arg)
        # ln: strict natural log, needs a positive value
        if arg.value <= 0.0:
            raise EvalDomainError(
                f"ln of a nonpositive value ({arg.value}){_at(node)}"
            )
        return jet_ln_abs(arg)
    if isinstance(node, BinOp):
        left = eval_jet(node.left, x0, order)
        right = eval_jet(node.right, x0, order)
        if node.op == "+":
            return jet_linear_combine(1.0, left, 1.0, right)
        if node.op == "-":
            return jet_linear_combine(1.0, left, -1.0, right)
        if node.op == "*":
            return jet_product(left, right)
        if right.value == 0.0:
            raise EvalDomainError(f"division by zero{_at(node)}")
        return jet_product(left, jet_reciprocal(right))
    raise TypeError(f"not an Expr node: {node!r}")


def _at(node: Expr) -> str:
    return f" at offset {node.pos}" if node.pos >= 0 else ""


def _located(fn, node, *args):
    try:
        return fn(*args)
    except EvalDomainError as exc:
        raise EvalDomainError(f"{exc}{_at(node)}") from None
