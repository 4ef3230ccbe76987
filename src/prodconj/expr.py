"""Scalar expression trees and their s-expression reader/printer.

An expression is a finite tree over: chart coordinates, rational constants,
n-ary sum and product, negation, nonnegative integer powers, quotients, and
the analytic heads sin/cos/exp.  Trees are immutable; identity (not
structure) is what caches key on, so `eq=False` everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError


class Expr:
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Coord(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ConfigError(f"coordinate index must be a nonnegative integer, got {self.index!r}")


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=False)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True, eq=False)
class Product(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Power(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool) or self.exponent < 0:
            raise ConfigError(f"power exponent must be a nonnegative integer, got {self.exponent!r}")


@dataclass(frozen=True, eq=False)
class Quotient(Expr):
    numer: Expr
    denom: Expr


@dataclass(frozen=True, eq=False)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Exp(Expr):
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)(/\d+)?\Z")


def parse_exprs(text: str, names: tuple[str, ...] | None = None) -> list[Expr]:
    """Read whitespace-separated s-expressions.  `names` maps bare symbols to coordinates."""
    tokens = _TOKEN.findall(text)
    exprs, pos = [], 0
    while pos < len(tokens):
        expr, pos = _parse(tokens, pos, names)
        exprs.append(expr)
    return exprs


def parse_expr(text: str, names: tuple[str, ...] | None = None) -> Expr:
    """Read exactly one s-expression (see `parse_exprs`)."""
    exprs = parse_exprs(text, names)
    if len(exprs) != 1:
        raise ConfigError(f"expected one expression, got {len(exprs)}")
    return exprs[0]


def _parse(tokens: list[str], pos: int, names) -> tuple[Expr, int]:
    tok = tokens[pos]
    if tok == ")":
        raise ConfigError("unexpected ')'")
    if tok != "(":
        return _atom(tok, names), pos + 1
    pos += 1
    if pos >= len(tokens):
        raise ConfigError("unterminated '('")
    head = tokens[pos]
    pos += 1
    args: list[Expr] = []
    raw: list[str] = []
    while True:
        if pos >= len(tokens):
            raise ConfigError(f"unterminated ({head} ...)")
        if tokens[pos] == ")":
            pos += 1
            break
        raw.append(tokens[pos])
        arg, pos = _parse(tokens, pos, names)
        args.append(arg)
    return _form(head, args, raw), pos


def _atom(tok: str, names) -> Expr:
    if _NUMBER.match(tok):
        return Const(Fraction(tok))
    if names is not None and tok in names:
        return Coord(names.index(tok))
    raise ConfigError(f"unknown symbol {tok!r}")


def _form(head: str, args: list[Expr], raw: list[str]) -> Expr:
    if head == "coord":
        if len(args) != 1 or not isinstance(args[0], Const) or args[0].value.denominator != 1:
            raise ConfigError("(coord i) takes one integer index")
        return Coord(int(args[0].value))
    if head == "+":
        if not args:
            raise ConfigError("(+) needs at least one term")
        return args[0] if len(args) == 1 else Sum(tuple(args))
    if head == "*":
        if not args:
            raise ConfigError("(*) needs at least one factor")
        return args[0] if len(args) == 1 else Product(tuple(args))
    if head == "-":
        if len(args) == 1:
            return Neg(args[0])
        if len(args) == 2:
            return Sum((args[0], Neg(args[1])))
        raise ConfigError("(-) takes one or two arguments")
    if head == "/":
        if len(args) != 2:
            raise ConfigError("(/) takes exactly two arguments")
        return Quotient(args[0], args[1])
    if head == "pow":
        if len(args) != 2 or not isinstance(args[1], Const) or args[1].value.denominator != 1:
            raise ConfigError("(pow e n) takes an expression and an integer exponent")
        n = int(args[1].value)
        if n < 0:
            raise ConfigError(f"(pow e n) requires n >= 0, got {n}")
        return Power(args[0], n)
    if head in ("sin", "cos", "exp"):
        if len(args) != 1:
            raise ConfigError(f"({head} e) takes exactly one argument")
        return {"sin": Sin, "cos": Cos, "exp": Exp}[head](args[0])
    raise ConfigError(f"unknown operator {head!r}")


def format_expr(e: Expr, names: tuple[str, ...] | None = None) -> str:
    """Canonical s-expression text; inverse of parse_expr up to sugar."""
    match e:
        case Coord(index=i):
            if names is not None and i < len(names):
                return names[i]
            return f"(coord {i})"
        case Const(value=v):
            return str(v)
        case Sum(terms=ts):
            return "(+ " + " ".join(format_expr(t, names) for t in ts) + ")"
        case Product(factors=fs):
            return "(* " + " ".join(format_expr(f, names) for f in fs) + ")"
        case Neg(arg=a):
            return f"(- {format_expr(a, names)})"
        case Power(base=b, exponent=n):
            return f"(pow {format_expr(b, names)} {n})"
        case Quotient(numer=p, denom=q):
            return f"(/ {format_expr(p, names)} {format_expr(q, names)})"
        case Sin(arg=a):
            return f"(sin {format_expr(a, names)})"
        case Cos(arg=a):
            return f"(cos {format_expr(a, names)})"
        case Exp(arg=a):
            return f"(exp {format_expr(a, names)})"
    raise TypeError(f"not an expression: {e!r}")


def validate_expr(e: Expr, dim: int) -> None:
    """Reject coordinate references outside a dim-dimensional chart."""
    match e:
        case Coord(index=i):
            if i >= dim:
                raise ConfigError(f"coordinate index {i} out of range for dimension {dim}")
        case Const():
            pass
        case Sum(terms=ts):
            for t in ts:
                validate_expr(t, dim)
        case Product(factors=fs):
            for f in fs:
                validate_expr(f, dim)
        case Neg(arg=a) | Sin(arg=a) | Cos(arg=a) | Exp(arg=a):
            validate_expr(a, dim)
        case Power(base=b):
            validate_expr(b, dim)
        case Quotient(numer=p, denom=q):
            validate_expr(p, dim)
            validate_expr(q, dim)
        case _:
            raise TypeError(f"not an expression: {e!r}")

