"""Scalar expression trees and their s-expression reader/printer.

An expression is a finite tree over: chart coordinates, rational constants,
n-ary sum and product, negation, nonnegative integer powers, quotients, and
the analytic heads sin/cos/exp.  Trees are never changed once built, and
caches key on identity, not structure, so nodes compare by identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConfigError


class Expr:
    __slots__ = ()


class Coord(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 0:
            raise ConfigError(f"coordinate index must be a nonnegative integer, got {index!r}")
        self.index = index


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value if isinstance(value, Fraction) else Fraction(value)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors


class Power(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ConfigError(f"power exponent must be a nonnegative integer, got {exponent!r}")
        self.base = base
        self.exponent = exponent


class Quotient(Expr):
    __slots__ = ("numer", "denom")

    def __init__(self, numer: Expr, denom: Expr):
        self.numer = numer
        self.denom = denom


class _Unary(Expr):
    """A head applied to one argument; each head is its own subclass."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class Neg(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


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
    while True:
        if pos >= len(tokens):
            raise ConfigError(f"unterminated ({head} ...)")
        if tokens[pos] == ")":
            pos += 1
            break
        arg, pos = _parse(tokens, pos, names)
        args.append(arg)
    return _form(head, args), pos


def _atom(tok: str, names) -> Expr:
    if _NUMBER.match(tok):
        return Const(Fraction(tok))
    if names is not None and tok in names:
        return Coord(names.index(tok))
    raise ConfigError(f"unknown symbol {tok!r}")


def _form(head: str, args: list[Expr]) -> Expr:
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

