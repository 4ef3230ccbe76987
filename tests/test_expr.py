"""Parser, formatter and validator for the scalar expression language."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prodconj.errors import ConfigError
from prodconj.expr import (
    Const,
    Coord,
    Power,
    Product,
    Quotient,
    Sin,
    Sum,
    format_expr,
    parse_expr,
    parse_exprs,
    validate_expr,
)

from oracles import eval_scalar


def test_atoms():
    assert parse_expr("3").value == Fraction(3)
    assert parse_expr("-2.5").value == Fraction(-5, 2)
    assert parse_expr("3/5").value == Fraction(3, 5)
    assert parse_expr("(coord 1)").index == 1
    assert parse_expr("x", names=("x", "y")).index == 0
    assert parse_expr("y", names=("x", "y")).index == 1


def test_product_at_a_point():
    e = parse_expr("(* x y)", names=("x", "y"))
    assert eval_scalar(e, (2.0, 3.0)) == 6.0


def test_forms():
    e = parse_expr("(+ 1 (* 2 (coord 0)) (pow (coord 1) 3))")
    assert float(eval_scalar(e, (0.5, 2.0))) == pytest.approx(1 + 1 + 8)
    q = parse_expr("(/ 1 (+ 1 (pow (coord 0) 2)))")
    assert isinstance(q, Quotient)
    assert float(eval_scalar(q, (1.0,))) == pytest.approx(0.5)
    assert isinstance(parse_expr("(sin (coord 0))"), Sin)


def test_unary_and_binary_minus():
    assert float(eval_scalar(parse_expr("(- 2)"), ())) == -2.0
    assert float(eval_scalar(parse_expr("(- 5 3)"), ())) == 2.0


@pytest.mark.parametrize("bad", [
    "", "(", ")", "(+", "(sin)", "(sin 1 2)", "(pow x)", "(pow (coord 0) -1)",
    "(unknown 1)", "(coord -1)", "(coord x)", "1 2", "z",
])
def test_parse_errors(bad):
    with pytest.raises(ConfigError):
        parse_expr(bad, names=("x", "y"))


def test_validate_rejects_out_of_range_coord():
    e = parse_expr("(coord 5)")
    with pytest.raises(ConfigError):
        validate_expr(e, 2)
    validate_expr(e, 6)


def test_format_names_coordinates():
    e = parse_expr("(* x (sin y))", names=("x", "y"))
    assert format_expr(e, names=("x", "y")) == "(* x (sin y))"


# -- round-trip property ------------------------------------------------

_names = ("x", "y")


def _exprs(depth):
    leaf = st.one_of(
        st.integers(-9, 9).map(lambda n: Const(Fraction(n))),
        st.fractions(min_value=-4, max_value=4, max_denominator=8).map(Const),
        st.sampled_from([Coord(0), Coord(1)]),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(Product),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        sub.map(Sin),
        st.tuples(sub, st.integers(0, 4)).map(lambda be: Power(*be)),
    )


@given(st.lists(_exprs(3), min_size=1, max_size=4))
def test_format_parse_round_trip(es):
    """Each tree reads back alone, and the space-joined texts of 1-4 trees
    read back in one pass as the same number of trees."""
    texts = [format_expr(e, names=_names) for e in es]
    back = parse_exprs(" ".join(texts), names=_names)
    assert len(back) == len(es)
    pt = (0.37, -0.81)
    for text, b, e in zip(texts, back, es):
        want = float(eval_scalar(e, pt))
        for got in (b, parse_expr(text, names=_names)):
            assert float(eval_scalar(got, pt)) == pytest.approx(want, rel=1e-12, abs=1e-12)
