"""Parser, arithmetic, calculus and round-trip behavior of the exact polynomials."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgma.errors import DomainError
from sgma.polyexpr import MAX_COEFF_BITS, MAX_DEGREE, MAX_TERMS, ParseError, Poly, \
    parse_poly

XYZ = ("x", "y", "Z")


def test_parse_fold_example_terms():
    p = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", XYZ)
    assert p.terms == {
        (0, 2, 0): Fraction(1, 2),
        (2, 0, 1): Fraction(-1, 2),
        (0, 0, 3): Fraction(1, 6),
    }


def test_parse_zero():
    assert parse_poly("0", ("x", "y")).is_zero


def test_parse_binomial_square():
    q = parse_poly("(x + y)^2", ("x", "y"))
    assert q.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


def test_print_then_reparse_is_identity():
    p = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", XYZ)
    assert parse_poly(str(p), XYZ) == p


def test_diff_power_rule():
    p = parse_poly("Z^3/6", XYZ)
    assert p.diff("Z") == parse_poly("Z^2/2", XYZ)


def test_diff_fold_vertical():
    t = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", XYZ)
    assert -t.diff("Z") == parse_poly("x^2/2 - Z^2/2", XYZ)


def test_diff_constant_is_zero():
    assert parse_poly("7", XYZ).diff("x").is_zero


def test_eval_exact():
    t = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", XYZ)
    assert t.eval((1, 1, 1)) == Fraction(1, 6)
    minus_tz = -t.diff("Z")
    assert minus_tz.eval((2, 0, 0)) == 2
    assert Poly.zero(XYZ).eval((3, 4, 5)) == 0


def test_eval_kind_follows_inputs():
    t = parse_poly("x^2 + y", ("x", "y"))
    assert isinstance(t.eval((Fraction(1, 2), 1)), Fraction)
    assert isinstance(t.eval((0.5, 1)), float)


def test_eval_mapping_and_arity_errors():
    t = parse_poly("x + y", ("x", "y"))
    assert t.eval({"x": 1, "y": 2}) == 3
    with pytest.raises(ValueError):
        t.eval((1,))
    with pytest.raises(ValueError):
        t.eval({"x": 1})
    with pytest.raises(ValueError):
        t.eval({"x": 1, "y": 2, "z": 3})


def test_unknown_variable_errors():
    with pytest.raises(ParseError) as err:
        parse_poly("w + 1", ("x",))
    assert err.value.position == 0
    with pytest.raises(ValueError):
        parse_poly("x", ("x",)).diff("q")


def test_exponent_errors():
    with pytest.raises(ParseError):
        parse_poly("x^y", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("x^-2", ("x",))
    with pytest.raises(ParseError):
        parse_poly("x^(2)", ("x",))


def test_size_budget():
    xyz = ("x", "y", "Z")
    # (x+y+Z)^k has C(k+2, 2) terms: 990 at k = 43, 1035 at k = 44.
    assert len(parse_poly("(x+y+Z)^43", xyz).terms) == 990 <= MAX_TERMS
    assert parse_poly(f"x^{MAX_DEGREE}", xyz).degree() == MAX_DEGREE
    assert len(parse_poly("(x+y+Z)^22*(x+y+Z)^21", xyz).terms) == 990
    assert parse_poly(f"0*x^{MAX_DEGREE}*x^{MAX_DEGREE}", xyz).is_zero
    # Coefficient bits are bounded by k * (b + bit_length(t - 1)) for a k-th
    # power of t terms of b bits, and for a product by the sum of the factors'
    # bits + bit_length(min(t1, t2) - 1); 10^200 has 665 bits, 10^400 1329.
    assert parse_poly("(10^200*10^200)^3", xyz).constant_value() == 10 ** 1200
    assert parse_poly("10^200*10^200*10^200*x", xyz).terms == {(1, 0, 0): 10 ** 600}
    assert len(parse_poly("(10^100*x + y + 1)^12", xyz).terms) == 91
    assert parse_poly(f"(2*x + 1)^{MAX_DEGREE}", xyz).degree() == MAX_DEGREE
    for text, position, message in [
        ("(x+y+Z)^44", 8, "1035 terms"),
        ("(x+y+Z)^80", 8, "3321 terms"),
        ("(x+y+Z)^22*(x+y+Z)^22", 10, "1035 terms"),
        (f"x^{MAX_DEGREE + 1}", 2, "exponent"),
        (f"2^{MAX_DEGREE + 1}", 2, "exponent"),
        (f"x^{MAX_DEGREE}*y", 5, "degree"),
        ("(x^2+y)^200", 8, "degree"),
        ("((10^200)^200)^200", 10, f"133000 bits exceed the limit of {MAX_COEFF_BITS}"),
        ("(((10^200)^200)^200)^2", 11, "133000 bits"),
        ("(10^200)^7", 9, "4655 bits"),
        ("10^200*10^200*10^200*10^200*10^200*10^200*10^200", 41, "4652 bits"),
        ("(10^100*x + y + 1)^13", 19, "4355 bits"),
    ]:
        with pytest.raises(ParseError, match=message) as info:
            parse_poly(text, xyz)
        assert info.value.position == position


def test_float_eval_overflow_raises_domain_error():
    p = parse_poly("x^4 + y", ("x", "y"))
    with pytest.raises(DomainError, match="overflows"):
        p.eval([1e200, 0.0])
    assert p.eval([2.0 ** 250, 1.0]) == 2.0 ** 1000
    # The parser's bit budget admits 10^400, which no float holds; a failed
    # build is not cached, and exact evaluation still works.
    q = parse_poly("(10^200)^2*Z^2 + y^2", ("y", "Z"))
    for _ in range(2):
        with pytest.raises(DomainError, match="overflows"):
            q.eval([0.0, 1.0])
    assert q.eval([0, 1]) == 10 ** 400


def test_evaluated_polynomials_pickle(fold_gf):
    # Compiled evaluators stay behind; the copies compile their own.
    from sgma.ma_core import pullback_metric_polys

    p = parse_poly("x^4/3 + y", ("x", "y"))
    vector = pullback_metric_polys(fold_gf)
    point = [0.5, -1.25, 2.0]
    want = (p.eval([0.5, 2.0]), p.eval([1, 2]), vector.eval(point))
    p2, vector2 = pickle.loads(pickle.dumps((p, vector)))
    assert p2 == p and vector2 == vector and type(vector2) is type(vector)
    assert (p2.eval([0.5, 2.0]), p2.eval([1, 2]), vector2.eval(point)) == want


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_poly("2x", ("x",))
    with pytest.raises(ParseError):
        parse_poly("(x + 1)(x - 1)", ("x",))


def test_division_restrictions():
    with pytest.raises(ParseError):
        parse_poly("x/(y)", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("x/0", ("x",))
    # rational literals and scaled monomials are fine
    assert parse_poly("3/4", ("x",)).constant_value() == Fraction(3, 4)
    assert parse_poly("y^2/2", ("x", "y")).terms == {(0, 2): Fraction(1, 2)}


def test_unary_minus_binds_looser_than_power():
    assert parse_poly("-x^2", ("x",)).eval((3,)) == -9


def test_variable_mismatch_requires_explicit_renaming():
    a = parse_poly("x", ("x",))
    b = parse_poly("x", ("x", "y"))
    with pytest.raises(ValueError):
        a + b
    assert a.with_variables(("x", "y")) + b == 2 * b


def test_collect_and_univariate():
    t = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", XYZ)
    groups = t.collect(("x", "y"))
    assert groups[(0, 0)] == parse_poly("Z^3/6", ("Z",))
    assert groups[(2, 0)] == parse_poly("-Z/2", ("Z",))
    assert parse_poly("Z^2 - 4", ("Z",)).univariate_coefficients("Z") == [
        Fraction(-4), Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        t.univariate_coefficients("Z")


def test_compose():
    t = parse_poly("x^2 + y", ("x", "y"))
    z = Poly.variable(("Z",), "Z")
    assert t.compose({"x": z, "y": Fraction(3)}, ("Z",)) == parse_poly(
        "Z^2 + 3", ("Z",))


def test_antiderivative_zero_constant():
    p = parse_poly("Z^2", ("Z",))
    anti = p.antiderivative("Z")
    assert anti == parse_poly("Z^3/3", ("Z",))
    assert anti.eval((0,)) == 0


# -- algebraic property tests ------------------------------------------------

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_polys = st.dictionaries(_exps, _coeffs, max_size=6).map(lambda d: Poly(XYZ, d))
_points = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=60, deadline=None)
@given(_polys, st.sampled_from(XYZ), st.sampled_from(XYZ))
def test_mixed_partials_commute(p, a, b):
    assert p.diff(a).diff(b) == p.diff(b).diff(a)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, st.sampled_from(XYZ))
def test_product_rule(p, q, var):
    assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _points)
def test_eval_additivity(p, q, point):
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_roundtrip_for_generated_polys(p):
    assert parse_poly(str(p), XYZ) == p
