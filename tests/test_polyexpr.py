"""Parser, arithmetic, calculus and round-trip behavior of the exact polynomials."""

import pickle
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgma.errors import DomainError
from sgma.polyexpr import MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERMS, ParseError, \
    Poly, PolyVector, exact_number, parse_poly

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
        # Limits met where both factors of * or the base of ^ are single terms.
        ("x^200*y^50*Z^7", 10, f"degree 257 exceeds the limit of {MAX_DEGREE}"),
        ("(x^2*y)^86", 8, "degree 258"),
        (f"{'9' * 700}*x*{'9' * 700}*y^2", 702, "4652 bits"),
        ("(10^200*x^2)^7", 13, "4655 bits"),
        ("(-x/10^200)^7", 12, "4655 bits"),
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


def test_vector_reads_its_point_as_poly_eval_does():
    # A short or a long point fails before a function is compiled for it,
    # so the vector's compiled functions serve the right length afterwards.
    p = parse_poly("2*x + 3*y", ("x", "y"))
    vector = PolyVector([p, (p, p)])
    for point in ([1.0], [1.0, 1.0, 7.0], [1, 1, 7], {"x": 1.0}, {"x": 1, "y": 1, "Z": 7}):
        with pytest.raises(ValueError) as want:
            p.eval(point)
        for read in (vector.eval, vector.numerators):
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                read(point)
    assert vector.eval([1.0, 1.0]) == (5.0, 5.0, 5.0)
    assert vector.eval({"y": 1, "x": 1}) == (5, 5, 5)
    assert vector.numerators([0.5, 1]) == ((8, 8, 8), 2)
    assert PolyVector().numerators([1.0, 2.0, 3.0]) == ((), 1)  # no variables to count


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_vector_numerators_of_a_non_finite_value_is_domain_error(value):
    vector = PolyVector([parse_poly("2*x + 3*y", ("x", "y"))])
    with pytest.raises(DomainError, match=r"^point is not finite: \((-?inf|nan), 0\.0\)$"):
        vector.numerators([value, 0.0])
    assert vector.numerators([0.25, 0.0]) == ((2,), 4)


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


def test_long_and_deep_input_needs_no_recursion():
    # A chain of unary minuses is read in a loop; parentheses nest up to a
    # fixed bound, far below the interpreter's recursion limit.
    assert parse_poly("x*" + "-" * 3000 + "x", XYZ) == parse_poly("x^2", XYZ)
    assert parse_poly("x*" + "-" * 3001 + "x", XYZ) == parse_poly("-x^2", XYZ)
    nested = "(" * MAX_NESTING + "x + 1" + ")" * MAX_NESTING
    assert parse_poly(nested, XYZ) == parse_poly("x + 1", XYZ)
    for depth in (MAX_NESTING + 1, 200, 5000):
        with pytest.raises(ParseError, match="nest deeper") as info:
            parse_poly("(" * depth + "x" + ")" * depth, XYZ)
        assert info.value.position == MAX_NESTING


def test_long_integer_literals_are_parse_errors():
    # The length test runs before int(): a literal of 4000 digits in a sum
    # and one past the interpreter's 4300-digit conversion limit both fail
    # at their own position.
    for text, position in [("9" * 4000 + " + x", 0), ("x + " + "9" * 4301, 4),
                           ("x^" + "9" * 5000, 2)]:
        with pytest.raises(ParseError, match=f"limit of {MAX_COEFF_BITS} bits") as info:
            parse_poly(text, XYZ)
        assert info.value.position == position
    largest = 2 ** MAX_COEFF_BITS - 1
    assert parse_poly(f"{largest} + x", XYZ).terms[(0, 0, 0)] == largest
    with pytest.raises(ParseError, match="bits") as info:
        parse_poly(f"x - {largest + 1}", XYZ)
    assert info.value.position == 4
    # Digits that int() cannot read are no integer token.
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("x^\u00b2", XYZ)


def test_unit_factors_add_no_coefficient_bits():
    # A factor whose coefficients are all +-1 over 1 multiplies none, so a
    # literal of MAX_COEFF_BITS bits may multiply variables; any other
    # factor still adds its bits.
    from sgma.ma_core import ChartKind, GeneratingFunction

    c = 10 ** 1233 - 1
    assert c.bit_length() == MAX_COEFF_BITS
    for text, exps, value in [(f"{c}*Z", (0, 0, 1), c), (f"Z*{c}", (0, 0, 1), c),
                              (f"{c}*x*y*Z", (1, 1, 1), c), (f"-x*{c}", (1, 0, 0), -c)]:
        assert parse_poly(text, XYZ).terms == {exps: value}
    with pytest.raises(ParseError, match="4098 bits") as info:
        parse_poly(f"{c}*3*x", XYZ)
    assert info.value.position == 1233
    gf = GeneratingFunction(ChartKind.DUAL_T, parse_poly(f"{c}*x*y*Z + y^2/2", XYZ),
                            Fraction(1))
    again = GeneratingFunction.from_dict(gf.to_dict())
    assert (again.potential, again.eps_q) == (gf.potential, gf.eps_q)


def _literal(sign, whole, frac, exp):
    text = sign + whole + ("." + frac if frac is not None else "")
    return text + (f"e{exp:+d}" if exp is not None else "")


_digits = st.text("0123456789", max_size=25)
# Fraction's grammar needs a digit, or a point and a digit, after the sign.
_decimals = st.builds(_literal, st.sampled_from(["", "+", "-"]), _digits,
                      st.none() | _digits, st.none() | st.integers(-300, 300)).filter(
    lambda text: re.match(r"[+-]?\.?\d", text))
_ratios = st.builds(lambda sign, a, b: f"{sign}{a}/{b}", st.sampled_from(["", "-"]),
                    st.integers(0, 10 ** 30), st.integers(1, 10 ** 30))


@settings(max_examples=300, deadline=None)
@given(_decimals | _ratios)
def test_exact_number_reads_text_as_fraction_does(text):
    assert exact_number(text) == Fraction(text)


def test_exact_number_types_and_limits():
    assert exact_number(3) == 3 and type(exact_number(3)) is Fraction
    big = Fraction(10) ** 5000  # library values carry no budget
    assert exact_number(big) is big
    assert exact_number(" -1_000.5E-3 ") == Fraction(-2001, 2000)
    assert exact_number("0e999999999") == 0
    # The budget holds for the value in lowest terms.
    assert exact_number("1" + "0" * 5000 + "e-5000") == 1
    assert exact_number(f"{2 ** MAX_COEFF_BITS - 1}/3") == Fraction(2 ** MAX_COEFF_BITS - 1, 3)
    assert exact_number("1e1233") == 10 ** 1233
    for value in (True, 0.1, 1.0, None, [1]):
        with pytest.raises(ValueError, match="is not a finite number: write it as"):
            exact_number(value)
    for text in ("1/0", "0/0", "nan", "inf", "1 / 2", "0x10", "", "1.d"):
        with pytest.raises(ValueError, match="is not a finite number"):
            exact_number(text)
    for text in ("1e999999999", "1e-999999999", "-1e4000000", "1e1234", "1e-1234",
                 str(2 ** MAX_COEFF_BITS), "1/" + "9" * 2000, "0." + "1" * 5000,
                 "1" * 5000 + "e-5000"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"limit of {MAX_COEFF_BITS} bits"):
            exact_number(text)
        assert time.perf_counter() - start < 0.1


def test_poly_reads_coefficients_through_exact_number():
    assert Poly.constant(XYZ, "1/3") == Poly.constant(XYZ, Fraction(1, 3))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bits"):
        Poly.constant(XYZ, "1e2000000")
    assert time.perf_counter() - start < 0.1
    x = Poly.variable(XYZ, "x")
    for bad in (lambda: Poly.constant(XYZ, True), lambda: Poly(XYZ, {(0, 0, 0): 0.5}),
                lambda: x + 0.5, lambda: x / 2.0):
        with pytest.raises(ValueError, match="not a finite number"):
            bad()


@pytest.mark.parametrize("value", [0, "0", "-0.000", 10 ** 300, -10 ** 1000, Fraction(-7, 3),
                                   "2/6", "1.5e3", "-12.25"])
def test_direct_constant_equals_the_general_constructor(value):
    c = Poly.constant(XYZ, value)
    ref = Poly(XYZ, {(0, 0, 0): value})
    assert c == ref and hash(c) == hash(ref)
    assert list(c.terms.items()) == list(ref.terms.items())
    assert c.constant_value() == exact_number(value)


def test_direct_zero_and_variable_equal_the_general_constructor():
    assert Poly.zero(XYZ) == Poly(XYZ, {}) and Poly.zero(XYZ).is_zero
    assert Poly.zero(iter(XYZ)).variables == XYZ
    for i, name in enumerate(XYZ):
        unit = tuple(int(j == i) for j in range(3))
        assert Poly.variable(XYZ, name) == Poly(XYZ, {unit: 1})
        assert list(Poly.variable(XYZ, name).terms.items()) == [(unit, 1)]


def test_direct_constructors_keep_their_messages_and_error_order():
    dup = ("x", "x")
    duplicate = re.escape("duplicate variable names in ('x', 'x')")
    for make in (lambda: Poly.zero(dup), lambda: Poly.constant(dup, 1),
                 lambda: Poly.variable(dup, "x")):
        with pytest.raises(ValueError, match=duplicate):
            make()
    unknown = re.escape("unknown variable 'w' (have ('x', 'x'))")
    with pytest.raises(ValueError, match=unknown):
        Poly.variable(dup, "w")  # the unknown name is reported before the duplicate
    not_finite = re.escape("value 0.5 is not a finite number: write it as an integer "
                           "or a string, not a float")
    for vs in (XYZ, dup):  # the value is read before the variables are checked
        with pytest.raises(ValueError, match=not_finite):
            Poly.constant(vs, 0.5)


def test_sum_adds_in_one_map_with_the_chained_term_order():
    p, q, r = (parse_poly(t, XYZ) for t in ("x + y/2 + 1", "Z^2/3 - y/2", "x^2 - 1/6"))
    total = Poly.sum([p, q, r], XYZ)
    chained = Poly.zero(XYZ) + p + q + r
    assert total == chained
    assert list(total.terms.items()) == list(chained.terms.items())
    assert Poly.sum([], XYZ) == Poly.zero(XYZ)
    assert Poly.sum(iter([p]), list(XYZ)) == p
    cancelled = Poly.sum([p, -p, q], XYZ)
    assert cancelled == q and list(cancelled.terms) == list(q.terms)
    assert Poly.sum([p, -p], XYZ).is_zero
    with pytest.raises(ValueError, match="variable mismatch"):
        Poly.sum([p, parse_poly("x", ("x", "y"))], XYZ)
    with pytest.raises(ValueError, match="duplicate"):
        Poly.sum([], ("x", "x"))


def test_variable_mismatch_requires_explicit_renaming():
    a = parse_poly("x", ("x",))
    b = parse_poly("x", ("x", "y"))
    with pytest.raises(ValueError):
        a + b
    assert a.with_variables(("x", "y")) + b == 2 * b


def test_renaming_keeps_every_used_variable():
    with pytest.raises(ValueError, match=r"^variables \['y'\] absent from target \('x',\)$"):
        parse_poly("x*y", ("x", "y")).with_variables(("x",))


def test_poly_constructor_checks_exponent_vectors():
    with pytest.raises(ValueError, match=r"^exponent vector \(1,\) has length 1, expected 2$"):
        Poly(("x", "y"), {(1,): 1})
    for exps in ((-1,), (1.0,)):
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            Poly(("x",), {exps: 1})


def test_equality_with_exact_numbers_only():
    # A constant Poly equals the int or Fraction it holds; a float or any
    # other object is not an exact number, and compares unequal.
    assert parse_poly("3", ("x",)) == 3
    assert parse_poly("1/2", ("x",)) == Fraction(1, 2)
    assert parse_poly("x", ("x",)) != 3
    assert parse_poly("3", ("x",)) != 3.0
    assert parse_poly("x", ("x",)) != "x"


def test_power_and_division_restrictions():
    x = parse_poly("x + 1", ("x",))
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError, match="polynomial power must be a non-negative integer"):
            x ** exponent
    assert x.constant_value() is None and parse_poly("2*x", ("x",)).constant_value() is None
    with pytest.raises(ValueError, match="division is only defined by a nonzero constant"):
        x / x
    for zero in (0, Poly.zero(("x",))):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            x / zero
    assert x / parse_poly("2", ("x",)) == parse_poly("x/2 + 1/2", ("x",))


def test_repr_names_variables_and_text():
    assert repr(parse_poly("x + 1", ("x",))) == "Poly(('x',), x + 1)"


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


def test_compose_lifts_only_the_scalars_it_uses(constant_calls):
    t = parse_poly("x^2 + 3*y", ("x", "y", "a", "b"))
    z = Poly.variable(("Z",), "Z")
    got = t.compose({"x": 2, "y": z, "a": 0, "b": Fraction(1, 2)}, ("Z",))
    assert got == parse_poly("3*Z + 4", ("Z",))
    assert constant_calls == [2]


@pytest.mark.parametrize("value, message", [
    (None, "no substitution given for variable 'b'"),
    (Poly.variable(("x",), "x"), "substitution for 'b' is over"),
    (0.5, "not a finite number"),
    ("1/0", "not a finite number"),
])
def test_compose_checks_the_entries_of_unused_variables(value, message):
    t = parse_poly("a^2", ("a", "b"))
    mapping = {"a": 1} if value is None else {"a": 1, "b": value}
    with pytest.raises(ValueError, match=message):
        t.compose(mapping, ("Z",))


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
