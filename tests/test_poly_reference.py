"""The integer-numerator Poly against the Fraction reference, and against sympy.

``tests/reference_poly.py`` keeps the plain Fraction term-map Poly and
parser, and the recursive Horner evaluation that the compiled evaluators
of ``sgma.polyexpr`` must reproduce.  The same operation chains run on
both; every result must have the same term map in the same insertion order
(code generated from ``Poly.terms`` sums terms in that order), the same
printing, the same exact values and bit-identical float values, at float
points, numpy-array points and points where evaluation overflows.  The
sympy properties check the algebra itself.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
import reference_poly as ref
from hypothesis import given, settings, strategies as st

from sgma import codegen, family as fam, ma_core as mc, polyexpr as new, singular as sing
from sgma.errors import DomainError

XYZ = ("x", "y", "Z")
WIDE = ("Z", "w", "x", "y")  # a superset of XYZ in another order
MAX_DEGREE = 12  # results above this degree are compared but not reused

_EXACT_POINTS = ((2, -1, 3, 1), (Fraction(1, 3), Fraction(-5, 2), 7, Fraction(2, 9)))
_FLOAT_POINTS = (
    (0.3, -1.7, 2.5, 1.1), (1e-3, 3.0, -0.6, 7.25),
    (1e200, -3e150, 2e120, 1e300),  # powers overflow: DomainError on both sides
    tuple(np.array(v) for v in ((0.3, 1e-3, -40.0), (-1.7, 3.0, 2e100),
                                (2.5, -0.6, 1e3), (1.1, 7.25, 0.0))),
)

_coeffs = st.one_of(
    st.fractions(min_value=-7, max_value=7, max_denominator=6),
    # beyond 2**53: float values then depend on correct rounding of n / den
    st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 20),
)
_term_maps = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _coeffs, max_size=5)
_OPS = ("add", "sub", "scalar", "mul", "pow", "div", "neg", "diff", "antiderivative",
        "compose", "with_variables", "collect", "parse")
_steps = st.lists(st.tuples(st.sampled_from(_OPS), *[st.integers(0, 99)] * 3),
                  min_size=1, max_size=8)


def _assert_same(a, b):
    """``a`` from sgma.polyexpr, ``b`` its reference twin."""
    assert a.variables == b.variables
    assert list(a.terms.items()) == list(b.terms.items())
    assert str(a) == str(b)
    assert a._den > 0 and gcd(a._den, *a._terms.values()) == (1 if a._terms else a._den)
    assert a._den == 1 or a._terms
    assert len(a._terms) == len(a.terms)
    twin = new.Poly(a.variables, a.terms)
    assert twin == a and hash(twin) == hash(a)
    n = len(a.variables)
    for point in _EXACT_POINTS:
        value = a.eval(point[:n])
        assert type(value) is Fraction and value == b.eval(point[:n])
    for point in _FLOAT_POINTS:
        assert _float_outcome(a, point[:n]) == _float_outcome(b, point[:n], OverflowError)


def _float_outcome(p, point, *errors):
    """repr of a float evaluation (numpy arrays as lists), or "DomainError".

    The reference converts its coefficients to floats outside the handler
    that maps OverflowError to DomainError, so for it ``errors`` adds
    OverflowError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = p.eval(point)
    except (DomainError, *errors):
        return "DomainError"
    return repr(np.asarray(value).tolist())


def _apply(mod, pool, op, i, j, k):
    """One step on one implementation: (results to compare, result to reuse)."""
    p, q, r = (pool[m % len(pool)] for m in (i, j, k))
    var = XYZ[k % 3]
    scalar = Fraction(k - 49, j % 5 + 1)
    deg = (p.degree() or 0, q.degree() or 0, r.degree() or 0)
    if op == "add":
        out = p + q
    elif op == "sub":
        out = p - q if k % 2 else scalar - p
    elif op == "scalar":
        out = scalar * p if k % 2 else p + scalar
    elif op == "mul":
        if deg[0] + deg[1] > MAX_DEGREE:
            return [], None
        out = p * q
    elif op == "pow":
        if deg[0] * (k % 4) > MAX_DEGREE:
            return [], None
        out = p ** (k % 4)
    elif op == "div":
        divisor = scalar or Fraction(1, 3)
        out = p / divisor if j % 2 else p / mod.Poly.constant(XYZ, divisor)
    elif op == "neg":
        out = -p
    elif op == "diff":
        out = p.diff(var)
    elif op == "antiderivative":
        out = p.antiderivative(var)
    elif op == "compose":
        if deg[0] * max(deg[1], deg[2], 1) > MAX_DEGREE:
            return [], None
        out = p.compose({"x": q, "y": r, "Z": scalar}, XYZ)
    elif op == "with_variables":
        wide = p.with_variables(WIDE)
        return [wide], wide.with_variables(XYZ)
    elif op == "collect":
        groups = p.collect((var, "x") if var != "x" else ("x",))
        shown = [mod.Poly.constant(("k",), len(groups))]
        shown += [mod.Poly(("k",), {(len(key),): sum(key)}) for key in groups]
        shown += list(groups.values())
        return shown, next(iter(groups.values())).with_variables(XYZ) if groups else None
    else:
        out = mod.parse_poly(str(p), XYZ)
    return [out], out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_term_maps, min_size=2, max_size=4), _steps)
def test_operation_chains_match_reference(maps, steps):
    pools = [[mod.Poly(XYZ, m) for m in maps] for mod in (new, ref)]
    for a, b in zip(*pools):
        _assert_same(a, b)
    for step in steps:
        (shown_new, keep_new), (shown_ref, keep_ref) = (
            _apply(mod, pool, *step) for mod, pool in zip((new, ref), pools))
        assert len(shown_new) == len(shown_ref)
        for a, b in zip(shown_new, shown_ref):
            _assert_same(a, b)
        if keep_new is not None and (keep_new.degree() or 0) <= MAX_DEGREE:
            _assert_same(keep_new, keep_ref)
            pools[0].append(keep_new)
            pools[1].append(keep_ref)
    # Equality, and so the lru_cache keys, agree with the reference.
    for x, xr in zip(*pools):
        for y, yr in zip(*pools):
            assert (x == y) == (xr == yr)
            if x == y:
                assert hash(x) == hash(y)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda s: f"-{s}"),
    )


_texts = st.one_of(
    st.recursive(st.one_of(st.integers(0, 30).map(str), st.sampled_from(XYZ)),
                 _extend, max_leaves=8),
    st.text(alphabet="xyZ0123+-*/^() ", max_size=12),
)


def _parsed(mod, text):
    try:
        return mod.parse_poly(text, XYZ)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_texts)
def test_parse_matches_reference(text):
    got, want = _parsed(new, text), _parsed(ref, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


# Characters on which the Unicode classes of the tokenizer's regex and the
# str predicates could part: a letter, an Arabic-Indic 3 (a decimal digit),
# "²" (a digit int() cannot read), "½" (numeric, no digit), an em space and
# a vertical tab.  Texts of nine characters stay inside the bit budget,
# which the reference does not have; ten can leave it ("333333^233").
_UNICODE_TEXTS = st.text(alphabet=[*"xyZ0123+-*/^() _", "\u00e9", "\u0663", "\u00b2", "\u00bd",
                                   "\u2003", "\x0b"], max_size=9)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_UNICODE_TEXTS)
def test_unicode_texts_match_reference(text):
    got, want = _parsed(new, text), _parsed(ref, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


def _spec_texts(spec):
    # The "(a)*Z + (b)" text of each affine cubic entry, as family-spec files write it.
    for entry in spec.t3.values():
        b, a = entry.univariate_coefficients("Z")
        yield f"({a})*Z + ({b})"


@pytest.mark.parametrize("seed", range(20))
def test_member_and_spec_texts_match_reference(seed):
    # The texts parse_poly reads most: a member's printed potential, a
    # sum of ~50 monomials, and the specs' short parenthesised entries.
    spec = fam.random_generic_spec(random.Random(seed))
    cases = [(str(fam.build_family(spec).gf.potential), XYZ)]
    cases += [(text, ("Z",)) for text in _spec_texts(spec)]
    for text, variables in cases:
        got, want = new.parse_poly(text, variables), ref.parse_poly(text, variables)
        _assert_same(got, want)
        assert got._den == lcm(*(c.denominator for c in want.terms.values()))


@pytest.mark.parametrize("text", [
    "6/-4*x", "2/(-4)*x", "1/2/3*x*y*Z", "x/0", "5/0*x", "x/y", "x^257", "x^200*y^57",
    "2^4097", "3*2^4095", "x*" + "9" * 1233, "0*x^300", "0^0*x", "x^2^2", "x*-y", "x y",
    "x^-1", "x^y", "(-1/3)*x", "-(-1/3)^3*y/(2/(-5))", "(x - x + y)*Z", "(x + y)^0/(x - x + 2)",
    "--x*--3/--4", "0*x^200*y^57", "(0)^0*x", "2/(x - x)", "x*(y + Z)*2/3", "(2*x/3)^4*(3/2)",
])
def test_edge_and_error_texts_match_reference(text):
    got, want = _parsed(new, text), _parsed(ref, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


# Products and powers of single terms, which the parser multiplies directly:
# large coefficients, high exponents (some past MAX_DEGREE, whose errors must
# match too) and negations, with coefficient bits kept inside the budget.
@st.composite
def _single_term_texts(draw):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        parts = [v if e == 1 else f"{v}^{e}"
                 for v, e in zip(XYZ, draw(st.lists(st.integers(0, 60), min_size=3, max_size=3)))
                 if e]
        if draw(st.booleans()):
            num, den = draw(st.integers(0, 10 ** 30)), draw(st.integers(1, 10 ** 6))
            parts.insert(0, f"{num}/{den}" if den > 1 else str(num))
        text = "*".join(draw(st.sampled_from(["", "-", "--"])) + part
                        for part in parts or ["1"])
        if draw(st.booleans()):
            text = f"{draw(st.sampled_from(['', '-']))}({text})^{draw(st.integers(0, 5))}"
        factors.append(text)
    return "*".join(factors)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_single_term_texts())
def test_single_term_products_and_powers_match_reference(text):
    got, want = _parsed(new, text), _parsed(ref, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same(got, want)


def test_products_with_a_zero_factor_are_zero():
    # A zero factor times a factor of several terms multiplies no terms.
    for text in ["0*(x+y)", "(x+y)*0", "(x-x)*(y+1)^2", "(x+y)*(Z-Z)*3"]:
        got = new.parse_poly(text, XYZ)
        _assert_same(got, ref.parse_poly(text, XYZ))
        assert got.is_zero


def test_cancelled_terms_reenter_at_the_end():
    # A term that cancels leaves the map; when it comes back it is appended.
    for text in ["x - x + y + x", "Z^2 + x - Z^2 + y + Z^2/2", "(x + 1)*(x - 1) - x^2 + y + x^2"]:
        got, want = new.parse_poly(text, XYZ), ref.parse_poly(text, XYZ)
        _assert_same(got, want)
    assert list(new.parse_poly("x - x + y + x", XYZ).terms) == [(0, 1, 0), (1, 0, 0)]
    composed = [p.compose({"x": q, "y": -q, "Z": r}, XYZ)
                for p, q, r in ([mod.parse_poly(t, XYZ) for t in ("x + y + Z", "Z^2 + x", "x + Z^2")]
                                for mod in (new, ref))]
    _assert_same(*composed)
    assert list(composed[0].terms) == [(1, 0, 0), (0, 0, 2)]


# -- sympy oracle ----------------------------------------------------------------

_polys = _term_maps.map(lambda m: new.Poly(XYZ, m))


def _sympy(sp, p):
    symbols = sp.symbols("x y Z")
    terms = {e: sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sp.Poly.from_dict(terms or {(0, 0, 0): 0}, *symbols, domain="QQ")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_polys, _polys, _polys, st.integers(0, 3))
def test_ring_laws_and_eval_against_sympy(p, q, r, k):
    sp = pytest.importorskip("sympy")
    P, Q, R = (_sympy(sp, a) for a in (p, q, r))
    assert _sympy(sp, p + q) == P + Q
    assert _sympy(sp, p - q) == P - Q
    assert _sympy(sp, -p) == -P
    assert _sympy(sp, p * q) == P * Q
    assert _sympy(sp, p ** k) == P ** k
    assert _sympy(sp, p * (q + r)) == P * Q + P * R
    assert (p * q) * r == p * (q * r) and p * q == q * p and p + q == q + p
    point = (Fraction(-3, 2), Fraction(2, 7), 5)
    want = P.eval(tuple(sp.Rational(v.numerator, v.denominator) for v in map(Fraction, point)))
    assert p.eval(point) == Fraction(int(want.p), int(want.q))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polys, st.sampled_from(XYZ))
def test_diff_against_sympy(p, var):
    sp = pytest.importorskip("sympy")
    symbol = sp.Symbol(var)
    assert _sympy(sp, p.diff(var)) == _sympy(sp, p).diff(symbol)
    assert _sympy(sp, p.antiderivative(var)).diff(symbol) == _sympy(sp, p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_polys, _polys, _polys, _coeffs)
def test_compose_against_sympy(p, q, r, c):
    sp = pytest.importorskip("sympy")
    x, y, z = sp.symbols("x y Z")
    got = p.compose({"x": q, "y": r, "Z": c}, XYZ)
    subs = {x: _sympy(sp, q).as_expr(), y: _sympy(sp, r).as_expr(),
            z: sp.Rational(c.numerator, c.denominator)}
    want = sp.Poly(_sympy(sp, p).as_expr().subs(subs, simultaneous=True), x, y, z,
                   domain="QQ")
    assert _sympy(sp, got) == want


# -- the compiled evaluators against the recursive reference ---------------------

_wide_coeffs = st.one_of(
    _coeffs,
    # beyond the float range, and below its smallest subnormal
    st.integers(-10 ** 400, 10 ** 400).filter(bool).map(Fraction),
    st.integers(1, 10 ** 6).map(lambda n: Fraction(n, 10 ** 330)),
)
_float_values = st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-3, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(*[st.integers(0, 6)] * 3), _wide_coeffs, max_size=8),
       st.lists(st.tuples(*[_float_values] * 3), min_size=1, max_size=4),
       st.tuples(*[st.fractions(max_denominator=50)] * 3))
def test_compiled_evaluation_matches_reference(terms, points, exact):
    a, b = new.Poly(XYZ, terms), ref.Poly(XYZ, terms)
    arrays = tuple(np.array(column, dtype=float) for column in zip(*points))
    for point in [*points, arrays]:
        assert _float_outcome(a, point) == _float_outcome(b, point, OverflowError)
    value = a.eval(exact)
    assert type(value) is Fraction and value == b.eval(exact)


def _builder_vectors(gf):
    free = next(v for v in gf.chart.coords if v not in ("x", "y", "z"))
    return [mc.hessian_polys(gf), mc.immersion_polys(gf), mc.immersion_jacobian_polys(gf),
            mc.pullback_metric_polys(gf), sing.locus_coefficient_polys(gf, free),
            sing.fiber_equation_polys(gf)]


def test_builder_vectors_match_reference(fold_gf):
    rng = random.Random(5)
    gfs = [fold_gf] + [fam.build_family(fam.random_generic_spec(rng)).gf for _ in range(3)]
    points = [tuple(rng.uniform(-3.0, 3.0) for _ in range(3)) for _ in range(20)]
    points += [(1e120, 0.5, -2.0), (1e200, 0.0, 1e200)]  # overflowing powers
    arrays = tuple(np.array(column) for column in zip(*points[:20]))
    exact = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
             for _ in range(3)]
    overflows = 0
    for gf in gfs:
        for vector in _builder_vectors(gf):
            entries = [p for item in vector
                       for p in (item if isinstance(item, tuple) else (item,))]
            twins = [ref.Poly(p.variables, p.terms) for p in entries]
            n = len(entries[0].variables) if entries else 3
            for point in [*points, arrays]:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = [repr(np.asarray(v).tolist()) for v in vector.eval(point[:n])]
                except DomainError:
                    got = "DomainError"
                want = [_float_outcome(t, point[:n]) for t in twins]
                # The vector overflows exactly where one of its entries does.
                assert got == ("DomainError" if "DomainError" in want else want)
                overflows += got == "DomainError"
            for point in exact:
                values = vector.eval(point[:n])
                assert all(type(v) is Fraction for v in values)
                assert list(values) == [t.eval(point[:n]) for t in twins]
    assert overflows


def test_vectors_of_one_shape_share_code_and_keep_their_values():
    # Two members of the README spec's sparsity, which leaves gaps in the
    # powers of Z: their metric vectors differ only in the coefficients.
    def member(slope, intercept):
        return fam.build_family(fam.FamilySpec.from_dict({
            "t3": {"111": f"{slope}*Z", "112": "0", "122": "1/2", "222": f"-Z + {intercept}"},
            "t2_constants": {"11": ["-1", "0"], "12": ["0", "0"], "22": ["0", "1"]}})).gf

    vectors = [mc.pullback_metric_polys(member(1, 1)), mc.pullback_metric_polys(member(3, "2/5"))]
    assert vectors[0] != vectors[1]
    rng = random.Random(11)
    points = [tuple(rng.uniform(-3.0, 3.0) for _ in range(3)) for _ in range(200)]
    exact = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
             for _ in range(5)]
    for vector in vectors:
        twins = [ref.Poly(p.variables, p.terms) for p in vector._entries()]
        for point in points:
            assert [repr(v) for v in vector.eval(point)] == [_float_outcome(t, point)
                                                             for t in twins]
        overflowing = (0.5, 0.5, 1e200)  # a power of Z overflows
        assert "DomainError" in [_float_outcome(t, overflowing, OverflowError) for t in twins]
        with pytest.raises(DomainError, match="overflows"):
            vector.eval(overflowing)
        for point in exact:
            values = vector.eval(point)
            assert all(type(v) is Fraction for v in values)
            assert [repr(v) for v in values] == [repr(t.eval(point)) for t in twins]
    a, b = vectors
    for name in ("_float_fn", "_exact_fn"):
        fa, fb = getattr(a, name), getattr(b, name)
        assert fa is not fb and fa.__code__ is fb.__code__
        assert fa.__defaults__ != fb.__defaults__


def test_code_map_stays_at_its_bound():
    bound = codegen._code.cache_info().maxsize
    shapes = [(i, j) for i in range(18) for j in range(18)]
    assert len(shapes) > bound
    for exps in shapes:
        terms = {exps: Fraction(3, 7)}
        p, twin = new.Poly(("x", "y"), terms), ref.Poly(("x", "y"), terms)
        assert repr(p.eval((1.5, -0.75))) == repr(twin.eval((1.5, -0.75)))
    info = codegen._code.cache_info()
    assert info.currsize == info.maxsize == bound
