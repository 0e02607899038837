"""The integer-numerator Poly against the Fraction reference, and against sympy.

``tests/reference_poly.py`` keeps the plain Fraction term-map Poly and
parser.  The same operation chains run on both; every result must have the
same term map in the same insertion order (code generated from
``Poly.terms`` sums terms in that order), the same printing, the same exact
values and bit-identical float values.  The sympy properties check the
algebra itself.
"""

from fractions import Fraction
from math import gcd

import pytest
import reference_poly as ref
from hypothesis import given, settings, strategies as st

from sgma import polyexpr as new

XYZ = ("x", "y", "Z")
WIDE = ("Z", "w", "x", "y")  # a superset of XYZ in another order
MAX_DEGREE = 12  # results above this degree are compared but not reused

_EXACT_POINTS = ((2, -1, 3, 1), (Fraction(1, 3), Fraction(-5, 2), 7, Fraction(2, 9)))
_FLOAT_POINTS = ((0.3, -1.7, 2.5, 1.1), (1e-3, 3.0, -0.6, 7.25))

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
        assert repr(a.eval(point[:n])) == repr(b.eval(point[:n]))


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
