"""Exact isolation, refinement, and multiplicity recovery for univariate roots."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from reference_realroots import _isolate_square_free as reference_isolate, \
    _refine as reference_refine, _wider_than_tol as reference_wider_than_tol, \
    real_roots as reference_real_roots, square_free_decomposition, \
    sturm_chain as reference_sturm_chain

from sgma import realroots
from sgma.errors import DomainError
from sgma.realroots import REFINE_TOL, _isolate_square_free, _refine, _Sign, real_roots, \
    sturm_chain


def _coeffs(*values):
    return [Fraction(v) for v in values]


def test_simple_quadratic():
    roots = real_roots(_coeffs(-4, 0, 1))  # Z^2 - 4
    assert [r.multiplicity for r in roots] == [1, 1]
    assert abs(roots[0].value + 2) < 1e-12 and abs(roots[1].value - 2) < 1e-12


def test_double_root_at_origin():
    roots = real_roots(_coeffs(0, 0, 1))  # Z^2
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert roots[0].value == 0.0


def test_mixed_multiplicities():
    # (Z - 1)^2 (Z + 3) = Z^3 + Z^2 - 5 Z + 3
    roots = real_roots(_coeffs(3, -5, 1, 1))
    assert [(round(r.value, 10), r.multiplicity) for r in roots] == [(-3.0, 1), (1.0, 2)]


def test_no_real_roots():
    assert real_roots(_coeffs(2, 0, 1)) == []


def test_irrational_roots_polished():
    roots = real_roots(_coeffs(-2, 0, 1))
    assert abs(roots[1].value - 2 ** 0.5) < 1e-14


def test_close_roots_separated():
    # (Z - 1)(Z - 1001/1000)
    roots = real_roots([Fraction(1001, 1000), Fraction(-2001, 1000), Fraction(1)])
    assert len(roots) == 2
    assert abs(roots[0].value - 1.0) < 1e-12
    assert abs(roots[1].value - 1.001) < 1e-12


def test_constant_and_zero():
    assert real_roots(_coeffs(5)) == []
    with pytest.raises(ValueError):
        real_roots([])


@pytest.mark.parametrize("coeffs", [
    _coeffs(-10 ** 400, 1),  # root 1e400
    _coeffs(-10 ** 700, 0, 1),  # roots +-1e350
    _coeffs(0, -10 ** 700, 0, 1),  # also an exact root 0, found before the overflow
])
def test_roots_beyond_the_float_range_raise_domain_error(coeffs):
    with pytest.raises(DomainError, match="float range"):
        real_roots(coeffs)


@pytest.mark.parametrize("coeffs, want", [
    (_coeffs(-10 ** 400, 0, 1), [-1e200, 1e200]),
    (_coeffs(0, -10 ** 400, 0, 1), [-1e200, 0.0, 1e200]),
])
def test_float_roots_of_a_cauchy_bound_beyond_the_float_range(coeffs, want):
    # The isolating intervals start from (-1e400, 1e400]: the width test runs
    # exactly until it fits a float, and x^2 - 10^400 has no float Newton step.
    roots = real_roots(coeffs)
    assert [r.multiplicity for r in roots] == [1] * len(want)
    for r, w in zip(roots, want):
        assert abs(r.value - w) <= REFINE_TOL * max(1.0, abs(w))


def test_multiplicities_from_the_square_free_decomposition():
    # Z^2 (Z + 1)^3 = Z^5 + 3Z^4 + 3Z^3 + Z^2: multiplicity labels come back right
    roots = real_roots(_coeffs(0, 0, 1, 3, 3, 1))
    assert [(r.value, r.multiplicity) for r in roots] == [(-1.0, 3), (0.0, 2)]


def test_all_rational_roots_recovered():
    # Exact rational roots hit by bisection midpoints are divided out
    # mid-isolation; every root must still come back exactly once (this
    # caught a stale-interval bug in the restart logic).
    roots = real_roots(_coeffs(6, -11, 6, -1))  # -(Z-1)(Z-2)(Z-3)
    assert [(r.value, r.multiplicity) for r in roots] == [(1.0, 1), (2.0, 1), (3.0, 1)]


def test_randomized_products_of_known_roots():
    import random

    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 5)
        wanted = sorted(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(n))
        coeffs = [Fraction(rng.choice([-3, -1, 1, 2]))]
        for r in wanted:
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                nxt[i + 1] += a
                nxt[i] += -r * a
            coeffs = nxt
        found = []
        for info in real_roots(coeffs):
            found.extend([info.value] * info.multiplicity)
        assert len(found) == n
        for want, have in zip(sorted(float(r) for r in wanted), found):
            assert abs(want - have) < 1e-9


# -- exact signs, refinement paths and equivalence with the reference -------


def _exact_sign(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _strip_zeros(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _times_linear(coeffs, r):
    # coeffs * (Z - r)
    return [-r * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]


def _ints(coeffs):
    # Integer coefficients with the same signs: coeffs times their common denominator.
    den = math.lcm(*(Fraction(v).denominator for v in coeffs))
    return [int(v * den) for v in coeffs]


def _refine_fractions(sign, a, b):
    # _refine on (a, b] for Fraction ends, over their common denominator;
    # the root it returns as a Fraction.
    q = math.lcm(a.denominator, b.denominator)
    return Fraction(*_refine(sign, a.numerator * (q // a.denominator),
                             b.numerator * (q // b.denominator), q))


class _Spy(_Sign):
    """Sign oracle that records every point it is asked about."""

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.points = []

    def __call__(self, p, q):
        self.points.append(Fraction(p, q))
        return super().__call__(p, q)


def test_refine_root_at_right_endpoint():
    spy = _Spy([-1, 1])  # Z - 1 on (0, 1]
    assert _refine_fractions(spy, Fraction(0), Fraction(1)) == 1
    assert spy.points == [1]


def test_refine_nudges_a_root_at_the_left_endpoint():
    spy = _Spy([0, -1, 0, 2])  # 2 Z (Z^2 - 1/2) on (0, 1]
    root = _refine_fractions(spy, Fraction(0), Fraction(1))
    assert spy.points[:3] == [1, 0, Fraction(1, 2)]
    assert abs(float(root) - math.sqrt(0.5)) < 1e-13


def test_refine_nudged_endpoint_can_be_the_root():
    spy = _Spy([0, -1, 2])  # 2 Z (Z - 1/2) on (0, 1]
    assert _refine_fractions(spy, Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert spy.points == [1, 0, Fraction(1, 2)]


def test_refine_stops_at_an_exact_midpoint_root():
    spy = _Spy([-3, 8])  # 8 (Z - 3/8) on (0, 1]
    assert _refine_fractions(spy, Fraction(0), Fraction(1)) == Fraction(3, 8)
    assert spy.points == [1, 0, Fraction(3, 8)]


def test_refine_on_an_interval_already_narrower_than_the_stop_test():
    # (m - 1, m + 1]/2^60 around sqrt(2) passes the stop test at once, so
    # _jump returns before estimating and the bisection gives the midpoint.
    m = math.isqrt(2 * 2 ** 120)
    a, b = Fraction(m - 1, 2 ** 60), Fraction(m + 1, 2 ** 60)
    want = reference_refine(_coeffs(-2, 0, 1), a, b, REFINE_TOL)
    assert want == Fraction(101904826760412361, 2 ** 56)
    assert _refine_fractions(_Sign([-2, 0, 1]), a, b) == want


def test_isolation_restarts_at_exact_rational_midpoints():
    # Z^3 - 6 Z^2 + 11 Z - 6: bound 12 bisects onto 3, then bound 4 onto 2.
    poly = [-6, 11, -6, 1]
    exact, intervals, reduced = _isolate_square_free(poly, sturm_chain(poly))
    assert [Fraction(p, q) for p, q in exact] == [3, 2]
    assert [(Fraction(a, q), Fraction(b, q)) for a, b, q in intervals] == [(-2, 2)]
    assert reduced == [-1, 1]


# Chart-sized floats; magnitudes below 1e-9 are left to the fixed subnormal
# cases, as their 1074-bit denominators make the reference take seconds.
_FLOATS = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e6),
                    st.floats(min_value=-1e6, max_value=-1e-9))
# Coefficients as the fiber code builds them: exact combinations of
# Fraction(float) chart values, so denominators are large powers of two.
_COEFF = st.one_of(
    st.just(0.0).map(Fraction),
    _FLOATS.map(Fraction),
    st.tuples(_FLOATS, _FLOATS, st.integers(1, 6)).map(
        lambda t: Fraction(t[0]) * Fraction(t[1]) / t[2]),
)


@st.composite
def _polys(draw):
    coeffs = draw(st.lists(_COEFF, min_size=1, max_size=9))
    # Half the draws get a repeated Fraction(float) root: tangencies.
    if draw(st.booleans()):
        r = Fraction(draw(_FLOATS))
        for _ in range(draw(st.integers(1, 2))):
            coeffs = _times_linear(coeffs, r)
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return coeffs


def _outcome(fn, coeffs):
    try:
        return repr(fn(coeffs))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_polys())
def test_real_roots_bit_identical_to_reference(coeffs):
    want = _outcome(reference_real_roots, coeffs)
    assert _outcome(real_roots, coeffs) == want
    # The same polynomial times a positive integer, given as ints.
    assert _outcome(real_roots, _ints(coeffs)) == want


def _reference_intervals(coeffs):
    # (square-free reduced factor, isolating interval) triples, as the
    # reference refines them.
    for factor, _ in square_free_decomposition(_strip_zeros(coeffs)):
        _, intervals, reduced = reference_isolate(factor)
        for a, b in intervals:
            yield reduced, a, b


def _final_cell_width(a, b, root):
    # Width of the cell where the reference bisection of (a, b] stops around root.
    w = b - a
    while True:
        left = a + (root - a) // w * w
        if not reference_wider_than_tol(left, left + w, REFINE_TOL):
            return w
        w /= 2


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_polys(), st.sampled_from([0, -1, 1]), st.sampled_from([0, -1, 1]))
def test_refine_matches_reference_bisection(coeffs, cells_off, levels_off):
    # cells_off != 0 swaps the float estimate for the midpoint of a cell
    # beside the bisection's final one, which the jump must not certify;
    # levels_off != 0 makes it start one level off the right one.
    level = realroots._level
    for reduced, a, b in _reference_intervals(coeffs):
        want = reference_refine(reduced, a, b, REFINE_TOL)
        with pytest.MonkeyPatch.context() as mp:
            if cells_off:
                x = float(want + cells_off * _final_cell_width(a, b, want))
                mp.setattr(realroots, "_estimate", lambda *args: x)
            mp.setattr(realroots, "_level", lambda *args: level(*args) + levels_off)
            assert _refine_fractions(_Sign(_ints(reduced)), a, b) == want


_NO_FLOAT_VIEW = [Fraction(-3 * 2 ** 2200), 0, 0, 0, Fraction(1)]  # root 3^(1/4) 2^550


@pytest.mark.parametrize("coeffs, a, b, cells_off, probes", [
    # Probes: the two end checks, then the jump's cell ends, then one per
    # halving of a fallback bisection.
    # The leading coefficient scales to 0.0 in the float view: no estimate.
    (_NO_FLOAT_VIEW, Fraction(2 ** 550), Fraction(2 ** 551), 0, 2 + 43),
    # (0, 10^400] leaves the float range: no estimate either.
    (_coeffs(-10 ** 400, 0, 1), Fraction(0), Fraction(10 ** 400), 0, 2 + 708),
    # A dyadic root is the predicted cell's left end, or, from an estimate
    # half a cell lower, its right end: bisection meets it as a midpoint.
    (_coeffs(-3, 8), Fraction(0), Fraction(1), 0, 2 + 1),
    (_coeffs(-3, 8), Fraction(0), Fraction(1), Fraction(-1, 2), 2 + 2),
    # An estimate one cell off fails the certificate and falls back; one to
    # the right is refuted by the cell's left end alone.
    (_coeffs(-2, 0, 1), Fraction(1), Fraction(2), 1, 2 + 1 + 43),
    (_coeffs(-2, 0, 1), Fraction(1), Fraction(2), -1, 2 + 2 + 43),
])
def test_refine_fallback_paths_match_reference_bisection(monkeypatch, coeffs, a, b, cells_off,
                                                          probes):
    want = reference_refine(coeffs, a, b, REFINE_TOL)
    if cells_off:
        x = float(want + cells_off * _final_cell_width(a, b, want))
        monkeypatch.setattr(realroots, "_estimate", lambda *args: x)
    spy = _Spy(_ints(coeffs))
    assert (spy._floats is None) == (coeffs is _NO_FLOAT_VIEW)
    assert _refine_fractions(spy, a, b) == want
    assert len(spy.points) == probes


def test_refine_clamps_an_estimate_at_the_right_end(monkeypatch):
    # An estimate equal to b lies on the edge of the last cell, which holds
    # the root: sqrt(2) is within 2^-44 of b, less than the final width.
    b = Fraction(math.ceil(math.sqrt(2) * 2 ** 44), 2 ** 44)
    monkeypatch.setattr(realroots, "_estimate", lambda *args: float(b))
    spy = _Spy([-2, 0, 1])
    want = reference_refine(_coeffs(-2, 0, 1), Fraction(1), b, REFINE_TOL)
    assert _refine_fractions(spy, Fraction(1), b) == want
    assert len(spy.points) == 2 + 2


# The fiber polynomial of the sections benchmark's base family member
# (perfbench/workloads.py) over x = 1/2, y = -1/4.  With a height z taken
# from its constant term it has three real roots at each z used below.
_MEMBER_FIBER = [Fraction(-1889, 384), Fraction(-6065, 2304), Fraction(4237, 1152),
                 Fraction(9541, 5184), Fraction(-17827, 3456), Fraction(-87263, 17280),
                 Fraction(72895, 20736), Fraction(-294053, 72576), Fraction(-6455, 4608),
                 Fraction(4775, 5184)]


@pytest.mark.parametrize("coeffs", [
    # Fold fibers Z^2/2 - c, c = x^2/2 - z, at rational and at float nodes.
    _coeffs(Fraction(-3, 10), 0, Fraction(1, 2)),
    _coeffs(-Fraction(1.7) ** 2 / 2 + Fraction(-0.4), 0, Fraction(1, 2)),
    _coeffs(-10 ** 6, 0, Fraction(1, 2)),
    _coeffs(-Fraction(1, 10 ** 9), 0, Fraction(1, 2)),
    *([_MEMBER_FIBER[0] - z] + _MEMBER_FIBER[1:] for z in (Fraction(-2), Fraction(0.3),
                                                            Fraction(1))),
])
def test_refine_asks_few_exact_signs_per_root(coeffs):
    # Two end checks and the final cell's two ends; bisection asks about 45.
    intervals = list(_reference_intervals(coeffs))
    assert len(intervals) in (2, 3)
    for reduced, a, b in intervals:
        spy = _Spy(_ints(reduced))
        assert _refine_fractions(spy, a, b) == reference_refine(reduced, a, b, REFINE_TOL)
        assert len(spy.points) <= 6


@pytest.mark.parametrize("coeffs, count", [
    (_coeffs(Fraction(-3, 10), 0, Fraction(1, 2)), 3),  # a fold fiber
    ([_MEMBER_FIBER[0] - Fraction(0.3)] + _MEMBER_FIBER[1:], 5),  # three roots of nine
])
def test_isolation_counts_sign_variations_once_per_point(monkeypatch, coeffs, count):
    # The two ends of the Cauchy interval, then one midpoint per split.
    points = []
    variations = realroots._variations

    def spy(signs, p, q):
        points.append(Fraction(p, q))
        return variations(signs, p, q)

    monkeypatch.setattr(realroots, "_variations", spy)
    assert repr(real_roots(coeffs)) == repr(reference_real_roots(coeffs))
    assert len(points) == len(set(points)) == count


_TINY = Fraction(10) ** -12
_FOLD_X = Fraction(0.1)
_FIXED = {
    # Coefficients beyond the float range: every sign is decided exactly.
    "overflow": [Fraction(-2 * 10 ** 400), Fraction(0), Fraction(10 ** 400)],
    "overflow_mixed": [Fraction(-10 ** 400), Fraction(1), Fraction(3), Fraction(10 ** 380)],
    # Subnormal coefficients, and a root whose bisection reaches subnormal x.
    "subnormal": [Fraction(-2e-320), Fraction(0), Fraction(1e-320)],
    "subnormal_root": [Fraction(1e-320), Fraction(-1), Fraction(1)],
    # (Z - 1)(Z - 1 - 1e-12): float values near the pair are all rounding.
    "cluster": [1 + _TINY, -(2 + _TINY), Fraction(1)],
    # Fold fibers z + T_Z = (z - x^2/2) + Z^2/2 at x = 0.1: z = 0.1**2/2
    # rounds just off the caustic, z a hair below it has roots +-1.4e-15,
    # and z on it has a double root.
    "fold_decimal": [Fraction(0.1 ** 2 / 2) - _FOLD_X ** 2 / 2, Fraction(0), Fraction(1, 2)],
    "fold_near_double": [Fraction(-1, 10 ** 30), Fraction(0), Fraction(1, 2)],
    "fold_double": [Fraction(0), Fraction(0), Fraction(1, 2)],
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_real_roots_bit_identical_where_floats_step_aside(name):
    coeffs = _FIXED[name]
    assert _outcome(real_roots, coeffs) == _outcome(reference_real_roots, coeffs)


@settings(max_examples=150, deadline=None)
@given(_polys(), _FLOATS, st.integers(0, 60))
def test_sign_is_exact(coeffs, x, k):
    coeffs = _strip_zeros(coeffs)
    sign = _Sign(_ints(coeffs))
    for point in (Fraction(x), Fraction(x) + Fraction(1, 2 ** k)):
        assert sign(point.numerator, point.denominator) == _exact_sign(coeffs, point)
    # At a rational root the sign is exactly zero.
    r = Fraction(x)
    assert _Sign(_ints(_times_linear(coeffs, r)))(r.numerator, r.denominator) == 0


@pytest.mark.parametrize("x", [Fraction(10 ** 400), Fraction(1, 10 ** 400), Fraction(5e-324),
                               Fraction(0), Fraction(-1, 3)])
@pytest.mark.parametrize("name", sorted(_FIXED))
def test_sign_is_exact_at_extreme_points(name, x):
    coeffs = _strip_zeros(_FIXED[name])
    assert _Sign(_ints(coeffs))(x.numerator, x.denominator) == _exact_sign(coeffs, x)


@pytest.mark.parametrize("x_ulps, root_ulps, want", [(Fraction(36, 10), Fraction(37, 10), -1),
                                                     (Fraction(4, 10), Fraction(3, 10), 1)])
def test_sign_is_exact_at_subnormal_points(x_ulps, root_ulps, want):
    # x and the root round to the same subnormal float (or to 0.0), while
    # the slope 1e300 makes that rounding error far exceed a relative bound.
    ulp = Fraction(2) ** -1074
    x, root = x_ulps * ulp, root_ulps * ulp
    coeffs = [-(10 ** 300) * root, Fraction(10 ** 300)]
    assert _Sign(_ints(coeffs))(x.numerator, x.denominator) == want


def test_sign_decides_coefficients_beyond_the_float_range_in_floats(monkeypatch):
    # Roots +-32; the float view scales the coefficients by one power of two.
    coeffs = [-(2 ** 2000), 0, 2 ** 1990]
    fallbacks = []
    exact_sign = _Sign._exact_sign
    monkeypatch.setattr(_Sign, "_exact_sign",
                        lambda self, p, q: fallbacks.append(Fraction(p, q)) or exact_sign(self, p, q))
    sign = _Sign(coeffs)
    for x in (Fraction(0), Fraction(31), Fraction(-33), Fraction(1, 3), Fraction(-10 ** 6)):
        assert sign(x.numerator, x.denominator) == _exact_sign(coeffs, x)
    assert fallbacks == []


def _assert_positive_multiples(coeffs):
    chain = sturm_chain(_ints(coeffs))
    want = reference_sturm_chain(coeffs)
    assert len(chain) == len(want)
    for member, ref in zip(chain, want):
        ratio = member[-1] / ref[-1]
        assert len(member) == len(ref) and ratio > 0
        assert all(m == ratio * r for m, r in zip(member, ref))
    # Every remainder is divided by its content.
    assert all(math.gcd(*member) == 1 for member in chain[2:])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_polys())
def test_sturm_chain_members_are_positive_multiples_of_the_reference(coeffs):
    _assert_positive_multiples(_strip_zeros(coeffs))


def test_sturm_chain_ends_at_a_derivative_that_divides():
    # (Z - 1)^3: c' = 3 (Z - 1)^2 divides c, so the chain is [c, c'].
    coeffs = [-1, 3, -3, 1]
    assert sturm_chain(coeffs) == [coeffs, [3, -6, 3]]
    _assert_positive_multiples(_coeffs(*coeffs))
    assert real_roots(coeffs) == [(1.0, 3)]


@pytest.mark.parametrize("coeffs, member", [
    ([-2, 0, 1], 1),  # x^2 - 2: the count on (-3, 3] comes out as -2
    ([6, 0, -5, 0, 1], 0),  # (x^2 - 2)(x^2 - 3): two "roots" left at any depth
    ([-1, 0, 0, 0, 0, 1, 1], 4),
])
def test_corrupted_sturm_chain_fails_at_once(coeffs, member):
    # A wrong chain used to bisect forever; one member negated must raise.
    chain = sturm_chain(coeffs)
    chain[member] = [-v for v in chain[member]]
    start = time.perf_counter()
    with pytest.raises(ArithmeticError):
        _isolate_square_free(coeffs, chain)
    assert time.perf_counter() - start < 1.0
    exact, intervals, _ = _isolate_square_free(coeffs, sturm_chain(coeffs))
    assert not exact and len(intervals) == len(real_roots(coeffs))
