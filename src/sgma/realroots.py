"""Real-root isolation for univariate polynomials with rational coefficients.

Roots are isolated with Sturm sequences on the square-free part (obtained
by Yun's decomposition, which also recovers multiplicities) and refined by
bisection on rational endpoints.  Exact isolation is what guarantees that
tangent double roots -- fold points where a fiber equation grazes zero --
are reported instead of silently missed by a float root finder.

Isolation and refinement only ever need the sign of an exact polynomial at
a rational point.  Each sign is first tried in floats, with a rigorous
bound on the rounding error, and computed in integer arithmetic only when
the float value does not clear that bound (see ``_Sign``).  Every sign is
exact either way, so the bisection visits the same brackets as a purely
exact one.

Coefficient lists are ascending: ``[c0, c1, ...]`` represents ``c0 + c1*x + ...``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

REFINE_TOL = 1e-13  # bisection stops at width <= REFINE_TOL * max(1, |left end|)
_U = 2.0 ** -53
_TINY = 2.0 ** -1072
_MIN_NORMAL = sys.float_info.min


class RootInfo(NamedTuple):
    value: float
    multiplicity: int


def _strip(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _degree(c: list) -> int:
    return len(c) - 1


def _derivative(c: list) -> list:
    return _strip([coeff * k for k, coeff in enumerate(c)][1:])


def _monic(c: list) -> list:
    lead = c[-1]
    return [coeff / lead for coeff in c]


def _divmod(a: list, b: list):
    # Exact Euclidean division over the rationals.
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and _strip(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, coeff in enumerate(b):
            a[shift + i] -= factor * coeff
        a = _strip(a)
        if not a:
            break
    return _strip(q), _strip(a)


def _gcd(a: list, b: list) -> list:
    a, b = _strip(a), _strip(b)
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    if not a:
        return []
    return _monic(a)


def square_free_decomposition(c: list) -> list:
    """Yun's algorithm: returns [(factor, multiplicity)] with factor monic.

    The input equals (up to a constant) the product of factor**multiplicity.
    """
    c = _strip(c)
    if _degree(c) < 1:
        return []
    return _yun(c, sturm_chain(c))


def _yun(c: list, chain: list) -> list:
    # ``chain`` is the Sturm chain of c: the Euclidean remainder sequence of
    # (c, c') up to signs, so its last member is gcd(c, c') up to a constant.
    g = _monic(chain[-1])
    if _degree(g) < 1:
        return [(_monic(c), 1)]
    out = []
    w, _ = _divmod(c, g)
    d, _ = _divmod(_derivative(c), g)
    d = _strip([dc - wc for dc, wc in
                zip(d + [Fraction(0)] * len(w), _derivative(w) + [Fraction(0)] * len(d))])
    i = 1
    while _degree(w) >= 1:
        a = _gcd(w, d) if d else _monic(w)
        if _degree(a) >= 1:
            out.append((a, i))
            w, _ = _divmod(w, a)
            d, _ = _divmod(d, a) if d else ([], [])
        d = _strip([dc - wc for dc, wc in
                    zip(d + [Fraction(0)] * len(w), _derivative(w) + [Fraction(0)] * len(d))])
        i += 1
    return out


def sturm_chain(c: list) -> list:
    chain = [_strip(c), _derivative(c)]
    while chain[-1]:
        _, r = _divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return [p for p in chain if p]


class _Sign:
    """Exact sign of one rational polynomial at rational points ``p/q`` (q > 0).

    A float Horner pass decides the sign when its value clears a running
    error bound; otherwise the sign comes from integer arithmetic on the
    numerators over the common denominator, ``sum N_i p^i q^(n-i)``.  Both
    steps return the exact sign, so callers see no float behaviour at all.

    The bound: with every coefficient and x rounded once to nearest, Horner
    on the rounded data errs by at most (3n + 1) u S, where S = sum |c_i|
    |x|^i over the rounded data and u = 2^-53 (Higham, Accuracy and
    Stability, section 5.1).  A margin of (4n + 8) u covers the rounding of
    S itself.  Underflow adds at most 2^-1074 per operation, times powers
    of |x|: a constant where |x| <= 1 and at most (n + 1) S / |c_n| beyond.
    A non-finite value, an overflowing conversion or a subnormal x skips
    the float step.
    """

    __slots__ = ("_ints", "_floats", "_rel", "_abs")

    def __init__(self, c: list):
        # ``c``: stripped ascending Fraction coefficients.
        n = len(c) - 1
        den = math.lcm(*(v.denominator for v in c))
        self._ints = [v.numerator * (den // v.denominator) for v in reversed(c)]
        self._floats = None
        try:
            floats = [float(v) for v in reversed(c)]
        except OverflowError:
            return
        if floats[0] == 0.0:
            return
        self._floats = [(f, abs(f)) for f in floats]
        self._rel = (4 * n + 8) * _U + (n + 1) * _TINY / abs(floats[0])
        self._abs = (n + 1) * _TINY

    def __call__(self, p: int, q: int) -> int:
        return self._float_sign(p, q) or self._exact_sign(p, q)

    def _float_sign(self, p: int, q: int) -> int:
        # 0 when floats cannot decide; the exact sign is then needed.
        if self._floats is None:
            return 0
        try:
            x = p / q
        except OverflowError:
            return 0
        if p and abs(x) < _MIN_NORMAL:
            return 0  # subnormal or underflowed x: its rounding is not relative
        ax = abs(x)
        v = s = 0.0
        for f, m in self._floats:
            v = v * x + f
            s = s * ax + m
        bound = self._rel * s + self._abs
        if v > bound:
            return 1
        if v < -bound:
            return -1
        return 0

    def _exact_sign(self, p: int, q: int) -> int:
        ints = self._ints
        acc = ints[0]
        qk = 1
        for num in ints[1:]:
            qk *= q
            acc = acc * p + num * qk
        return (acc > 0) - (acc < 0)


def _variations(signs: list, p: int, q: int) -> int:
    count = 0
    last = 0
    for sign in signs:
        s = sign(p, q)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def cauchy_bound(c: list) -> Fraction:
    """Strict bound on the absolute value of all real roots."""
    c = _strip(c)
    lead = abs(c[-1])
    if len(c) == 1:
        return Fraction(1)
    return 1 + max(abs(a) for a in c[:-1]) / lead


def _isolate_square_free(c: list, chain: list):
    """Separate a square-free polynomial into exact roots and isolating intervals.

    ``chain`` is the Sturm chain of c times any nonzero constant, which
    leaves every sign-variation count unchanged.

    Exact rational roots hit by bisection midpoints are divided out and the
    sweep restarts on the quotient, so every returned interval (a, b]
    contains exactly one root of the returned (reduced) polynomial and the
    interval bookkeeping never refers to a stale chain.
    """
    exact = []
    poly = c
    while _degree(poly) >= 1:
        signs = [_Sign(p) for p in chain]
        sign = signs[0]  # poly times a constant: the same zeros
        bound = cauchy_bound(poly)
        intervals = []
        stack = [(-bound, bound)]
        restarted = False
        while stack:
            a, b = stack.pop()
            count = (_variations(signs, a.numerator, a.denominator)
                     - _variations(signs, b.numerator, b.denominator))
            if count == 0:
                continue
            if count == 1:
                intervals.append((a, b))
                continue
            mid = (a + b) / 2
            if sign(mid.numerator, mid.denominator) == 0:
                exact.append(mid)
                poly, _ = _divmod(poly, [-mid, Fraction(1)])
                chain = sturm_chain(poly)
                restarted = True
                break
            stack.append((a, mid))
            stack.append((mid, b))
        if not restarted:
            return exact, intervals, poly
    return exact, [], poly


def _refine(sign: _Sign, a: Fraction, b: Fraction) -> Fraction:
    # One simple root in (a, b]; bisection on the exact sign change, with
    # both endpoints held as integer numerators over one denominator q.
    q = math.lcm(a.denominator, b.denominator)
    a, b = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    if sign(b, q) == 0:
        return Fraction(b, q)
    sa = sign(a, q)
    if sa == 0:
        # Root strictly inside (a, b]; nudge the left endpoint.
        a, b, q = a + b, 2 * b, 2 * q
        sa = sign(a, q)
        if sa == 0:
            return Fraction(a, q)
    # (b - a) / q and a / q round exactly like float(b - a) and float(a)
    # of the corresponding Fractions: int true division is correctly rounded.
    while (b - a) / q > REFINE_TOL * max(1.0, abs(a / q)):
        mid, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        sm = sign(mid, q)
        if sm == 0:
            return Fraction(mid, q)
        if sm == sa:
            a = mid
        else:
            b = mid
    return Fraction(a + b, 2 * q)


def _newton_polish(c: list, x: float, lo: float, hi: float) -> float:
    # Final float sharpening on the square-free factor (simple roots only).
    cf = [float(v) for v in c]
    df = [float(v) for v in _derivative(c)]

    def ev(poly, t):
        acc = 0.0
        for coeff in reversed(poly):
            acc = acc * t + coeff
        return acc

    for _ in range(3):
        d = ev(df, x)
        if d == 0.0:
            break
        step = ev(cf, x) / d
        nxt = x - step
        if not (lo <= nxt <= hi):
            break
        x = nxt
    return x


def real_roots(coeffs: list) -> list:
    """All real roots with multiplicities, ascending.

    ``coeffs`` is an ascending rational coefficient list.  A constant
    nonzero polynomial has no roots; the zero polynomial is rejected
    since every point would be a root.  Roots, or isolating intervals,
    beyond the float range raise DomainError.
    """
    c = _strip([Fraction(v) for v in coeffs])
    if not c:
        raise ValueError("the zero polynomial has no isolated roots")
    if _degree(c) < 1:
        return []
    found = []
    chain = sturm_chain(c)
    square_free = _degree(chain[-1]) < 1
    for factor, mult in _yun(c, chain):
        # A square-free c is its own only factor up to the constant lead(c),
        # so c's chain serves it; other factors need their own chains.
        exact, intervals, reduced = _isolate_square_free(
            factor, chain if square_free else sturm_chain(factor))
        sign = _Sign(reduced) if intervals else None
        try:
            found.extend(RootInfo(float(r), mult) for r in exact)
            for a, b in intervals:
                x = float(_refine(sign, a, b))
                span = float(b - a)
                x = _newton_polish(reduced, x, x - 10 * span - REFINE_TOL,
                                   x + 10 * span + REFINE_TOL)
                found.append(RootInfo(x, mult))
        except OverflowError:
            raise DomainError("a real root or its isolating interval lies beyond "
                              "the float range") from None
    found.sort(key=lambda r: r.value)
    return found
