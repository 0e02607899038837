"""Real-root isolation for univariate polynomials with rational coefficients.

The input is converted once to primitive integer coefficients; everything
after that works on integer lists.  One primitive remainder sequence
(``_prs``) gives the Sturm chain and the gcds of Yun's decomposition, which
recovers multiplicities; roots are isolated with the Sturm chain of each
square-free factor.  Exact isolation is what guarantees that tangent double
roots -- fold points where a fiber equation grazes zero -- are reported
instead of silently missed by a float root finder.

Each simple root is refined to the rational that bisection of its
isolating interval down to ``REFINE_TOL`` returns, without the halvings: a
float Newton estimate predicts the dyadic cell where bisection stops, and
exact signs at the cell's two ends certify it (see ``_jump``).  Where the
certificate fails, the bisection itself runs.

Isolation and refinement only ever need the sign of an exact polynomial at
a rational point.  Each sign is first tried in floats, with a rigorous
bound on the rounding error, and computed in integer arithmetic only when
the float value does not clear that bound (see ``_Sign``).  Every sign is
exact either way, so the results are those of purely exact arithmetic.

Coefficient lists are ascending: ``[c0, c1, ...]`` represents ``c0 + c1*x + ...``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .errors import DomainError

REFINE_TOL = 1e-13  # bisection stops at width <= REFINE_TOL * max(1, |left end|)
_REFINE_TOL_RATIO = REFINE_TOL.as_integer_ratio()
_U = 2.0 ** -53
_TINY = 2.0 ** -1072
_MIN_NORMAL = sys.float_info.min
_FLOAT_BITS = 960  # the float view of a _Sign scales its coefficients below 2**960
_ESTIMATE_STEPS = 100  # iterations of _estimate before it settles for its last iterate
_ESTIMATE_STEP = REFINE_TOL / 256  # _estimate stops at a step below 1/256 of a final cell


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


def _primitive(c: list) -> list:
    g = math.gcd(*c)
    return [v // g for v in c]


def _quo(a: list, b: list) -> list:
    # a / b for integer lists where b divides a.  Exact when b is primitive:
    # by Gauss's lemma the quotient then has integer coefficients.
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        qk = q[k] = a[k + n] // lead
        for i, coeff in enumerate(b):
            a[k + i] -= qk * coeff
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _prs(a: list, b: list) -> list:
    """Primitive remainder sequence [a, b, r1, r2, ...] of integer lists.

    Each r is -prem(previous two) divided by its positive content, where
    the pseudo-remainder scales the dividend by divisors of |lc| of the
    divisor, never by lc's sign.  So each member is a positive rational
    multiple of the corresponding member of the Euclidean sequence with
    negated remainders (Collins 1967; Brown and Traub 1971), and the last
    member is gcd(a, b) up to a constant.
    """
    chain = [a]
    while b:
        chain.append(b)
        r, n, lb = a, len(b), b[-1]
        while len(r) >= n:
            g = math.gcd(r[-1], lb) if lb > 0 else -math.gcd(r[-1], lb)
            f, h, shift = lb // g, r[-1] // g, len(r) - n  # f = |lb| / gcd > 0
            r = _strip([f * v for v in r[:shift]]
                       + [f * v - h * coeff for v, coeff in zip(r[shift:-1], b)])
        if not r:
            break
        g = math.gcd(*r)
        a, b = b, [-v // g for v in r]
    return chain


def _yun(c: list, chain: list) -> list:
    # Yun's square-free decomposition [(factor, multiplicity)] of the
    # primitive c, with primitive factors.  ``chain`` is c's Sturm chain,
    # whose last member is gcd(c, c') up to a constant.  w and d are always
    # divided by the same factor, so d - w' keeps its meaning.
    g = _primitive(chain[-1])
    if _degree(g) < 1:
        return [(c, 1)]
    out = []
    w, d = _quo(c, g), _quo(_derivative(c), g)
    i = 1
    while _degree(w) >= 1:
        d = _strip([x - y for x, y in zip_longest(d, _derivative(w), fillvalue=0)])
        a = _primitive(_prs(w, d)[-1])
        if _degree(a) >= 1:
            out.append((a, i))
            w, d = _quo(w, a), _quo(d, a)
        i += 1
    return out


def sturm_chain(c: list) -> list:
    """Sturm chain of the integer list c, each member up to a positive factor."""
    return _prs(_strip(c), _derivative(c))


class _Sign:
    """Exact sign of one integer polynomial at rational points ``p/q`` (q > 0).

    A float Horner pass decides the sign when its value clears a running
    error bound; otherwise the sign comes from integer arithmetic,
    ``sum c_i p^i q^(n-i)``.  Both steps return the exact sign, so callers
    see no float behaviour at all.

    The float view divides every coefficient by one power of two, chosen so
    that the widest one stays below 2^_FLOAT_BITS: large primitive members
    then do not overflow, and a positive scale keeps every sign.

    The bound: with every coefficient and x rounded once to nearest, Horner
    on the rounded data errs by at most (3n + 1) u S, where S = sum |c_i|
    |x|^i over the rounded data and u = 2^-53 (Higham, Accuracy and
    Stability, section 5.1).  A margin of (4n + 8) u covers the rounding of
    S itself.  Underflow adds at most 2^-1074 per operation, times powers
    of |x|: a constant where |x| <= 1 and at most (n + 1) S / |c_n| beyond.
    That term also covers coefficients the scaling makes subnormal.  A
    non-finite value, a leading coefficient scaled to zero or a subnormal
    x skips the float step.
    """

    __slots__ = ("_ints", "_floats", "_rel", "_abs")

    def __init__(self, c: list):
        # ``c``: stripped ascending integer coefficients.
        n = len(c) - 1
        self._ints = c[::-1]
        self._floats = None
        scale = 1 << max(0, max(v.bit_length() for v in c) - _FLOAT_BITS)
        floats = [v / scale for v in self._ints]  # int true division rounds correctly
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
        return 1 if v > bound else -1 if v < -bound else 0

    def _exact_sign(self, p: int, q: int) -> int:
        ints = self._ints
        acc, qk = ints[0], 1
        for num in ints[1:]:
            qk *= q
            acc = acc * p + num * qk
        return (acc > 0) - (acc < 0)


def _variations(signs: list, p: int, q: int) -> int:
    count = last = 0
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
    if len(c) == 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(a) for a in c[:-1]), abs(c[-1]))


def _max_depth(c: list, bound: Fraction) -> int:
    # Bisection depth beyond which no interval can hold two roots: it is
    # then narrower than Mahler's separation bound for a square-free integer
    # polynomial of degree n, sep > sqrt(3) n^(-(n+2)/2) |c|_2^(1-n), and
    # (-bound, bound] has width 2 bound.  All logarithms are rounded up.
    n = _degree(c)
    norm_bits = max(abs(v) for v in c).bit_length() + (n + 1).bit_length()
    sep_bits = (n + 2) * n.bit_length() // 2 + 1 + (n - 1) * norm_bits
    return math.ceil(bound).bit_length() + 2 + sep_bits


def _isolate_square_free(c: list, chain: list):
    """Separate a square-free polynomial into exact roots and isolating intervals.

    ``chain`` is the Sturm chain of c, each member times any positive
    constant, which leaves every sign-variation count unchanged.

    Exact rational roots hit by bisection midpoints are divided out and the
    sweep restarts on the quotient, so every returned interval (a, b]
    contains exactly one root of the returned (reduced) polynomial and the
    interval bookkeeping never refers to a stale chain.

    A wrong chain raises ArithmeticError instead of bisecting forever: a
    root count outside [0, degree], or one of 2 or more past the depth at
    which intervals are narrower than the roots' separation bound.
    """
    exact, poly = [], c
    while _degree(poly) >= 1:
        signs = [_Sign(p) for p in chain]
        sign = signs[0]  # poly times a constant: the same zeros
        bound = cauchy_bound(poly)
        n, max_depth = _degree(poly), _max_depth(poly, bound)
        intervals = []
        # Each interval carries the sign variations at its two ends, so
        # that every point is counted once.
        stack = [(-bound, bound, 0, _variations(signs, -bound.numerator, bound.denominator),
                  _variations(signs, bound.numerator, bound.denominator))]
        restarted = False
        while stack:
            a, b, depth, va, vb = stack.pop()
            count = va - vb
            if not 0 <= count <= n:
                raise ArithmeticError(f"Sturm count {count} outside [0, {n}] on ({a}, {b}]")
            if count == 0:
                continue
            if count == 1:
                intervals.append((a, b))
                continue
            if depth >= max_depth:
                raise ArithmeticError(f"{count} roots in ({a}, {b}], narrower than their "
                                      "separation bound")
            mid = (a + b) / 2
            if sign(mid.numerator, mid.denominator) == 0:
                exact.append(mid)
                poly = _quo(poly, [-mid.numerator, mid.denominator])
                chain = sturm_chain(poly)
                restarted = True
                break
            vm = _variations(signs, mid.numerator, mid.denominator)
            stack.append((a, mid, depth + 1, va, vm))
            stack.append((mid, b, depth + 1, vm, vb))
        if not restarted:
            return exact, intervals, poly
    return exact, [], poly


def _refine(sign: _Sign, a: Fraction, b: Fraction) -> Fraction:
    # One simple root in (a, b]: what bisection on the exact sign change
    # returns, with both endpoints held as integer numerators over one
    # denominator q.  _jump usually finds it in two signs; the loop is the
    # fallback.
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
    jumped = _jump(sign, sa, a, b, q)
    if jumped is not None:
        return jumped
    while _wider_than_tol(a, b, q):
        mid, a, b, q = a + b, 2 * a, 2 * b, 2 * q
        sm = sign(mid, q)
        if sm == 0:
            return Fraction(mid, q)
        if sm == sa:
            a = mid
        else:
            b = mid
    return Fraction(a + b, 2 * q)


def _jump(sign: _Sign, sa: int, a: int, b: int, q: int):
    # The bisection's answer on (a/q, b/q], sign sa at a and nonzero at b,
    # without its halvings; None where a float estimate cannot be certified.
    #
    # Level k of the bisection splits (a, b] into 2^k cells of width
    # w = b - a over q 2^k; cell j is (a 2^k + j w, a 2^k + (j + 1) w].
    # Bisection follows the cells that hold the root and stops at the first
    # level K whose cell passes the stop test.  The cell that holds the
    # float estimate x is predicted, and its level K is right when the test
    # fails on its parent at level K - 1 and passes at K.  Two levels are
    # enough because the test is monotone along a path.  If it passes at
    # level k, W_k <= tol M_k with W_k the width and M_k = max(1, |a_k|) for
    # the left end a_k, then the child has M_(k+1) >= M_k - W_k / 2, so
    # W_(k+1) = W_k / 2 <= tol M_(k+1) / (2 - tol): a factor-2 margin that
    # the rounding of the float test cannot close.  So failing at K - 1
    # means failing at every coarser level of the path.
    if not _wider_than_tol(a, b, q):
        return None  # the loop returns the midpoint at once
    w = b - a
    try:
        lo, hi, width = a / q, b / q, w / q
    except OverflowError:
        return None
    x = _estimate(sign, sa, lo, hi)
    if x is None:
        return None
    n, d = x.as_integer_ratio()
    k = max(1, _level(width, x))
    while True:
        j = min(max(((n * q - a * d) << k) // (d * w), 0), (1 << k) - 1)
        left, scale = (a << k) + j * w, q << k
        if _wider_than_tol(left, left + w, scale):
            k += 1
        elif not _wider_than_tol((a << (k - 1)) + (j >> 1) * w,
                                 (a << (k - 1)) + ((j >> 1) + 1) * w, q << (k - 1)):
            k -= 1  # never below 1: level 0, (a, b], fails the test
        else:
            break
    # The cell holds the root when its ends have opposite signs, sa on the
    # left, as (a, b] holds only one root.  An end with sign 0 is the root:
    # a level-K grid point strictly inside (a, b), so the midpoint of a
    # coarser cell of the path, where bisection stops on the exact zero.
    sl = sign(left, scale)
    if sl == 0:
        return Fraction(left, scale)
    if sl != sa:
        return None
    sr = sign(left + w, scale)
    if sr == 0:
        return Fraction(left + w, scale)
    if sr == sa:
        return None
    return Fraction(2 * left + w, 2 * scale)


def _level(width: float, x: float) -> int:
    # The level where cells of this width about x first pass the stop test,
    # up to float rounding: _jump checks it and moves it by one on a miss.
    return math.ceil(math.log2(width) - math.log2(REFINE_TOL * max(1.0, abs(x))))


def _estimate(sign: _Sign, sa: int, lo: float, hi: float):
    # A float root of sign's polynomial in [lo, hi], where its sign at lo is
    # sa: Newton steps inside a bracket that each iterate shrinks, with a
    # bisection step wherever Newton would leave it.  None without a float
    # view.  Only a guess: _jump certifies the cell it points to.
    if sign._floats is None:
        return None
    desc = [f for f, _ in sign._floats]
    n = len(desc) - 1
    deriv = [f * (n - i) for i, f in enumerate(desc[:-1])]
    x = 0.5 * lo + 0.5 * hi
    for _ in range(_ESTIMATE_STEPS):
        v = _horner(desc, x)
        if v == 0.0:
            return x
        if (v > 0.0) == (sa > 0):
            lo = x
        else:
            hi = x
        dv = _horner(deriv, x)
        nxt = x - v / dv if dv else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * lo + 0.5 * hi
        if abs(nxt - x) <= _ESTIMATE_STEP * max(1.0, abs(x)):
            return nxt
        x = nxt
    return x


def _wider_than_tol(a: int, b: int, q: int) -> bool:
    # The bisection's stop test on (a/q, b/q].  (b - a) / q and a / q round
    # exactly like float(b - a) and float(a) of the corresponding Fractions:
    # int true division is correctly rounded.  Where either leaves the float
    # range (a wide bracket from a Cauchy bound beyond it), the same test in
    # exact arithmetic: (b - a) > REFINE_TOL * max(q, |a|).
    try:
        return (b - a) / q > REFINE_TOL * max(1.0, abs(a / q))
    except OverflowError:
        num, den = _REFINE_TOL_RATIO
        return (b - a) * den > num * max(q, abs(a))


def _horner(coeffs: list, t: float) -> float:
    # Float value at t of the polynomial with descending coefficients.
    acc = 0.0
    for coeff in coeffs:
        acc = acc * t + coeff
    return acc


def _newton_polish(c: list, x: float, lo: float, hi: float) -> float:
    # Final float sharpening on the square-free factor (simple roots only).
    # n / lead rounds correctly, so these are the floats of the monic factor;
    # a factor with a coefficient beyond the float range keeps x unpolished.
    try:
        cf = [v / c[-1] for v in reversed(c)]
        df = [v / c[-1] for v in reversed(_derivative(c))]
    except OverflowError:
        return x
    for _ in range(3):
        d = _horner(df, x)
        if d == 0.0:
            break
        nxt = x - _horner(cf, x) / d
        if not (lo <= nxt <= hi):
            break
        x = nxt
    return x


def real_roots(coeffs: list) -> list:
    """All real roots with multiplicities, ascending.

    ``coeffs`` is an ascending rational coefficient list.  A constant
    nonzero polynomial has no roots; the zero polynomial is rejected
    since every point would be a root.  Roots beyond the float range raise
    DomainError; roots in it are found even where the Cauchy bound, and so
    the isolating intervals, lie beyond it.
    """
    c = _strip([Fraction(v) for v in coeffs])
    if not c:
        raise ValueError("the zero polynomial has no isolated roots")
    if _degree(c) < 1:
        return []
    den = math.lcm(*(v.denominator for v in c))
    c = _primitive([v.numerator * (den // v.denominator) for v in c])
    found = []
    chain = sturm_chain(c)
    square_free = _degree(chain[-1]) < 1
    for factor, mult in _yun(c, chain):
        # A square-free c is its own only factor, so c's chain serves it;
        # other factors need their own chains.
        exact, intervals, reduced = _isolate_square_free(
            factor, chain if square_free else sturm_chain(factor))
        sign = _Sign(reduced) if intervals else None
        try:
            found.extend(RootInfo(float(r), mult) for r in exact)
            for a, b in intervals:
                x = float(_refine(sign, a, b))
                try:
                    span = float(b - a)
                except OverflowError:
                    # An isolating interval wider than the float range: the
                    # Newton bracket is the float range itself.
                    lo, hi = -sys.float_info.max, sys.float_info.max
                else:
                    lo, hi = x - 10 * span - REFINE_TOL, x + 10 * span + REFINE_TOL
                found.append(RootInfo(_newton_polish(reduced, x, lo, hi), mult))
        except OverflowError:
            raise DomainError("a real root lies beyond the float range") from None
    found.sort(key=lambda r: r.value)
    return found
