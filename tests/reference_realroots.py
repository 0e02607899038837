"""Reference real-root isolation: exact Fraction arithmetic throughout.

The plain algorithm that ``sgma.realroots`` must reproduce: Yun, Sturm
isolation and bisection, with every sign taken from an exact Fraction
evaluation.  The tests require ``sgma.realroots.real_roots`` to return
bit-identical results (by ``repr``).  It is the oracle, so keep it simple
rather than fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


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


def _eval(c: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


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
    g = _gcd(c, _derivative(c))
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


def _variations(chain: list, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def cauchy_bound(c: list) -> Fraction:
    """Strict bound on the absolute value of all real roots."""
    c = _strip(c)
    lead = abs(c[-1])
    if len(c) == 1:
        return Fraction(1)
    return 1 + max(abs(a) for a in c[:-1]) / lead


def _isolate_square_free(c: list):
    """Separate a square-free polynomial into exact roots and isolating intervals.

    Exact rational roots hit by bisection midpoints are divided out and the
    sweep restarts on the quotient, so every returned interval (a, b]
    contains exactly one root of the returned (reduced) polynomial and the
    interval bookkeeping never refers to a stale chain.
    """
    exact = []
    poly = c
    while _degree(poly) >= 1:
        chain = sturm_chain(poly)
        bound = cauchy_bound(poly)
        intervals = []
        stack = [(-bound, bound)]
        restarted = False
        while stack:
            a, b = stack.pop()
            count = _variations(chain, a) - _variations(chain, b)
            if count == 0:
                continue
            if count == 1:
                intervals.append((a, b))
                continue
            mid = (a + b) / 2
            if _eval(poly, mid) == 0:
                exact.append(mid)
                poly, _ = _divmod(poly, [-mid, Fraction(1)])
                restarted = True
                break
            stack.append((a, mid))
            stack.append((mid, b))
        if not restarted:
            return exact, intervals, poly
    return exact, [], poly


def _refine(c: list, a: Fraction, b: Fraction, tol: float) -> Fraction:
    # One simple root in (a, b]; exact bisection on the sign change.
    fb = _eval(c, b)
    if fb == 0:
        return b
    fa = _eval(c, a)
    if fa == 0:
        # Root strictly inside (a, b]; nudge the left endpoint.
        a = (a + b) / 2
        fa = _eval(c, a)
        if fa == 0:
            return a
    while _wider_than_tol(a, b, tol):
        mid = (a + b) / 2
        fm = _eval(c, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return (a + b) / 2


def _wider_than_tol(a: Fraction, b: Fraction, tol: float) -> bool:
    # The stop test in floats; in exact arithmetic where a float overflows.
    try:
        return float(b - a) > tol * max(1.0, abs(float(a)))
    except OverflowError:
        return b - a > Fraction(tol) * max(1, abs(a))


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


def real_roots(coeffs: list, tol: float = 1e-13) -> list:
    """All real roots with multiplicities, ascending.

    ``coeffs`` is an ascending rational coefficient list.  A constant
    nonzero polynomial has no roots; the zero polynomial is rejected
    since every point would be a root.
    """
    c = _strip([Fraction(v) for v in coeffs])
    if not c:
        raise ValueError("the zero polynomial has no isolated roots")
    if _degree(c) < 1:
        return []
    found = []
    for factor, mult in square_free_decomposition(c):
        exact, intervals, reduced = _isolate_square_free(factor)
        found.extend(RootInfo(float(r), mult) for r in exact)
        for a, b in intervals:
            x = float(_refine(reduced, a, b, tol))
            span = float(b - a)
            x = _newton_polish(reduced, x, x - 10 * span - tol, x + 10 * span + tol)
            found.append(RootInfo(x, mult))
    found.sort(key=lambda r: r.value)
    return found
