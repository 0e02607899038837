"""Independent reference answers for the benchmark's correctness gates.

Nothing here imports ``sgma``: each gate compares the program's output with
a closed form of the fold example T = y^2/2 - x^2 Z/2 + Z^3/6, or with
plain term-map arithmetic on a potential's exact coefficients, so a defect
in the code under test cannot also move its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- fold example: metric 2 diag(-Z, 1, -Z) -----------------------------------


def fold_null_momentum(C1: float, C2: float, Z0: float, reverse: bool) -> tuple:
    """Null momentum with conserved xdot*Z = C1 and ydot = C2 (Z increasing).

    From qdot = 2 h^{-1} p = (-p1/Z, p2, -p3/Z); ``reverse`` negates p,
    which runs the same arm backwards in time.
    """
    zdot0 = math.sqrt(C2 * C2 * Z0 - C1 * C1) / Z0
    p = (-C1, C2, -Z0 * zdot0)
    return tuple(-v for v in p) if reverse else p


def fold_hamiltonian(q, p) -> float:
    """H = p^T h^{-1} p for h = 2 diag(-Z, 1, -Z)."""
    Z = q[2]
    return 0.5 * (p[1] * p[1] - (p[0] * p[0] + p[2] * p[2]) / Z)


def fold_displacement(C1: float, C2: float, Z0: float, Z: float) -> tuple:
    """Closed-form (dx, dy) of the forward null ray from Z0 to Z.

    s = g(Z) - g(Z0) with g(Z) = 2 sqrt(C2^2 Z - C1^2)(2 C1^2 + C2^2 Z) / (3 C2^4),
    dx = 2 C1 (sqrt(C2^2 Z - C1^2) - sqrt(C2^2 Z0 - C1^2)) / C2^2, dy = C2 s.
    """
    c2sq = C2 * C2
    sq = math.sqrt(c2sq * Z - C1 * C1)
    sq0 = math.sqrt(c2sq * Z0 - C1 * C1)
    g = 2.0 * sq * (2.0 * C1 * C1 + c2sq * Z) / (3.0 * c2sq * c2sq)
    g0 = 2.0 * sq0 * (2.0 * C1 * C1 + c2sq * Z0) / (3.0 * c2sq * c2sq)
    return 2.0 * C1 * (sq - sq0) / c2sq, C2 * (g - g0)


def fold_in_domain(x: float, z: float) -> bool:
    """The fiber Z^2 = x^2 - 2z is non-empty (and has a convex branch)."""
    return z < 0.5 * x * x


def fold_meridional_wind(x: float, z: float, q_g: float = 1.0) -> float:
    """v = q_g (x sqrt(x^2 - 2z) - x) on the convex branch Z = -sqrt(x^2 - 2z)."""
    return q_g * (x * math.sqrt(x * x - 2.0 * z) - x)


def fold_label(Z: float) -> str:
    """Signature label of 2 diag(-Z, 1, -Z): the fold is parabolic exactly on Z = 0."""
    if Z == 0.0:
        return "parabolic"
    return "elliptic" if Z < 0.0 else "hyperbolic"


def adjugate3(a) -> list:
    """Adjugate (transposed cofactor matrix) of a 3x3 matrix."""
    return [
        [a[1][1] * a[2][2] - a[1][2] * a[2][1], a[0][2] * a[2][1] - a[0][1] * a[2][2],
         a[0][1] * a[1][2] - a[0][2] * a[1][1]],
        [a[1][2] * a[2][0] - a[1][0] * a[2][2], a[0][0] * a[2][2] - a[0][2] * a[2][0],
         a[0][2] * a[1][0] - a[0][0] * a[1][2]],
        [a[1][0] * a[2][1] - a[1][1] * a[2][0], a[0][1] * a[2][0] - a[0][0] * a[2][1],
         a[0][0] * a[1][1] - a[0][1] * a[1][0]],
    ]


# -- plain term-map arithmetic on exact potentials (variables x, y, Z) --------


def term_diff(terms: dict, i: int) -> dict:
    out = {}
    for exps, c in terms.items():
        if exps[i]:
            new = list(exps)
            new[i] -= 1
            out[tuple(new)] = c * exps[i]
    return out


def term_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def term_add(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for e, c in part.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def term_scale(terms: dict, k) -> dict:
    return {e: c * k for e, c in terms.items()}


def dual_t_residual(terms: dict, eps_q=Fraction(1)) -> dict:
    """Exact T_xx T_yy - T_xy^2 + eps_q T_ZZ; the empty map for solutions."""
    tx, ty = term_diff(terms, 0), term_diff(terms, 1)
    txx, txy, tyy = term_diff(tx, 0), term_diff(tx, 1), term_diff(ty, 1)
    tzz = term_diff(term_diff(terms, 2), 2)
    return term_add(term_mul(txx, tyy), term_scale(term_mul(txy, txy), -1),
                    term_scale(tzz, eps_q))


def term_eval(terms: dict, point) -> tuple:
    """Float value and the sum of |term| values (a scale for relative gates)."""
    x, y, Z = (float(v) for v in point)
    value = scale = 0.0
    for (a, b, c), coeff in terms.items():
        t = float(coeff) * x ** a * y ** b * Z ** c
        value += t
        scale += abs(t)
    return value, scale
