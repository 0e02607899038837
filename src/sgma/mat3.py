"""3x3 determinant, adjugate and a guarded float solve.

``det3`` and ``adj3`` take any 3x3 row sequence whose entries form a
commutative ring (``Poly``, ``Fraction``, ``int``, float or numpy arrays
evaluated elementwise) and always perform the same operations in the same
order, so exact and float callers share one cofactor formula.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NoBranchError


def det3(m):
    """Cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adj3(m) -> tuple:
    """Adjugate (transposed cofactor matrix) as a tuple of rows: m adj3(m) = det3(m) I."""
    return (
        (m[1][1] * m[2][2] - m[1][2] * m[2][1],
         m[0][2] * m[2][1] - m[0][1] * m[2][2],
         m[0][1] * m[1][2] - m[0][2] * m[1][1]),
        (m[1][2] * m[2][0] - m[1][0] * m[2][2],
         m[0][0] * m[2][2] - m[0][2] * m[2][0],
         m[0][2] * m[1][0] - m[0][0] * m[1][2]),
        (m[1][0] * m[2][1] - m[1][1] * m[2][0],
         m[0][1] * m[2][0] - m[0][0] * m[2][1],
         m[0][0] * m[1][1] - m[0][1] * m[1][0]),
    )


def solve3(a, b, message: str) -> np.ndarray:
    """x = adj(a) b / det(a) for a float 3x3 ``a``; ``b`` is a vector or 3-row matrix.

    Raises NoBranchError(message) when ``a`` is singular within |det a| <=
    1e-14 * max(1, max |a_ij|)^3: the callers solve for a branch's Hessian
    or velocity, which a singular ``a`` leaves undefined (a degenerate
    branch).  Raises DomainError(message) when det a is not finite (an entry
    is not, or det a overflows), when the threshold itself leaves the float
    range (max |a_ij| > ~5.6e102), or when x is not finite (an entry of b is
    not, or adj(a) b / det(a) overflows).
    """
    rows = np.asarray(a, dtype=float).tolist()  # float scalars: no numpy dispatch
    det = det3(rows)
    if not abs(det) < np.inf:  # every entry enters det3: one that is not finite too
        raise DomainError(message)
    s = max(1.0, *map(abs, rows[0] + rows[1] + rows[2]))
    try:
        singular = not abs(det) > 1e-14 * s ** 3
    except OverflowError:
        raise DomainError(message) from None
    if singular:
        raise NoBranchError(message)
    # Each |adj(a)_ij| <= 2 s^2, so below this bound (which NaN fails) no step of x overflows.
    if 6.0 * s * s * float(np.abs(b).max()) / abs(det) < 1e300:
        return np.array(adj3(rows)) @ b / det
    with np.errstate(over="ignore", invalid="ignore"):  # x is checked instead
        x = np.array(adj3(rows)) @ b / det
    if not np.isfinite(x).all():
        raise DomainError(message)
    return x
