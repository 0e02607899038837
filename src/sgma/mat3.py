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

    Raises NoBranchError(message) when a finite ``a`` is singular within
    |det a| <= 1e-14 * max(1, max |a_ij|)^3 or its determinant is NaN: the
    callers solve for a branch's Hessian or velocity, which a singular ``a``
    leaves undefined (a degenerate branch).  Raises DomainError(message)
    when an entry of ``a`` is not finite.
    """
    a = np.asarray(a, dtype=float)
    rows = a.tolist()  # float scalars: the same arithmetic, without numpy dispatch
    det = det3(rows)
    if not abs(det) > 1e-14 * max(1.0, float(np.max(np.abs(a)))) ** 3:
        raise (NoBranchError if np.isfinite(a).all() else DomainError)(message)
    return np.array(adj3(rows)) @ b / det
