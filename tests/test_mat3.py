"""The shared 3x3 determinant, adjugate and guarded solve."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sgma.errors import DomainError, NoBranchError
from sgma.mat3 import adj3, det3, solve3
from sgma.polyexpr import parse_poly


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(3)), start=a[i][0] * 0)
             for j in range(3)] for i in range(3)]


def test_adjugate_identity_exact_over_fractions():
    rng = random.Random(3)
    for _ in range(50):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
             for _ in range(3)]
        det = det3(m)
        eye = [[det if i == j else 0 for j in range(3)] for i in range(3)]
        assert _matmul(m, adj3(m)) == eye
        assert _matmul(adj3(m), m) == eye


def test_polynomial_entries():
    v = ("x", "y")
    m = [[parse_poly(t, v) for t in row] for row in
         (("x", "1", "0"), ("y", "x", "1"), ("0", "y", "x"))]
    assert det3(m) == parse_poly("x^3 - 2*x*y", v)
    eye = [[det3(m) if i == j else parse_poly("0", v) for j in range(3)]
           for i in range(3)]
    assert _matmul(m, adj3(m)) == eye


def test_float_matches_numpy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.uniform(-2, 2, (3, 3))
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-12, abs=1e-12)
        assert np.allclose(np.array(adj3(m)), np.linalg.det(m) * np.linalg.inv(m),
                           rtol=1e-12, atol=1e-12)
        b = rng.uniform(-2, 2, 3)
        assert np.allclose(solve3(m, b, "singular"), np.linalg.solve(m, b),
                           rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m", [
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],   # exactly singular
    [[1e-5, 0.0, 0.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5]],  # det 1e-15 <= 1e-14
    [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[float("inf"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
])
def test_solve_rejects_singular_and_non_finite(m):
    with pytest.raises(DomainError, match="no unique solution") as info:
        solve3(m, np.ones(3), "no unique solution")
    # A singular finite matrix leaves the branch undefined; a non-finite
    # one is a float-range failure.
    assert isinstance(info.value, NoBranchError) == bool(np.isfinite(m).all())
