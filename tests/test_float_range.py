"""Float-range property of the chart-point entry points.

Over points whose components span the whole float range (subnormals, huge
values, infinities and NaN) and exact integers beyond it, every call returns
finite values or raises a typed ``SgmaError`` or a ``ValueError``; never an
``OverflowError``, ``TypeError``, ``ZeroDivisionError`` or numpy
``RuntimeWarning`` (the module turns those warnings into errors).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgma.characteristics import BicharState, eikonal_residual, eikonal_residual_grad, \
    hamiltonian, null_project
from sgma.errors import SgmaError
from sgma.ma_core import ChartKind, GeneratingFunction, classify, hessian, immersion, \
    linearization_matrix, ma_residual, pullback_metric
from sgma.polyexpr import parse_poly
from sgma.singular import dpi_det, fiber_solve, multivalued_P

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _gf(chart, text):
    kind = ChartKind(chart)
    return GeneratingFunction(kind, parse_poly(text, kind.coords), Fraction(1))


# The fold, one Lagrangian plane on the other three charts, and a classical
# potential whose momenta overflow where the base point does not.
GFS = [
    _gf("T", "y^2/2 - x^2*Z/2 + Z^3/6"),
    _gf("P", "x*y*z"),
    _gf("P", "x^2 + x*y + y^2 + y*z + z^2"),
    _gf("S", "X^2/3 - X*Y/3 + X*z/3 + Y^2/3 - 2*Y*z/3 - 2*z^2/3"),
    _gf("R", "3*X^2/8 - X*Y/2 + X*Z/4 + Y^2/2 - Y*Z/2 + 3*Z^2/8"),
]
SEEDS = {ChartKind.DUAL_S: [(0.0, 0.0), (1.0, -1.0)],
         ChartKind.DUAL_R: [(0.0, 0.0, 0.0), (1.0, -1.0, 2.0)]}

COMPONENTS = st.one_of(
    st.floats(),
    st.integers(-10**6, 10**6),
    st.builds(lambda sign, k: sign * 10 ** k, st.sampled_from([-1, 1]),
              st.integers(300, 400)),
)
POINTS = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)


def _finite(value) -> bool:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, (int, Fraction)):
        return True
    return math.isfinite(value)


def _returns_finite_or_typed_error(call) -> None:
    try:
        result = call()
    except (SgmaError, ValueError):
        return
    assert _finite(result), result


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), pt=POINTS)
def test_chart_point_entry_points_stay_in_range(gf, pt):
    for fn in (multivalued_P, dpi_det, ma_residual, hessian, pullback_metric,
               linearization_matrix):
        _returns_finite_or_typed_error(lambda: fn(gf, pt))
    _returns_finite_or_typed_error(lambda: immersion(gf, pt).as_tuple())
    _returns_finite_or_typed_error(lambda: classify(gf, pt).eigenvalues)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), base=POINTS)
def test_fiber_solve_stays_in_range(gf, base):
    def call():
        bp = fiber_solve(gf, base, SEEDS.get(gf.chart, ()))
        return bp.base_point, bp.fiber_values, bp.P_values
    _returns_finite_or_typed_error(call)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), q=POINTS, p=st.tuples(COMPONENTS, COMPONENTS),
       free=st.integers(0, 2))
def test_null_project_stays_in_range(gf, q, p, free):
    _returns_finite_or_typed_error(lambda: null_project(gf, q, p, free))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), q=POINTS, p=POINTS)
def test_hamiltonian_and_eikonal_residuals_stay_in_range(gf, q, p):
    _returns_finite_or_typed_error(lambda: hamiltonian(gf, BicharState(q, p)))
    _returns_finite_or_typed_error(lambda: eikonal_residual_grad(gf, q, p))
    _returns_finite_or_typed_error(lambda: eikonal_residual(gf, gf.potential, q))


def test_an_overflowing_newton_seed_fails_alone():
    # X^2 overflows from the seed X = 1e200: that seed fails, with no numpy
    # warning, and the other seed still finds the preimage X = 1.
    gf = _gf("R", "X^3/3 + (Y^2 + Z^2)/2")
    bp = fiber_solve(gf, (1.0, 1.0, 1.0), [(0.5, 0.0, 0.0), (1e200, 0.0, 0.0)])
    assert bp.fiber_values == [(1.000000000000001, 1.0, 1.0)]
    assert bp.failed_seeds == [(1e200, 0.0, 0.0)]
    bp = fiber_solve(gf, (1e300, 1, 1), [(0, 0, 0), (1e200, 0, 0)])
    assert bp.fiber_values == [] and bp.failed_seeds == [(0.0, 0.0, 0.0), (1e200, 0.0, 0.0)]


def test_overflowing_branch_minors_are_not_convex():
    # At z = -1e300 the branch Hessian of x*y*z has h_01 = -1e300, whose
    # square overflows: the point is not convex, and numpy does not warn.
    bp = fiber_solve(_gf("P", "x*y*z"), (0, 0, -1e300))
    assert bp.convex_flags == [False] and bp.degenerate_flags == [False]


def test_overflowing_adjugate_and_exact_momenta_are_domain_errors():
    # A finite Hessian whose adjugate entry -z^2 overflows, and exact
    # momentum or gradient components beyond the float range.
    with pytest.raises(SgmaError, match="linearization matrix is not finite"):
        linearization_matrix(GFS[1], (0, 0, 1.3407807929942597e+154))
    fold = GFS[0]
    with pytest.raises(SgmaError, match="momentum is not finite"):
        hamiltonian(fold, BicharState((0, 0, 1), (0, 1, 10 ** 400)))
    with pytest.raises(SgmaError, match="gradient is not finite"):
        eikonal_residual_grad(fold, (0, 0, 1), (0, 1, 10 ** 400))
