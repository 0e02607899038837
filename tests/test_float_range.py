"""Float-range property of the chart-point entry points.

Over points whose components span the whole float range (subnormals, huge
values, infinities and NaN) and exact integers beyond it, every call returns
finite values or raises a typed ``SgmaError`` or a ``ValueError``; never an
``OverflowError``, ``TypeError`` or ``ZeroDivisionError``.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sgma.characteristics import null_project
from sgma.errors import SgmaError
from sgma.ma_core import ChartKind, GeneratingFunction, immersion, ma_residual
from sgma.polyexpr import parse_poly
from sgma.singular import dpi_det, fiber_solve, multivalued_P


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
    _returns_finite_or_typed_error(lambda: multivalued_P(gf, pt))
    _returns_finite_or_typed_error(lambda: dpi_det(gf, pt))
    _returns_finite_or_typed_error(lambda: ma_residual(gf, pt))
    _returns_finite_or_typed_error(lambda: immersion(gf, pt).as_tuple())


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
