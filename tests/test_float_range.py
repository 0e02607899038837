"""Float-range property of the chart-point entry points.

Over points whose components span the whole float range (subnormals, huge
values, infinities and NaN), exact integers beyond it, and numpy float64,
float32 and int64 arrays, every call returns finite values or raises a
typed ``SgmaError`` or a ``ValueError``; never an ``OverflowError``,
``TypeError``, ``AttributeError``, ``ZeroDivisionError`` or numpy
``RuntimeWarning`` (the module turns those warnings into errors).  A
component that is no number is a ``ValueError`` everywhere, and the CLI at
the ends of the float range prints finite numbers or one error line.
"""

import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgma import cli
from sgma.characteristics import BicharState, eikonal_residual, eikonal_residual_grad, \
    ham_rhs, hamiltonian, null_project, trace_bicharacteristic
from sgma.errors import DomainError, SgmaError
from sgma.ma_core import ChartKind, GeneratingFunction, classify, hessian, immersion, \
    linearization_matrix, ma_residual, pullback_metric
from sgma.mat3 import solve3
from sgma.polyexpr import parse_poly
from sgma.realroots import real_roots
from sgma.sg import reconstructed_state
from sgma.singular import branch_hessian, dpi_det, fiber_solve, multivalued_P

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


def _arrays(dtype, elements):
    return st.lists(elements, min_size=3, max_size=3).map(lambda v: np.array(v, dtype=dtype))


POINTS = st.one_of(
    st.tuples(COMPONENTS, COMPONENTS, COMPONENTS),
    _arrays(np.float64, st.floats()),
    _arrays(np.float32, st.floats(width=32)),
    _arrays(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
)


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
               linearization_matrix, branch_hessian):
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS[:3]), branch=st.sampled_from(["convex", 0, 1]),
       base=st.one_of(POINTS, st.tuples(*[st.floats(-3, 3)] * 3)))
def test_reconstructed_state_stays_in_range(gf, base, branch):
    # On the charts whose fibers need no Newton seeds.
    def call():
        state = reconstructed_state(gf, base, branch)
        return state.base, state.chart_point, state.P, state.u_g, state.v_g, \
            state.u, state.v, state.w
    _returns_finite_or_typed_error(call)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), q=POINTS, p=st.tuples(COMPONENTS, COMPONENTS),
       free=st.integers(0, 2))
def test_null_project_stays_in_range(gf, q, p, free):
    _returns_finite_or_typed_error(lambda: null_project(gf, q, p, free))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), q=POINTS, p=st.tuples(COMPONENTS, COMPONENTS),
       free=st.integers(0, 2))
def test_one_trace_step_stays_in_range(gf, q, p, free):
    # A null completion is a start that the trace accepts (up to rounding).
    def call():
        out = []
        for start in null_project(gf, q, p, free):
            trace = trace_bicharacteristic(gf, BicharState(q, start), max_steps=1)
            out += [s.q + s.p for s in trace.states]
            out += [tuple(entry.values()) for entry in trace.conserved_log]
        return out
    _returns_finite_or_typed_error(call)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gf=st.sampled_from(GFS), q=POINTS, p=POINTS)
def test_hamiltonian_and_eikonal_residuals_stay_in_range(gf, q, p):
    _returns_finite_or_typed_error(lambda: hamiltonian(gf, BicharState(q, p)))
    _returns_finite_or_typed_error(lambda: ham_rhs(gf, BicharState(q, p)))
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


# Matrices and vectors over the whole float range, and moderate ones, which
# both solves accept more often.
def _float_arrays(*shape):
    n = math.prod(shape)
    return st.one_of(st.lists(st.floats(), min_size=n, max_size=n),
                     st.lists(st.floats(-10, 10), min_size=n, max_size=n)).map(
        lambda v: np.array(v).reshape(shape))


MATRICES, VECTORS = _float_arrays(3, 3), _float_arrays(3)
EPS = sys.float_info.epsilon


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=MATRICES, b=st.one_of(VECTORS, MATRICES))
def test_solve3_stays_in_range_and_agrees_with_lapack(a, b):
    # Where both solves succeed, they agree to 64 eps cond(a) in the max
    # norm relative to the solution: each is within a small multiple of
    # eps cond(a) of the exact one (the threshold keeps cond(a) < ~1e15).
    try:
        x = solve3(a, b, "singular")
    except SgmaError:
        return
    assert np.all(np.isfinite(x)), x
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            want = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return
        cond = np.linalg.cond(a, np.inf)
    if not (np.all(np.isfinite(want)) and np.isfinite(cond)):
        return
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(x - want))) <= 64 * EPS * cond * scale


# Coefficients from 1 to beyond the float range, of both signs, and zeros.
COEFFICIENTS = st.one_of(
    st.just(0),
    st.builds(lambda sign, k: sign * 10 ** k, st.sampled_from([-1, 1]), st.integers(0, 400)),
    st.integers(-10 ** 6, 10 ** 6),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coeffs=st.lists(COEFFICIENTS, min_size=1, max_size=6))
def test_real_roots_on_integers_across_the_float_range(coeffs):
    try:
        roots = real_roots(coeffs)
    except (SgmaError, ValueError):
        return
    values = [r.value for r in roots]
    assert all(map(math.isfinite, values)) and values == sorted(values)
    assert sum(r.multiplicity for r in roots) <= len(coeffs) - 1


# Reading numpy scalars as the Python numbers they hold.

FOLD = GFS[0]


def test_numpy_int64_point_is_read_exactly():
    # int64 arithmetic would wrap around: x^2/2 = 2^79 does not fit.
    z = immersion(FOLD, np.array([2 ** 40, 3, 2 ** 33], dtype=np.int64)).z
    assert z == immersion(FOLD, (2 ** 40, 3, 2 ** 33)).z == 604426016319167168249856


def test_numpy_int_base_point_is_read_as_ints():
    assert fiber_solve(FOLD, np.array([2, 0, 0])) == fiber_solve(FOLD, (2, 0, 0))


def test_numpy_float32_infinity_is_not_finite():
    with pytest.raises(DomainError, match="chart point is not finite"):
        multivalued_P(FOLD, np.array([np.inf, 0, 1], dtype=np.float32))


def test_numpy_float64_overflow_is_domain_error():
    # A numpy scalar power warns and gives inf; a Python float's raises.
    for pt in (np.array([1e200, 0.0, 0.0]), [1e200, 0.0, 0.0]):
        with pytest.raises(DomainError, match="overflows"):
            immersion(FOLD, pt)


def test_text_components_are_value_errors():
    # A component that is no number (text, a complex) gets one answer from
    # every reader of points, momenta and base points.
    for bad in ("1", 1j):
        pt = (bad, 0, 1)
        calls = (lambda: immersion(FOLD, pt), lambda: dpi_det(FOLD, pt),
                 lambda: fiber_solve(FOLD, pt), lambda: pullback_metric(FOLD, pt),
                 lambda: classify(FOLD, pt), lambda: ma_residual(FOLD, pt),
                 lambda: hamiltonian(FOLD, BicharState(pt, (0, 1, 1))),
                 lambda: hamiltonian(FOLD, BicharState((0, 0, 1), pt)),
                 lambda: null_project(FOLD, (0, 0, 1), (bad, 1), 2),
                 lambda: eikonal_residual_grad(FOLD, (0, 0, 1), pt))
        for call in calls:
            with pytest.raises(ValueError, match="is not a number"):
                call()


_FOLD_ARGS = ["--chart", "T", "--potential", "y^2/2 - x^2*Z/2 + Z^3/6"]


@pytest.mark.parametrize("argv", [
    ["classify", "--point=1e300,-1e300,1e300"],
    ["classify", "--point=1e-320,-1e-320,1e-320"],
    ["fiber", "--base=1e300,1e300,1e300"],
    ["fiber", "--base=1e-320,0,-1e-320"],
    ["trace", "--q=1e-320,0,1e300", "--p=0,1,?", "--max-steps=5"],
    ["wind", "--x=1e300:1e301:2", "--z=-2:1.9:2"],
    ["caustic", "--grid=x=1e-320:1e300:3,y=-1e300:1e-320:3"],
    ["residual", "--point=1e-320,1e300,-1e300"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_at_the_ends_of_the_float_range(argv, capsys):
    # Exit 0 with finite numbers only, or exit 3 with one JSON error line.
    code = cli.main([argv[0], *_FOLD_ARGS, *argv[1:]])
    out, err = capsys.readouterr()
    if code == 0:
        assert out and not err
        assert not re.search(r"\b(inf|infinity|nan)\b", out, re.IGNORECASE)
    else:
        assert code == 3 and not out
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["code"] == 3
